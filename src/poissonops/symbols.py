"""Symbol-kernels, their numerical seminorm estimator, and the kernel catalog.

A symbol-kernel ``k(xi', mu; x_n)`` defines a Poisson operator: a tangential
Fourier multiplier whose value depends on the normal coordinate.  The "strong"
class asks for Schwartz-type decay of the rescaled kernel
``ktilde(xi', mu; t) = k(xi', mu; t / <xi', mu>)`` in ``t``; the "weak" class
only for bounded ``(t d/dt)``-derivatives against polynomial weights.  Both
seminorm families are estimated here by sampling a finite probe lattice with
central finite differences, which yields lower estimates; refinement stability
of those estimates is the operational finiteness certificate.  The module also
holds the kernel catalog, the Cahn-Hilliard and road-field boundary symbols
that the dynamic-boundary solvers read, and the closed-form envelope maximum.

Evaluator convention: ``func(xi, mu, xn, order=0)`` is the ``order``-th
normal derivative ``d^order k / dx_n^order``, the kernel itself at order 0;
the last axis of ``xi`` holds the frequency components (a bare scalar is a
single one-dimensional frequency), ``mu`` is a complex scalar, a broadcastable
array, or ``None`` for kernels with the empty sector, and ``xn`` broadcasts
against the leading axes of ``xi``.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import Sector, _integer, _xi_sq, bracket

__all__ = [
    "SymbolKernel",
    "ProbeSpec",
    "seminorm_table",
    "lemma_max_eval",
    "heat_kernel",
    "kpp_kernel",
    "constant_one",
    "zero_kernel",
    "kernel_catalog",
]

# central difference stencils, offsets paired with coefficients; divide by h**order
_STEN: dict[int, tuple[tuple[int, float], ...]] = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}

_STEN_RADIUS = {j: max(abs(off) for off, _ in st) for j, st in _STEN.items()}

# Stirling numbers of the second kind: (t d/dt)^m = sum_j S(m,j) t^j (d/dt)^j
_STIRLING2: dict[int, dict[int, float]] = {
    0: {0: 1.0},
    1: {1: 1.0},
    2: {1: 1.0, 2: 1.0},
    3: {1: 1.0, 2: 3.0, 3: 1.0},
    4: {1: 1.0, 2: 7.0, 3: 6.0, 4: 1.0},
}


@dataclass(frozen=True)
class SymbolKernel:
    """A symbol-kernel with its order, claimed class, and admissible sector.

    Parameters
    ----------
    name : str
        Catalog identifier.
    order : float
        Growth order ``d`` of the bracket weight in the seminorms.
    kind : {"strong", "weak"}
        Claimed symbol class of the kernel.
    sector : Sector
        Admissible region for the spectral parameter.
    func : callable
        Evaluator ``func(xi, mu, xn, order=0)`` of the kernel and its normal
        derivatives, as described in the module docstring; the one source of
        ``d^order k / dx_n^order``.
    rate : callable, optional
        Decay rate ``(xi, mu) -> r`` of a decay kernel, one whose ``func`` is
        ``(-r)^order exp(-r x_n)``; ``opnorm_hilbert`` then takes every
        derivative order from one real exponential ``exp(-2 Re(r) x_n)``.

    Radial contract: ``func`` and ``rate`` read ``xi`` only through
    ``core._xi_sq(xi)``, so frequencies with the same computed ``|xi|^2`` get
    the same values bit for bit.  ``opnorm_hilbert`` and the Poisson profile
    evaluate a kernel once per distinct ``|xi|^2`` of the grid
    (``TangentialGrid.radial``) and rely on it.
    """

    name: str
    order: float
    kind: str
    sector: Sector
    func: Callable
    rate: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "weak"):
            raise ValueError(f"kind must be 'strong' or 'weak', got {self.kind!r}")


# ---------------------------------------------------------------------------
# probe lattices


# finite-difference steps relative to the local bracket weight, and the
# angular distance of the default spectral rays from the sector boundary
_H_REL = 1e-3
_MARGIN = 0.01


@dataclass(frozen=True)
class ProbeSpec:
    """Sampling lattice for seminorm estimates.

    ``level`` counts refinements: each ``refined()`` doubles the sampling
    density and widens every range by a factor of four, the refinement step
    used for finiteness certificates.  ``rays`` optionally pins the spectral
    samples to one or more explicit argument angles (e.g. ``(0.0,)`` for a
    real-parameter scan) instead of the default three rays spread across the
    sector interior; every sample must lie in the sector.  The ``xi`` samples
    cover ``xi >= 0`` only: by the radial contract of ``SymbolKernel``, a
    supremum over them is the supremum over every ``xi``.
    """

    level: int = 0
    rays: tuple | None = None

    def __post_init__(self) -> None:
        if not (self.level >= 0 and float(self.level).is_integer()):
            raise ValueError(f"refinement level must be a nonnegative integer, got {self.level!r}")
        if self.rays is not None and len(self.rays) == 0:
            raise ValueError("rays must pin at least one spectral ray; None gives the default rays")

    # upper ends of the xi, mu and t ranges: 8 at level 0, four times wider per level
    xi_max = mu_max = t_max = property(lambda self: 8.0 * 4.0**self.level)

    @property
    def density(self) -> int:
        return 2 ** int(self.level)

    def refined(self) -> "ProbeSpec":
        return replace(self, level=self.level + 1)

    def xi_values(self) -> np.ndarray:
        return np.concatenate([[0.0], np.geomspace(0.25, self.xi_max, 4 * self.density + 1)])

    def t_values(self) -> np.ndarray:
        n = 8 * self.density + 1
        return np.concatenate([[0.0], np.geomspace(0.125, self.t_max, n)])

    def mu_values(self, sector: Sector) -> list:
        """Spectral samples on rays inside the sector, or ``[None]`` if empty.

        Default rays keep an angular distance of at least ``_MARGIN`` from the
        sector boundary to avoid grazing branch cuts; a sample outside the
        sector raises ``SectorError``.
        """
        if sector.is_empty:
            return [None]
        if self.rays is not None:
            angles = list(self.rays)
        else:
            lo = sector.alpha + _MARGIN
            hi = sector.beta - _MARGIN
            if hi <= lo:
                angles = [0.5 * (sector.alpha + sector.beta)]
            else:
                angles = [lo + f * (hi - lo) for f in (0.05, 0.5, 0.95)]
        n = 2 * self.density + 2
        mags = np.geomspace(0.5, self.mu_max, n)
        return [sector.require(m * complex(math.cos(a), math.sin(a))) for a in angles for m in mags]


def _spectral_lattice(probe: ProbeSpec, sector: Sector):
    """The probe's ``(mu, xi)`` lattice with its bracket weights and difference steps.

    Returns ``(mu, xi, br, h)``: the spectral samples stacked on a leading
    axis ``(n_mu, 1, 1)`` (``None`` for the empty sector), the frequency
    column ``(nx, 1)``, the weight ``br = <xi, mu>`` and the step
    ``h = _H_REL * br``, both ``(n_mu, nx, 1)`` (``(nx, 1)`` without ``mu``).
    """
    samples = probe.mu_values(sector)
    mu = None if samples == [None] else np.array(samples)[:, None, None]
    xi = probe.xi_values()[:, None]
    br = bracket(xi[..., None], mu)
    return mu, xi, br, _H_REL * br


# ---------------------------------------------------------------------------
# seminorm estimation


def _central_difference(at: Callable, orders, h):
    """Mixed central difference of orders ``orders``, one ``_STEN`` stencil per axis.

    ``at(offsets)`` samples the function at integer multiples ``offsets`` of
    the step ``h`` along each axis; the weighted samples are summed over the
    product of the stencils and divided by ``h ** sum(orders)``.
    """
    acc = 0.0
    for taps in itertools.product(*(_STEN[o] for o in orders)):
        acc = acc + math.prod(c for _, c in taps) * at(tuple(off for off, _ in taps))
    return acc / h ** sum(orders)


def seminorm_table(k: SymbolKernel, N: int, probe: ProbeSpec | None = None) -> list[float]:
    """Lower estimates of the symbol-class seminorms of ``k`` of orders ``0..N``, from one sweep per probe.

    The order-``n`` entry is, for the strong class, the lattice supremum over
    all index combinations ``l + l' + |a| + |b| <= n`` of

        ``|t^l D_t^l' D_xi^a D_mu^b ktilde| * <xi, mu>^(-d + |a| + |b|)``

    and for the weak class the analogue with ``(t D_t)^m`` derivatives and
    ``<t>^l`` weights.  Derivatives in ``mu`` act on its two real coordinates.
    Each entry is a lower bound; compare against a refined probe to certify
    finiteness.  The lattice samples ``xi >= 0``, each stencil offset once: by
    the radial contract of ``SymbolKernel`` its supremum there is the one over
    every ``xi``.
    """
    N = _integer("N", N)
    if not 0 <= N <= 4:
        raise ValueError(f"derivative budget N must be in 0..4, got N={N!r}")
    probe = probe or ProbeSpec()
    mu, xi, br, h = _spectral_lattice(probe, k.sector)
    t = probe.t_values()[None, :]  # (1, nt)
    strong = k.kind == "strong"
    max_mu_order = N if mu is not None else 0
    # the (a, b1, b2) groups, even xi-orders first: an odd stencil has no 0 offset, so only they read the
    # i = 0 samples, which are then let go early; a = 0 stays first, and every reduction is an exact max
    groups = sorted(
        (
            (a, b1, b2)
            for a in range(N + 1)
            for b1 in range(max_mu_order + 1)
            for b2 in range(max_mu_order + 1)
            if a + b1 + b2 <= N
        ),
        key=lambda g: g[0] % 2,
    )
    # a dry pass of the same differences counts each sample's reads
    reads = collections.Counter()

    def tally(offsets: tuple[int, int, int, int]) -> float:
        reads[offsets] += 1
        return 0.0

    for a, b1, b2 in groups:
        for j in range(N - a - b1 - b2 + 1):
            _central_difference(tally, (a, b1, b2, j), 1.0)

    # each sample is held from its first read to its last, not for the whole table: at most 41 of a
    # heat N = 4 table's 137 at once.  A plain dict, not a self-calling cached `at`: that would be a
    # reference cycle keeping every sample alive until the cyclic GC runs
    held: dict[tuple[int, int, int, int], np.ndarray] = {}

    def sample(i: int, p: int, q: int, s: int) -> np.ndarray:
        xs = xi + i * h
        ms = None if mu is None else mu + (p + 1j * q) * h
        ts = np.maximum(t + s * h, 0.0)
        return np.asarray(k.func(xs[..., None], ms, ts / bracket(xs[..., None], ms)), dtype=complex)

    def at(offsets: tuple[int, int, int, int]) -> np.ndarray:
        v = held.pop(offsets) if offsets in held else sample(*offsets)
        reads[offsets] -= 1
        if reads[offsets]:
            held[offsets] = v
        return v

    per_order = [0.0] * (N + 1)
    for a, b1, b2 in groups:
        rem = N - a - b1 - b2
        wscale = br ** (-k.order + a + b1 + b2)
        gs = [_central_difference(at, (a, b1, b2, j), h) for j in range(rem + 1)]
        for m in range(rem + 1):
            # order-m normal term: D_t^m (strong) or (t D_t)^m (weak)
            g = gs[m] if strong else sum(c * t**j * gs[j] for j, c in _STIRLING2[m].items())
            # central t-stencils must not reach below t = 0
            ok = t - _STEN_RADIUS[m] * h >= 0.0
            for l in range(rem - m + 1):
                if strong:
                    vals = np.abs(t**l * g) * wscale
                else:
                    # <t>^l in one power: bracket(t) ** l rounds twice and would move the tables
                    vals = np.abs(g) * (1.0 + t * t) ** (0.5 * l) * wscale
                n = a + b1 + b2 + m + l
                top = float(np.max(np.where(ok, vals, 0.0)))
                if not math.isfinite(top):  # max() below would drop a NaN silently
                    raise ValueError(f"kernel {k.name!r}: non-finite seminorm lattice value at order {n}")
                per_order[n] = max(per_order[n], top)
    return list(itertools.accumulate(per_order, max))


# ---------------------------------------------------------------------------
# scalar maximization lemma


def lemma_max_eval(a: float, rho: float, t: float) -> float:
    """Closed form of ``max_{s >= 1} s^a <s t>^(-rho)`` for ``rho > 1, 0 < a < rho``.

    For ``t`` at least ``(rho/a - 1)^(-1/2)`` the maximum sits at ``s = 1``
    and equals ``<t>^(-rho)``; below that threshold it is attained in the
    interior and equals ``c * t^(-a)`` with
    ``c = (1 - a/rho)^(rho/2) * (rho/a - 1)^(-a/2)``.
    """
    if not rho > 1:
        raise ValueError(f"need rho > 1, got {rho}")
    if not 0 < a < rho:
        raise ValueError(f"need 0 < a < rho, got a={a}")
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    t_star = (rho / a - 1.0) ** -0.5
    if t >= t_star:
        # <t>^(-rho) as one power of 1 + t^2: bracket(t) ** -rho would round twice
        return (1.0 + t * t) ** (-rho / 2.0)
    c = (1.0 - a / rho) ** (rho / 2.0) * (rho / a - 1.0) ** (-a / 2.0)
    return c * t ** (-a)


# ---------------------------------------------------------------------------
# built-in catalog

_HALF_SECTOR = Sector.symmetric(0.45 * math.pi)


def _tau(xi, mu):
    """Principal branch of sqrt(1 + |xi|^2 + mu^2): the complex mu^2, so not the bracket weight."""
    musq = 0.0j if mu is None else np.asarray(mu, dtype=complex) ** 2
    return np.sqrt(1.0 + _xi_sq(xi) + musq)


def _decay_kernel(name: str, kind: str, rate: Callable) -> SymbolKernel:
    """Order-0 kernel ``exp(-rate(xi, mu) x_n)`` on the half sector, carrying its ``rate``.

    Its normal derivatives are ``(-rate)^order exp(-rate x_n)`` in closed form.
    """

    def func(xi, mu, xn, order=0):
        r = rate(xi, mu)
        value = np.exp(-r * xn)
        return value if order == 0 else (-r) ** order * value

    return SymbolKernel(name=name, order=0.0, kind=kind, sector=_HALF_SECTOR, func=func, rate=rate)


heat_kernel = _decay_kernel("heat", "strong", _tau)


def _ch_symbol(s, mu):
    """Cahn-Hilliard boundary numerator and denominator at ``|xi|^2 = s``.

    With the roots ``tau_1,2 = sqrt(|xi|^2 +- i mu)``,
    ``num = mu^2 (tau_1 + tau_2)`` and
    ``den = (mu^2 + |xi|^2)(tau_1 + tau_2) + 2 tau_1 tau_2``; the boundary
    multiplier is ``num / den``.  Returns ``(num, den)``.
    """
    mu_c = np.asarray(mu, dtype=complex)
    tau1 = np.sqrt(s + 1j * mu_c)
    tau2 = np.sqrt(s - 1j * mu_c)
    mu2 = mu_c**2
    return mu2 * (tau1 + tau2), (mu2 + s) * (tau1 + tau2) + 2.0 * tau1 * tau2


def _road_symbol(s, mu2, d, dprime, kcoef):
    """Road-field denominator and root at ``|xi|^2 = s``, ``mu^2 = mu2``.

    ``root = sqrt(d mu^2 + d^2 |xi|^2) + 1`` and
    ``den = (mu^2 + kcoef + dprime |xi|^2) root - kcoef``; per mode the bulk
    trace is ``kcoef / den`` and the road density ``root / den`` times the
    road data.  Returns ``(den, root)``.
    """
    root = np.sqrt(d * mu2 + d * d * s) + 1.0
    return (mu2 + kcoef + dprime * s) * root - kcoef, root


def _require_road_params(d: float, dprime: float, kcoef: float) -> None:
    """Refuse road-field parameters that are not positive and finite (NaN fails both comparisons)."""
    if not all(0 < x < math.inf for x in (d, dprime, kcoef)):
        raise ValueError(f"road-field parameters must be positive and finite, got {(d, dprime, kcoef)}")


def kpp_kernel(d: float = 1.0) -> SymbolKernel:
    """Decay kernel ``exp(-sqrt(mu^2/d + |xi|^2) x_n)`` of the bulk solution.

    Unit bounded, but its decay rate degenerates against the bracket weight as
    ``mu`` vanishes, so it is tagged with the weak class as a nominal label.
    """
    if not 0 < d < math.inf or not 1.0 / d < math.inf:  # the rate divides by d
        raise ValueError(f"diffusivity must be positive and finite, and so must 1/d, got d={d!r}")
    return _decay_kernel("kpp", "weak", lambda xi, mu: np.sqrt(np.asarray(mu, dtype=complex) ** 2 / d + _xi_sq(xi)))


def _filled(value: complex) -> Callable:
    """Evaluator of the kernel identically equal to ``value``: its normal derivatives vanish."""

    def evaluate(xi, mu, xn, order=0):
        shape = np.broadcast_shapes(np.shape(_xi_sq(xi)), np.shape(xn))
        return np.full(shape, value if order == 0 else 0.0, dtype=complex)

    return evaluate


constant_one = SymbolKernel(
    name="constant-one",
    order=0.0,
    kind="strong",  # deliberately misdeclared: no decay, seminorms diverge
    sector=Sector.empty(),
    func=_filled(1.0),
)


zero_kernel = SymbolKernel(
    name="zero",
    order=0.0,
    kind="strong",
    sector=Sector.empty(),
    func=_filled(0.0),
)


# catalog name -> the kernel, built from the bulk diffusivity d (which only kpp reads)
_KERNELS: dict[str, Callable[[float], SymbolKernel]] = {
    "heat": lambda d: heat_kernel,
    "kpp": kpp_kernel,
    "constant-one": lambda d: constant_one,
    "zero": lambda d: zero_kernel,
}


def kernel_catalog(name: str, d: float = 1.0) -> SymbolKernel:
    """Look up a symbol-kernel by its catalog name."""
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel {name!r}")
    return _KERNELS[name](d)
