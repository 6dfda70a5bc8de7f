"""Field norms, one stack engine for every norm family, and the Hilbert operator norm per mode.

Covers plain and weak L^p, mixed tangential/normal norms with normal
derivatives, dyadic-block boundary smoothness norms, totally characteristic
norms built from ``(x_n d/dx_n)`` derivatives, Bessel-weighted boundary norms,
and the per-mode operator norm of a Poisson operator between bracket-weighted
L^2 spaces.  Every :class:`NormSpec` norm is evaluated in spectral space by
one engine, which measures sign sums of many fields at once; a single field
is the one-summand case.  Weak integrability always refers to the normal
direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid, bracket, make_grids
from .symbols import SymbolKernel
from .transforms import LPPartition, _itfft, _tfft

__all__ = [
    "NormSpec",
    "lp_norm",
    "weak_lp_norm",
    "mixed_norm",
    "besov_norm",
    "tot_char_norm",
    "bessel2_norm",
    "opnorm_hilbert",
    "normal_derivative",
    "field_norm",
]

_FAMILIES = ("Lp", "WeakLp", "Mixed", "Besov", "TotChar", "Bessel2")
_HALF_SPACE = ("WeakLp", "Mixed", "TotChar")
_BOUNDARY = ("Besov", "Bessel2")


@dataclass(frozen=True)
class NormSpec:
    """Declarative norm choice; exponent/family compatibility is checked here.

    ``family`` picks the norm; ``p`` acts in the normal direction for weak,
    mixed and totally characteristic norms (``weak`` replaces it by the
    Lorentz quasinorm there), ``q`` tangentially; a Besov norm takes ``p``
    on each dyadic block and ``q`` across blocks.  ``s`` is smoothness, ``m``
    a normal derivative budget.
    """

    family: str
    p: float = 2.0
    q: float = 2.0
    s: float = 0.0
    m: int = 0
    weak: bool = False

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.family == "Lp" and not 1 <= self.p < math.inf:
            raise ValueError("Lp requires 1 <= p < inf")
        if self.family in ("WeakLp", "Mixed", "Besov", "TotChar"):
            if not 1 < self.p < math.inf:
                raise ValueError(f"{self.family} requires p in (1, inf)")
            if not 1 <= self.q < math.inf:
                raise ValueError(f"{self.family} requires q in [1, inf)")
        if self.family == "Mixed" and not 0 <= self.m <= 3:
            raise ValueError("Mixed requires derivative order m in 0..3")
        if self.family == "TotChar":
            if self.s != int(self.s) or not 0 <= self.s <= 3:
                raise ValueError("TotChar requires integer s in 0..3")
        if self.family == "Bessel2" and (self.p != 2 or self.q != 2):
            raise ValueError("Bessel2 is an L2-scale norm; p and q must be 2")
        if self.weak and self.family not in _HALF_SPACE:
            raise ValueError("weak integrability applies to the normal direction only")


def lp_norm(f, p: float) -> float:
    """Quadrature L^p norm of a boundary or half-space field."""
    if not 1 <= p < math.inf:
        raise ValueError(f"need 1 <= p < inf, got {p}")
    a = np.abs(f.samples) ** p
    if isinstance(f, BoundaryField):
        return float((np.sum(a) * f.grid.cell) ** (1.0 / p))
    total = np.sum(a, axis=tuple(range(f.tangential.dim))) * f.tangential.cell
    return float(np.sum(total * f.normal.weights) ** (1.0 / p))


def weak_lp_norm(values, measures, p: float) -> float:
    """Empirical Lorentz L^{p,infty} quasinorm of a sampled function.

    With samples sorted descending and cumulative measures M_k, the
    distribution-function supremum is attained at sample values, so the norm
    is ``max_k v_k M_k^{1/p}``.
    """
    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")
    v = np.asarray(values, dtype=float)
    m = np.asarray(measures, dtype=float)
    if v.shape != m.shape or v.ndim != 1:
        raise ValueError("values and measures must be 1-D arrays of equal length")
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    if np.any(m <= 0):
        raise ValueError("measures must be positive")
    return float(_normal_lp(v, m, p, weak=True))


def _normal_lp(slices: np.ndarray, weights: np.ndarray, p: float, weak: bool) -> np.ndarray:
    """(Weak) L^p along the last axis against ``weights``, batched over leading axes.

    The weak branch sorts each row descending and takes ``max_k v_k M_k^{1/p}``
    as :func:`weak_lp_norm` does; a 1-D row gives the single-field value.
    """
    if weak:
        order = np.argsort(slices, axis=-1)[..., ::-1]
        cum = np.cumsum(weights[order], axis=-1)
        return np.max(np.take_along_axis(slices, order, axis=-1) * cum ** (1.0 / p), axis=-1)
    return np.sum(slices**p * weights, axis=-1) ** (1.0 / p)


def normal_derivative(values: np.ndarray, ngrid: NormalGrid, order: int = 1) -> np.ndarray:
    """Normal-direction derivative on the graded grid, last axis, iterated.

    Three-point stencils adapted to the nonuniform spacing, one-sided at the
    endpoints; second-order accurate, which the >= 1% norm tolerances absorb.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if ngrid.M < 3:
        raise ValueError(f"normal derivatives need at least three normal nodes, got M={ngrid.M}")
    x = ngrid.nodes
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    cm = -h2 / (h1 * (h1 + h2))
    c0 = (h2 - h1) / (h1 * h2)
    cp = h1 / (h2 * (h1 + h2))
    a1, a2 = x[1] - x[0], x[2] - x[1]
    b1, b2 = x[-2] - x[-3], x[-1] - x[-2]
    out = np.asarray(values, dtype=complex)
    for _ in range(order):
        d = np.empty_like(out)
        d[..., 1:-1] = cm * out[..., :-2] + c0 * out[..., 1:-1] + cp * out[..., 2:]
        d[..., 0] = (
            -(2 * a1 + a2) / (a1 * (a1 + a2)) * out[..., 0]
            + (a1 + a2) / (a1 * a2) * out[..., 1]
            - a1 / (a2 * (a1 + a2)) * out[..., 2]
        )
        d[..., -1] = (
            b2 / (b1 * (b1 + b2)) * out[..., -3]
            - (b1 + b2) / (b1 * b2) * out[..., -2]
            + (b1 + 2 * b2) / (b2 * (b1 + b2)) * out[..., -1]
        )
        out = d
    return out


def mixed_norm(u: HalfSpaceField, p: float, q: float, m: int = 0, weak: bool = False) -> float:
    """Sum over derivative orders up to ``m`` of normal-then-tangential norms.

    Each term takes the tangential L^q of the order-``l`` normal derivative on
    every slice, then the (weak) L^p of that profile in the normal direction.
    """
    return field_norm(u, NormSpec("Mixed", p=p, q=q, m=m, weak=weak))


def besov_norm(g: BoundaryField, s: float, p: float, q: float) -> float:
    """Dyadic-block smoothness norm ``(sum_j 2^{jsq} ||block_j||_p^q)^{1/q}``."""
    return field_norm(g, NormSpec("Besov", p=p, q=q, s=s))


def tot_char_norm(u: HalfSpaceField, s: int, p: float, q: float, weak: bool = False) -> float:
    """Totally characteristic norm: ``(x_n d/dx_n)`` derivatives up to ``s``.

    Order ``s = 0`` coincides with ``mixed_norm(u, p, q, 0, weak)``.
    """
    return field_norm(u, NormSpec("TotChar", p=p, q=q, s=s, weak=weak))


def bessel2_norm(g: BoundaryField, s: float) -> float:
    """Bracket-weighted spectral L^2 norm ``||<xi>^s g^||_2`` of boundary data."""
    return field_norm(g, NormSpec("Bessel2", s=s))


def opnorm_hilbert(
    k: SymbolKernel,
    mu,
    s: float,
    t: float,
    grid: TangentialGrid | None = None,
    ngrid: NormalGrid | None = None,
) -> float:
    """Operator norm of the Poisson operator between L^2-scale spaces, per mode.

    Diagonality reduces the norm to a supremum over lattice frequencies of

        ``<xi>^(-s) (<xi>^(2t) ||k||^2 + ||k||_t'^2)^(1/2)``

    where ``||k||`` is the normal L^2 norm of the mode profile and the
    smoothness surrogate ``||k||_t'`` is the L^2 norm of the order-``t``
    normal derivative: exact for integer ``t``, geometrically interpolated
    through the order-``ceil(t)`` derivative for fractional ``t`` so the
    large-parameter decay rate matches the fractional smoothness.  ``t = 0``
    needs no surrogate and the value ``sup <xi>^(-s) ||k||`` is exact.

    A kernel with the ``modulus_sq`` hook gives both squared profiles in real
    arithmetic; any other squares ``func`` at the derivative order.
    """
    if t < 0:
        raise ValueError("target smoothness t must be nonnegative")
    k.sector.require(mu)
    if grid is None or ngrid is None:
        dg, dn = make_grids()
        grid = grid or dg
        ngrid = ngrid or dn
    fv = grid.freq_vectors[..., None, :]

    def l2_of(order):
        if k.modulus_sq is not None:
            sq = k.modulus_sq(fv, mu, ngrid.nodes, order)
        else:
            sq = np.abs(k.func(fv, mu, ngrid.nodes, order)) ** 2
        return np.sqrt(np.sum(sq * ngrid.weights, axis=-1))

    l2 = l2_of(0)
    bxi = bracket(grid.freq_vectors)
    if t == 0:
        return float(np.max(bxi ** (-s) * l2))
    tc = math.ceil(t)
    l2d = l2_of(tc)
    if t == tc:
        surr = l2d
    else:
        theta = t / tc
        surr = l2 ** (1.0 - theta) * l2d**theta
    vals = bxi ** (-s) * np.sqrt(bxi ** (2.0 * t) * l2**2 + surr**2)
    return float(np.max(vals))


class _StackNorm:
    """A :class:`NormSpec` norm of sign sums ``sum_k eps_k O_k`` of spectral arrays, every trial at once.

    Every norm is an outer l^r sum over terms, each term the normal (weak)
    L^p of the tangential L^q slices of one stack.  Lp and WeakLp have one
    term; Mixed sums the normal derivatives up to ``m`` and TotChar the
    iterated ``x_n d/dx_n`` up to ``s``; Besov takes the ``2^{js}``-weighted
    dyadic blocks of the spectrum with tangential exponent ``p`` and outer
    ``l^q``; Bessel2 is the one term ``<xi>^s`` times the spectrum.

    A stack is laid out ``(M, size, modes)``: normal nodes first (``M = 1``
    on the boundary), then the summands, then the flattened modes of the
    unscaled orthonormal tangential transform.  For tangential ``q = 2`` each
    slice is the Gram form ``cell * Re(eps^* G[x] eps)`` with
    ``G[x] = conj(O_x) O_x^T`` (Plancherel); any other ``q`` transforms the
    stack back once and forms every trial in one matmul.
    """

    def __init__(self, spec: NormSpec, grid: TangentialGrid, normal: NormalGrid | None) -> None:
        family = spec.family
        if normal is None and family in _HALF_SPACE:
            raise TypeError(f"{family} norms need a half-space field")
        if normal is not None and family in _BOUNDARY:
            raise TypeError(f"{family} norms apply to boundary fields")
        self.grid, self.normal, self.family = grid, normal, family
        self.q = spec.p if family in ("Lp", "Besov") else spec.q
        self.p, self.weak = spec.p, spec.weak or family == "WeakLp"
        self.r = spec.q if family == "Besov" else 1.0
        self.steps = spec.m if family == "Mixed" else int(spec.s) if family == "TotChar" else 0
        self.weights = []  # spectral weight of each term, on the flattened modes
        if family == "Besov":
            part = LPPartition.for_grid(grid)
            radius = np.sqrt(grid.freq_norm_sq).reshape(-1)
            self.weights = [2.0 ** (j * spec.s) * part.block_weight(j, radius) for j in range(part.J + 1)]
        elif family == "Bessel2":
            self.weights = [bracket(grid.freq_vectors).reshape(-1) ** spec.s]
        # the mean square of a sign sum is then exactly the sum of squares
        one_term = self.steps == 0 and len(self.weights) <= 1
        self.hilbert = (one_term or self.r == 2) and self.q == 2 and self.p == 2 and not self.weak

    @classmethod
    def on(cls, f, spec: NormSpec) -> "_StackNorm":
        """The form of ``spec`` on the grids of the field ``f``."""
        if isinstance(f, HalfSpaceField):
            return cls(spec, f.tangential, f.normal)
        return cls(spec, f.grid, None)

    def orders(self, a: np.ndarray) -> list[np.ndarray]:
        """The term stacks of ``a``, which is laid out ``(size, modes, M)``."""
        terms = [w[:, None] * a for w in self.weights] or [a]
        for _ in range(self.steps):
            d = normal_derivative(terms[-1], self.normal, 1)
            terms.append(self.normal.nodes * d if self.family == "TotChar" else d)
        return [np.ascontiguousarray(np.moveaxis(t, -1, 0)) for t in terms]

    def _total(self, slices: list[np.ndarray]) -> np.ndarray:
        """Normal (weak) L^p of each term's slices, shaped ``(..., M)``, then l^r over the terms."""
        if self.normal is None:
            terms = [s[..., 0] for s in slices]
        else:
            terms = [_normal_lp(s, self.normal.weights, self.p, self.weak) for s in slices]
        return sum(t**self.r for t in terms) ** (1.0 / self.r)

    def _physical(self, o: np.ndarray) -> np.ndarray:
        a = np.moveaxis(o.reshape(o.shape[:2] + self.grid.shape), (0, 1), (-2, -1))
        return np.moveaxis(_itfft(a, self.grid.dim), (-2, -1), (0, 1)).reshape(o.shape)

    def of_sums(self, stacks: list[np.ndarray], eps: np.ndarray) -> np.ndarray:
        """Norm of ``sum_k eps[t, k] O_k`` for every trial ``t``, from the stacks of :meth:`orders`."""
        cell, q = self.grid.cell, self.q
        slices = []
        for o in stacks:
            if q == 2:
                gram = o.conj() @ o.transpose(0, 2, 1)
                sq = np.einsum("tk,xkl,tl->tx", eps.conj(), gram, eps).real
                # a nearly cancelling sum can round to a tiny negative square
                slices.append(np.sqrt(np.maximum(sq, 0.0) * cell))
            else:
                combo = eps @ self._physical(o)
                slices.append(((np.sum(np.abs(combo) ** q, axis=-1) * cell) ** (1.0 / q)).T)
        return self._total(slices)

    def of_products(self, mults: list[np.ndarray], spec: np.ndarray) -> np.ndarray:
        """Norm of every product ``m_j * g_i``, shape ``(n_ops, n_in)``.

        ``mults`` are the :meth:`orders` stacks of the multipliers, ``spec``
        holds one spectrum per row.  For ``q = 2`` the slices of all pairs are
        one matmul ``cell * |m_j|^2 @ |g_i|^2``.
        """
        if self.q == 2:
            power = np.abs(spec.T) ** 2
            slices = [np.sqrt(self.grid.cell * (np.abs(m) ** 2 @ power)) for m in mults]
            return self._total([s.transpose(1, 2, 0) for s in slices])
        eye = np.eye(len(spec))
        n_ops = mults[0].shape[1]
        return np.stack([self.of_sums([m[:, j, None] * spec for m in mults], eye) for j in range(n_ops)])


def _spectra(fields: Sequence, grid: TangentialGrid) -> np.ndarray:
    """One transform of every field: spectra laid out ``(n, modes, M)``, ``M = 1`` on the boundary."""
    spec = _tfft(np.stack([f.samples for f in fields], axis=-1), grid.dim)
    return spec.reshape(math.prod(grid.shape), -1, len(fields)).transpose(2, 0, 1)


def field_norm(f, spec: NormSpec) -> float:
    """Evaluate the norm described by ``spec`` on a field: the stack engine on one summand."""
    form = _StackNorm.on(f, spec)
    return float(form.of_sums(form.orders(_spectra([f], form.grid)), np.ones((1, 1)))[0])
