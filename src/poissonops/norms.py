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
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid, _xi_sq, bracket
from .symbols import SymbolKernel
from .transforms import LPPartition, _decay_profile, _itfft, _tfft

__all__ = [
    "NormSpec",
    "lp_norm",
    "weak_lp_norm",
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
    return float(f.normal.integrate(total) ** (1.0 / p))


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
    return float(_weak_lp(v, m, p))


def _weak_lp(values: np.ndarray, measures: np.ndarray, p: float) -> np.ndarray:
    """Weak L^p along the last axis against ``measures``, batched over leading axes.

    Sorts each row descending and takes ``max_k v_k M_k^{1/p}`` as
    :func:`weak_lp_norm` does; a 1-D row gives the single-field value.
    """
    order = np.argsort(values, axis=-1)[..., ::-1]
    cum = np.cumsum(measures[order], axis=-1)
    return np.max(np.take_along_axis(values, order, axis=-1) * cum ** (1.0 / p), axis=-1)


def _derivative_stencil(ngrid: NormalGrid) -> tuple[np.ndarray, np.ndarray]:
    """``(coef, start)``: row ``j`` of the first-derivative stencil weighs node ``start[j] + a`` by ``coef[a, j]``.

    Three-point stencils (``a = 0, 1, 2``) adapted to the nonuniform spacing,
    centred on the interior nodes (``start[j] = j - 1``) and one-sided at the
    endpoints (``start`` 0 and ``M - 3``); ``coef`` is ``(3, M)``.
    """
    if ngrid.M < 3:
        raise ValueError(f"normal derivatives need at least three normal nodes, got M={ngrid.M}")
    x = ngrid.nodes
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    a1, a2 = x[1] - x[0], x[2] - x[1]
    b1, b2 = x[-2] - x[-3], x[-1] - x[-2]
    coef = np.empty((3, ngrid.M))
    coef[:, 0] = -(2 * a1 + a2) / (a1 * (a1 + a2)), (a1 + a2) / (a1 * a2), -(a1 / (a2 * (a1 + a2)))
    coef[0, 1:-1] = -h2 / (h1 * (h1 + h2))
    coef[1, 1:-1] = (h2 - h1) / (h1 * h2)
    coef[2, 1:-1] = h1 / (h2 * (h1 + h2))
    coef[:, -1] = b2 / (b1 * (b1 + b2)), -((b1 + b2) / (b1 * b2)), (b1 + 2 * b2) / (b2 * (b1 + b2))
    return coef, np.clip(np.arange(ngrid.M) - 1, 0, ngrid.M - 3)


def normal_derivative(values: np.ndarray, ngrid: NormalGrid, order: int = 1) -> np.ndarray:
    """Normal-direction derivative on the graded grid, last axis, iterated.

    The three-point stencils of :func:`_derivative_stencil`, one-sided at the
    endpoints; second-order accurate, which the >= 1% norm tolerances absorb.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    (cm, c0, cp), start = _derivative_stencil(ngrid)
    out = np.asarray(values, dtype=complex)
    for _ in range(order):
        d = np.empty_like(out)
        d[..., 1:-1] = cm[1:-1] * out[..., :-2] + c0[1:-1] * out[..., 1:-1] + cp[1:-1] * out[..., 2:]
        for j in (0, -1):
            s = start[j]
            d[..., j] = cm[j] * out[..., s] + c0[j] * out[..., s + 1] + cp[j] * out[..., s + 2]
        out = d
    return out


def opnorm_hilbert(
    k: SymbolKernel,
    mu,
    s: float,
    t: float,
    grid: TangentialGrid,
    ngrid: NormalGrid,
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

    Every term depends on ``xi`` only through ``|xi|^2`` (the kernel is
    radial), so the supremum is taken over the distinct ``|xi|^2`` of the
    grid, one representative frequency each.  A decay kernel, one with a
    ``rate`` ``r``, takes one real exponential per ``mu``: the order-``n``
    norm is ``|r|^n`` times the order-0 one, whose square sums the decay
    profile of the real rate ``2 Re(r)``.  Any other kernel squares ``func``
    at the derivative order.
    """
    if t < 0:
        raise ValueError("target smoothness t must be nonnegative")
    k.sector.require(mu)
    reps = grid.radial[0]
    if k.rate is None:
        fv = reps[:, None, :]

        def l2_of(order):
            return np.sqrt(ngrid.integrate(np.abs(k.func(fv, mu, ngrid.nodes, order)) ** 2))

    else:
        r = k.rate(reps, mu)
        decay = np.sqrt(ngrid.integrate(_decay_profile(2.0 * np.real(r), ngrid.nodes)))

        def l2_of(order):
            return np.abs(r) ** order * decay

    l2 = l2_of(0)
    bxi = bracket(reps)
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
    """A :class:`NormSpec` norm of sign sums ``sum_k eps_k O_k`` of spectral arrays, every sign row at once.

    Every norm is an outer l^r sum over terms, each term the normal (weak)
    L^p of the tangential L^q slices of one stack.  Lp and WeakLp have one
    term; Mixed sums the normal derivatives up to ``m`` and TotChar the
    iterated ``x_n d/dx_n`` up to ``s``; Besov takes the ``2^{js}``-weighted
    dyadic blocks of the spectrum with tangential exponent ``p`` and outer
    ``l^q``; Bessel2 is the one term ``<xi>^s`` times the spectrum.

    A stack is laid out ``(M, size, modes)``: normal nodes first (``M = 1``
    on the boundary), then the summands, then the flattened modes of the
    unscaled orthonormal tangential transform.  Signs are real (Rademacher
    ``+-1``), so for tangential ``q = 2`` each slice is the real Gram form
    ``cell * eps^T G[x] eps`` with ``G[x] = Re(conj(O_x) O_x^T) = v_x v_x^T``,
    ``v`` the float view of the stack (Plancherel); any other ``q`` transforms
    the stack back once and forms every sign row in one matmul.

    A ``radial`` form measures products of radial multipliers with spectra
    (:class:`_Products`): its stacks run over the ``K`` radial classes of
    ``grid.radial`` instead of the modes, and its term weights are evaluated
    at the class representatives.
    """

    def __init__(self, spec: NormSpec, grid: TangentialGrid, normal: NormalGrid | None, radial: bool = False) -> None:
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
        self.term_weights = []  # spectral weight of each term, on the flattened modes or the radial classes
        if family in _BOUNDARY:
            xi = grid.radial[0] if radial else grid.freq_vectors.reshape(-1, grid.dim)
        if family == "Besov":
            part = LPPartition.for_grid(grid)
            radius = np.sqrt(_xi_sq(xi))
            self.term_weights = [2.0 ** (j * spec.s) * part.block_weight(j, radius) for j in range(part.J + 1)]
        elif family == "Bessel2":
            self.term_weights = [bracket(xi) ** spec.s]
        # the mean square of a sign sum is then exactly the sum of squares
        one_term = self.steps == 0 and len(self.term_weights) <= 1
        self.hilbert = (one_term or self.r == 2) and self.q == 2 and self.p == 2 and not self.weak

    @classmethod
    def on(cls, f, spec: NormSpec) -> "_StackNorm":
        """The form of ``spec`` on the grids of the field ``f``."""
        if isinstance(f, HalfSpaceField):
            return cls(spec, f.tangential, f.normal)
        return cls(spec, f.grid, None)

    def terms(self, a: np.ndarray) -> list[np.ndarray]:
        """The terms of ``a``, laid out as ``a`` is: ``(size, n, M)``, ``n`` the modes or the radial classes."""
        terms = [w[:, None] * a for w in self.term_weights] or [a]
        for _ in range(self.steps):
            d = normal_derivative(terms[-1], self.normal, 1)
            terms.append(self.normal.nodes * d if self.family == "TotChar" else d)
        return terms

    def orders(self, a: np.ndarray) -> list[np.ndarray]:
        """The term stacks of ``a``, which is laid out ``(size, modes, M)``."""
        return [_stack(t) for t in self.terms(a)]

    def _total(self, slices: list[np.ndarray]) -> np.ndarray:
        """Normal (weak) L^p of each term's slices, shaped ``(..., M)``, then l^r over the terms."""
        if self.normal is None:
            terms = [s[..., 0] for s in slices]
        elif self.weak:
            terms = [_weak_lp(s, self.normal.weights, self.p) for s in slices]
        else:
            terms = [self.normal.integrate(s**self.p) ** (1.0 / self.p) for s in slices]
        return sum(t**self.r for t in terms) ** (1.0 / self.r)

    def _physical(self, o: np.ndarray) -> np.ndarray:
        a = np.moveaxis(o.reshape(o.shape[:2] + self.grid.shape), (0, 1), (-2, -1))
        return np.moveaxis(_itfft(a, self.grid.dim), (-2, -1), (0, 1)).reshape(o.shape)

    def of_sums(self, stacks: list[np.ndarray], eps: np.ndarray) -> np.ndarray:
        """Norm of ``sum_k eps[t, k] O_k`` for every real sign row ``t``, from the stacks of :meth:`orders`."""
        cell, q = self.grid.cell, self.q
        slices = []
        for o in stacks:
            if q == 2:
                v = o.view(float)  # real and imaginary parts side by side: v @ v^T is Re(conj(o) o^T)
                slices.append(self._gram_slices(v @ v.transpose(0, 2, 1), eps))
            else:
                combo = eps @ self._physical(o)
                slices.append(((np.sum(np.abs(combo) ** q, axis=-1) * cell) ** (1.0 / q)).T)
        return self._total(slices)

    def _gram_slices(self, gram: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Tangential L^2 slice ``(cell eps^T G[x] eps)^(1/2)`` of every sign row and node, shape ``(rows, M)``.

        ``gram`` is the real Gram ``(M, size, size)`` and ``eps`` holds real signs, ``(rows, size)``.
        """
        signs = (eps[:, :, None] * eps[:, None, :]).reshape(len(eps), -1)
        sq = signs @ gram.reshape(len(gram), -1).T
        # a nearly cancelling sum can round to a tiny negative square
        return np.sqrt(np.maximum(sq, 0.0) * self.grid.cell)


class _Products:
    """The products ``m_j * g_i`` of radial multipliers with spectra, measured by one radial :class:`_StackNorm`.

    ``mults`` holds the class profile of each multiplier, laid out
    ``(n_ops, K, M)`` (``M = 1`` on the boundary), and ``spec`` one spectrum
    per row, ``(n_in, modes)``.  No product stack is formed for tangential
    ``q = 2``: with ``P[i, r] = sum_{xi in r} |g_i(xi)|^2`` the singleton
    slices are one matmul ``cell P @ |m_j|^2``, and a sign sum of summands
    ``(j_k, i_k)`` has the real Gram matrix
    ``G[x, k, l] = Re(H[k, l] @ Q[j_k, j_l][:, x])`` with
    ``H[k, l, r] = sum_{xi in r} conj(g_{i_k}) g_{i_l}`` and the pair product
    ``Q[j, j'] = conj(m_j) m_j'``, ``(K, M)`` per pair.  The pair tables hold
    ``Re Q`` as one real matrix per pair, built on the first sampled sum for
    ``j <= j'`` only (``G`` is symmetric): ``Q`` itself, ``(K, M)``, for a real
    term, and for a complex one the rows ``Re Q[r]`` and ``-Im Q[r]``
    interleaved, ``(2K, M)``, which meet the float view of ``H``.  Either way
    a Gram entry is one real product.  Any other ``q`` gathers the class
    profiles to the modes and measures the products as stacks.
    """

    def __init__(self, form: _StackNorm, mults: np.ndarray, spec: np.ndarray) -> None:
        self.form, self.spec = form, spec
        self.mults = form.terms(mults)

    def singles(self) -> np.ndarray:
        """Norm of every product ``m_j * g_i``, shape ``(n_ops, n_in)``."""
        form, n_in = self.form, len(self.spec)
        if form.q != 2:
            sel_in, eye = np.arange(n_in), np.eye(n_in)
            return np.stack([self.of_sums(np.full(n_in, j), sel_in, eye) for j in range(len(self.mults[0]))])
        power = form.grid.class_sum(np.abs(self.spec) ** 2)
        return form._total([np.sqrt(form.grid.cell * (power @ np.abs(m) ** 2)) for m in self.mults])

    def of_sums(self, sel_ops: np.ndarray, sel_in: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Norm of ``sum_k eps[t, k] m_{sel_ops[k]} g_{sel_in[k]}`` for every real sign row ``t``."""
        form, g = self.form, self.spec[sel_in]
        if form.q != 2:
            inverse = form.grid.radial[1].ravel()
            return form.of_sums([_stack(m[sel_ops[:, None], inverse] * g[..., None]) for m in self.mults], eps)
        h = form.grid.class_sum(g.conj()[:, None] * g[None])
        size = len(sel_in)
        slices = []
        for interleaved, table in self._pairs:
            rows = h.view(float) if interleaved else np.ascontiguousarray(h.real)
            gram = np.empty((self.mults[0].shape[-1], size, size))
            for k in range(size):
                for l in range(k, size):
                    a, b = (k, l) if sel_ops[k] <= sel_ops[l] else (l, k)
                    gram[:, k, l] = gram[:, l, k] = rows[a, b] @ table[sel_ops[a], sel_ops[b]]
            slices.append(form._gram_slices(gram, eps))
        return form._total(slices)

    @cached_property
    def _pairs(self) -> list[tuple[bool, dict]]:
        """Per term, whether it is complex (rows interleaved) and ``Re Q`` of every ``j <= j'``, keyed ``(j, j')``."""
        n_ops = len(self.mults[0])
        keys = [(j, jj) for j in range(n_ops) for jj in range(j, n_ops)]
        tables = []
        for m in self.mults:
            interleaved = np.iscomplexobj(m)
            K, M = m.shape[1:]
            # one block, filled in place: a copy of the family, freed on every
            # call, made each pass of an rbound scan fault in fresh pages
            table = np.empty((len(keys), 2 * K if interleaved else K, M))
            if interleaved:
                conj_q = np.empty((K, M), dtype=m.dtype)
            for row, (j, jj) in zip(table, keys):
                if interleaved:
                    np.conj(m[jj], out=conj_q)
                    conj_q *= m[j]  # conj(Q): its parts are Re Q and -Im Q
                    pairs = row.reshape(K, 2, M)
                    pairs[:, 0], pairs[:, 1] = conj_q.real, conj_q.imag
                else:
                    np.multiply(m[j], m[jj], out=row)
            tables.append((interleaved, dict(zip(keys, table))))
        return tables


def _stack(a: np.ndarray) -> np.ndarray:
    """A ``(size, n, M)`` array as the stack layout ``(M, size, n)``."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _spectra(fields: Sequence, grid: TangentialGrid) -> np.ndarray:
    """One transform of every field: spectra laid out ``(n, modes, M)``, ``M = 1`` on the boundary."""
    spec = _tfft(np.stack([f.samples for f in fields], axis=-1), grid.dim)
    return spec.reshape(math.prod(grid.shape), -1, len(fields)).transpose(2, 0, 1)


def field_norm(f, spec: NormSpec) -> float:
    """Evaluate the norm described by ``spec`` on a field: the stack engine on one summand."""
    form = _StackNorm.on(f, spec)
    return float(form.of_sums(form.orders(_spectra([f], form.grid)), np.ones((1, 1)))[0])
