"""Quadrature norms on grid fields and the Hilbert operator norm per mode.

Covers plain and weak L^p, mixed tangential/normal norms with normal
derivatives, dyadic-block boundary smoothness norms, totally characteristic
norms built from ``(x_n d/dx_n)`` derivatives, and the per-mode operator norm
of a Poisson operator between bracket-weighted L^2 spaces.  Weak integrability
always refers to the normal direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid, make_grids
from .symbols import SymbolKernel
from .transforms import LPPartition, _profile, forward_fft, lp_blocks

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


@dataclass(frozen=True)
class NormSpec:
    """Declarative norm choice; exponent/family compatibility is checked here.

    ``family`` picks the norm; ``p`` acts in the normal direction for mixed
    and totally characteristic norms (``weak`` replaces it by the Lorentz
    quasinorm there), ``q`` tangentially, ``s`` is smoothness, ``m`` a normal
    derivative budget.
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
        if self.family in ("WeakLp", "Mixed", "Besov") and not 1 < self.p < math.inf:
            raise ValueError(f"{self.family} requires p in (1, inf)")
        if self.family in ("Mixed", "Besov", "TotChar") and not 1 <= self.q < math.inf:
            raise ValueError(f"{self.family} requires q in [1, inf)")
        if self.family == "Mixed" and not 0 <= self.m <= 3:
            raise ValueError("Mixed requires derivative order m in 0..3")
        if self.family == "TotChar":
            if self.s != int(self.s) or not 0 <= self.s <= 3:
                raise ValueError("TotChar requires integer s in 0..3")
        if self.family == "Bessel2" and (self.p != 2 or self.q != 2):
            raise ValueError("Bessel2 is an L2-scale norm; p and q must be 2")
        if self.weak and self.family not in ("WeakLp", "Mixed", "TotChar"):
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


def _slice_then_normal(samples: np.ndarray, u: HalfSpaceField, p: float, q: float, weak: bool) -> float:
    """Tangential L^q per normal slice, then (weak) L^p against node weights."""
    tan_axes = tuple(range(u.tangential.dim))
    slices = (np.sum(np.abs(samples) ** q, axis=tan_axes) * u.tangential.cell) ** (1.0 / q)
    return float(_normal_lp(slices, u.normal.weights, p, weak))


def mixed_norm(u: HalfSpaceField, p: float, q: float, m: int = 0, weak: bool = False) -> float:
    """Sum over derivative orders up to ``m`` of normal-then-tangential norms.

    Each term takes the tangential L^q of the order-``l`` normal derivative on
    every slice, then the (weak) L^p of that profile in the normal direction.
    """
    if not 0 <= m <= 3:
        raise ValueError("derivative budget m must lie in 0..3")
    if not 1 <= q < math.inf:
        raise ValueError(f"need 1 <= q < inf, got q={q}")
    if not 1 <= p < math.inf:
        raise ValueError(f"need 1 <= p < inf, got p={p}")
    total = 0.0
    for l in range(m + 1):
        d = u.samples if l == 0 else normal_derivative(u.samples, u.normal, l)
        total += _slice_then_normal(d, u, p, q, weak)
    return total


def besov_norm(g: BoundaryField, s: float, p: float, q: float, part: LPPartition | None = None) -> float:
    """Dyadic-block smoothness norm ``(sum_j 2^{jsq} ||block_j||_p^q)^{1/q}``."""
    if not 1 < p < math.inf:
        raise ValueError(f"need 1 < p < inf, got {p}")
    if not 1 <= q < math.inf:
        raise ValueError(f"need 1 <= q < inf, got {q}")
    blocks = lp_blocks(g, part)
    acc = 0.0
    for j, b in enumerate(blocks):
        acc += (2.0 ** (j * s) * lp_norm(b, p)) ** q
    return float(acc ** (1.0 / q))


def tot_char_norm(u: HalfSpaceField, s: int, p: float, q: float, weak: bool = False) -> float:
    """Totally characteristic norm: ``(x_n d/dx_n)`` derivatives up to ``s``.

    Order ``s = 0`` coincides with ``mixed_norm(u, p, q, 0, weak)``.
    """
    if not 0 <= s <= 3:
        raise ValueError("derivative budget s must lie in 0..3")
    total = 0.0
    v = np.asarray(u.samples, dtype=complex)
    for l in range(s + 1):
        if l > 0:
            v = u.normal.nodes * normal_derivative(v, u.normal, 1)
        total += _slice_then_normal(v, u, p, q, weak)
    return total


def bessel2_norm(g: BoundaryField, s: float) -> float:
    """Bracket-weighted spectral L^2 norm ``||<xi>^s g^||_2`` of boundary data."""
    spec = forward_fft(g)
    w = (1.0 + g.grid.freq_norm_sq) ** (0.5 * s)
    return float(np.sqrt(np.sum(np.abs(w * spec) ** 2)))


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
    """
    if t < 0:
        raise ValueError("target smoothness t must be nonnegative")
    k.sector.require(mu)
    if grid is None or ngrid is None:
        dg, dn = make_grids()
        grid = grid or dg
        ngrid = ngrid or dn
    fv = grid.freq_vectors[..., None, :]
    kv = _profile(k, mu, grid, ngrid)
    l2 = np.sqrt(np.sum(np.abs(kv) ** 2 * ngrid.weights, axis=-1))
    bxi = np.sqrt(1.0 + grid.freq_norm_sq)
    if t == 0:
        return float(np.max(bxi ** (-s) * l2))
    tc = math.ceil(t)
    if k.xn_derivative is not None:
        dv = np.asarray(k.xn_derivative(fv, mu, ngrid.nodes, tc), dtype=complex)
    else:
        dv = normal_derivative(kv, ngrid, tc)
    l2d = np.sqrt(np.sum(np.abs(dv) ** 2 * ngrid.weights, axis=-1))
    if t == tc:
        surr = l2d
    else:
        theta = t / tc
        surr = l2 ** (1.0 - theta) * l2d**theta
    vals = bxi ** (-s) * np.sqrt(bxi ** (2.0 * t) * l2**2 + surr**2)
    return float(np.max(vals))


def _slice_form(spec: NormSpec) -> tuple[float, float, bool, int]:
    """``spec`` as ``(q, p, weak, m)``: tangential L^q slices, then (weak) L^p across them.

    The slices are taken of every normal derivative of order up to ``m``,
    and the terms are summed as in :func:`mixed_norm`; a boundary field is
    one slice.  Besov, totally characteristic and Bessel norms have no such
    form and raise ``ValueError``.
    """
    if spec.family == "Lp":
        return spec.p, spec.p, False, 0
    if spec.family == "WeakLp":
        return spec.q, spec.p, True, 0
    if spec.family == "Mixed":
        return spec.q, spec.p, spec.weak, spec.m
    raise ValueError(f"{spec.family} norms have no slice form")


def field_norm(f, spec: NormSpec, part: LPPartition | None = None) -> float:
    """Evaluate the norm described by ``spec`` on a field."""
    if spec.family == "Lp":
        return lp_norm(f, spec.p)
    if spec.family == "WeakLp":
        if not isinstance(f, HalfSpaceField):
            raise TypeError("weak integrability needs a half-space field")
        return mixed_norm(f, spec.p, spec.q, 0, weak=True)
    if spec.family == "Mixed":
        if not isinstance(f, HalfSpaceField):
            raise TypeError("mixed norms need a half-space field")
        return mixed_norm(f, spec.p, spec.q, spec.m, weak=spec.weak)
    if spec.family == "Besov":
        if not isinstance(f, BoundaryField):
            raise TypeError("dyadic-block norms apply to boundary fields")
        return besov_norm(f, spec.s, spec.p, spec.q, part)
    if spec.family == "TotChar":
        if not isinstance(f, HalfSpaceField):
            raise TypeError("totally characteristic norms need a half-space field")
        return tot_char_norm(f, int(spec.s), spec.p, spec.q, spec.weak)
    if not isinstance(f, BoundaryField):
        raise TypeError("Bessel-scale norms apply to boundary fields")
    return bessel2_norm(f, spec.s)
