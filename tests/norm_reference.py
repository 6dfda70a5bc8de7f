"""Physical reference norms: one quadrature per family on the field's samples.

These evaluate every ``NormSpec`` family one field at a time, on physical
grid values: tangential L^q per normal slice, then the (weak) L^p across
slices, with Besov blocks split off by ``lp_blocks``; the Bessel norm is
its spectral definition.  The package's stack engine, which measures every
family on tangential spectra, is checked against them.
"""
from __future__ import annotations

import numpy as np

from poissonops.core import HalfSpaceField
from poissonops.norms import NormSpec, _weak_lp, lp_norm, normal_derivative
from poissonops.transforms import forward_fft, lp_blocks


def _slice_then_normal(samples: np.ndarray, u: HalfSpaceField, p: float, q: float, weak: bool) -> float:
    """Tangential L^q per normal slice, then (weak) L^p against node weights."""
    tan_axes = tuple(range(u.tangential.dim))
    slices = (np.sum(np.abs(samples) ** q, axis=tan_axes) * u.tangential.cell) ** (1.0 / q)
    w = u.normal.weights
    return float(_weak_lp(slices, w, p) if weak else np.sum(slices**p * w) ** (1.0 / p))


def mixed_norm(u: HalfSpaceField, p: float, q: float, m: int, weak: bool) -> float:
    total = 0.0
    for l in range(m + 1):
        d = u.samples if l == 0 else normal_derivative(u.samples, u.normal, l)
        total += _slice_then_normal(d, u, p, q, weak)
    return total


def besov_norm(g, s: float, p: float, q: float) -> float:
    acc = 0.0
    for j, b in enumerate(lp_blocks(g)):
        acc += (2.0 ** (j * s) * lp_norm(b, p)) ** q
    return float(acc ** (1.0 / q))


def tot_char_norm(u: HalfSpaceField, s: int, p: float, q: float, weak: bool) -> float:
    total = 0.0
    v = np.asarray(u.samples, dtype=complex)
    for l in range(s + 1):
        if l > 0:
            v = u.normal.nodes * normal_derivative(v, u.normal, 1)
        total += _slice_then_normal(v, u, p, q, weak)
    return total


def bessel2_norm(g, s: float) -> float:
    w = (1.0 + g.grid.freq_norm_sq) ** (0.5 * s)
    return float(np.sqrt(np.sum(np.abs(w * forward_fft(g)) ** 2)))


def ref_field_norm(f, spec: NormSpec) -> float:
    """The norm ``spec`` of ``f`` by its per-family physical quadrature."""
    if spec.family == "Lp":
        return lp_norm(f, spec.p)
    if spec.family == "WeakLp":
        return mixed_norm(f, spec.p, spec.q, 0, True)
    if spec.family == "Mixed":
        return mixed_norm(f, spec.p, spec.q, spec.m, spec.weak)
    if spec.family == "Besov":
        return besov_norm(f, spec.s, spec.p, spec.q)
    if spec.family == "TotChar":
        return tot_char_norm(f, int(spec.s), spec.p, spec.q, spec.weak)
    return bessel2_norm(f, spec.s)


def is_hilbert(spec: NormSpec) -> bool:
    """Whether ``E ||sum_k eps_k x_k||^2 = sum_k ||x_k||^2`` holds for Steinhaus signs in ``spec``."""
    if spec.family in ("Lp", "Bessel2"):
        return spec.p == 2
    if spec.family == "Besov":
        return spec.p == spec.q == 2
    no_derivative = spec.m == spec.s == 0
    return spec.family in ("Mixed", "TotChar") and spec.p == spec.q == 2 and no_derivative and not spec.weak


def transposed_view(a: np.ndarray) -> np.ndarray:
    """Equal values, laid out with the first two axes swapped: neither C- nor (in 3-d) F-ordered.

    An array of fewer than two axes comes back as it is.
    """
    if a.ndim < 2:
        return a
    return np.ascontiguousarray(np.swapaxes(a, 0, 1)).swapaxes(0, 1)


def reversed_view(a: np.ndarray) -> np.ndarray:
    """Equal values, laid out backwards along every axis: negative strides, also in 1-d."""
    flip = (slice(None, None, -1),) * a.ndim
    return np.ascontiguousarray(a[flip])[flip]


# other memory layouts of the same values, for the layout-invariance checks
RELAYOUTS = [np.asfortranarray, transposed_view, reversed_view]
