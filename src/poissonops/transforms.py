"""FFT application of Poisson operators; dyadic block splitting.

The discrete transform convention is unitary with cell-measure factors, so the
spectral array of a field carries its physical L^2 norm: Plancherel holds with
quadrature-consistent norms.  Poisson application is diagonal per frequency
mode, hence exact on the discrete torus.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid
from .symbols import SymbolKernel

__all__ = [
    "LPPartition",
    "forward_fft",
    "apply_poisson",
    "lp_blocks",
]


def _tfft(a: np.ndarray, dim: int) -> np.ndarray:
    """Unscaled orthonormal FFT over the first ``dim`` (tangential) axes of ``a``."""
    return np.fft.fftn(a, axes=tuple(range(dim)), norm="ortho")


def _itfft(a: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`_tfft`; trailing (normal) axes are left alone."""
    return np.fft.ifftn(a, axes=tuple(range(dim)), norm="ortho")


def forward_fft(g: BoundaryField) -> np.ndarray:
    """Spectral array of ``g``; unitary FFT scaled so Plancherel is physical."""
    return _tfft(g.samples, g.grid.dim) * math.sqrt(g.grid.cell)


def _decay_profile(rates: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``exp(-r x_n)`` of each decay rate ``r`` over the normal ``nodes``, on a new last axis.

    Where no rate has an imaginary part (a heat or kpp rate at a real ``mu``)
    it is one real exponential, float64, within an ulp of the real part of the
    complex one; otherwise it is the complex ``exp`` that ``func`` takes, bit for bit.
    A finite rate component whose product with the last node overflows is
    refused by its size, from one scalar bound taken before the product (an
    infinite one is left to the caller's finiteness checks).
    """
    real = np.iscomplexobj(rates) and not rates.imag.any()
    rates = rates.real if real else rates
    # r x_n forms each component of r times x_n, so its largest one is top * x_M (a Python float: no warning)
    parts = (rates.real, rates.imag) if np.iscomplexobj(rates) else (rates,)
    top = max(float(np.max(np.abs(part), where=np.isfinite(part), initial=0.0)) for part in parts)
    x_max = float(nodes[-1])
    if top * x_max > sys.float_info.max:
        raise ValueError(f"the decay profile overflows: a rate component of {top!r} times x_n up to {x_max!r}")
    return np.exp(-rates[..., None] * nodes)


def _radial_profile(k: SymbolKernel, mu, grid: TangentialGrid, normal: NormalGrid) -> np.ndarray:
    """Kernel profile ``k(xi, mu; x_j)`` of every radial class, shape ``(K, M)``.

    The kernel is radial, so it is evaluated once per distinct ``|xi|^2``, at
    the representatives ``grid.radial[0]``; ``mu`` is not checked here.  A
    decay kernel reads its ``rate`` once, and its profile is
    :func:`_decay_profile`'s, float64 at a real rate.  A kernel without a rate
    is evaluated by ``func`` and stored complex.
    """
    reps = grid.radial[0]
    if k.rate is None:
        return np.asarray(k.func(reps[:, None, :], mu, normal.nodes), dtype=complex)
    return _decay_profile(k.rate(reps, mu), normal.nodes)


def _profile(k: SymbolKernel, mu, grid: TangentialGrid, normal: NormalGrid) -> np.ndarray:
    """Kernel profile ``k(xi, mu; x_j)`` of every mode, the normal nodes on a new last axis.

    This is the Poisson operator's spectral multiplier: the class profile of
    :func:`_radial_profile` gathered back to the modes, in its dtype.
    """
    return _radial_profile(k, mu, grid, normal)[grid.radial[1]]


def apply_poisson(k: SymbolKernel, mu, g: BoundaryField, normal: NormalGrid) -> HalfSpaceField:
    """Extend boundary data into the half space through the kernel ``k``.

    Per normal node the kernel acts as a tangential multiplier on the spectrum
    of ``g``, so single Fourier modes map through exactly.
    """
    k.sector.require(mu)
    grid = g.grid
    spec = _profile(k, mu, grid, normal) * _tfft(g.samples, grid.dim)[..., None]
    return HalfSpaceField(tangential=grid, normal=normal, samples=_itfft(spec, grid.dim))


@dataclass(frozen=True)
class LPPartition:
    """Dyadic partition of unity on the frequency grid.

    The radial profile is a quintic smoothstep in ``log2 |xi|``: identically 1
    up to ``|xi| = 1``, identically 0 from ``|xi| = 2``.  Blocks telescope, so
    they sum to 1 at every grid frequency once ``J`` covers the grid corner.
    """

    grid: TangentialGrid
    J: int

    @classmethod
    def for_grid(cls, grid: TangentialGrid) -> "LPPartition":
        corner = math.sqrt(grid.dim) * grid.nyquist
        J = max(0, math.ceil(math.log2(corner))) if corner > 1 else 0
        return cls(grid=grid, J=J)

    @staticmethod
    def profile(r) -> np.ndarray:
        """Radial cutoff: 1 for r <= 1, quintic smoothstep down to 0 at r = 2."""
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        out[r >= 2.0] = 0.0
        mid = (r > 1.0) & (r < 2.0)
        u = np.log2(r[mid])
        out[mid] = 1.0 - (6.0 * u**5 - 15.0 * u**4 + 10.0 * u**3)
        return out

    def block_weight(self, j: int, r) -> np.ndarray:
        """Spectral weight of block ``j`` at radius ``r``; equals 1 at r = 2^j."""
        if j == 0:
            return self.profile(r)
        return self.profile(np.asarray(r) / 2.0**j) - self.profile(np.asarray(r) / 2.0 ** (j - 1))


def lp_blocks(g: BoundaryField, part: LPPartition | None = None) -> list[BoundaryField]:
    """Dyadic frequency blocks of ``g``; they sum back to ``g`` exactly."""
    part = part or LPPartition.for_grid(g.grid)
    r = np.sqrt(g.grid.freq_norm_sq)
    spec = _tfft(g.samples, g.grid.dim)
    blocks = []
    for j in range(part.J + 1):
        w = part.block_weight(j, r)
        samples = _itfft(w * spec, g.grid.dim)
        blocks.append(BoundaryField(grid=g.grid, samples=samples))
    return blocks
