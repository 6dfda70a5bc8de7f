"""Reference code for the tests: the model problems' boundary symbols, a frozen kernel, the inverse transform.

Per mode, each model problem maps its boundary data to ``v^ = b(xi, mu) g^ / mu^2``.
``heat_dynbc_b`` and ``ch_b`` are that ``b`` as plain ``(xi, mu) -> array``
functions, and ``kpp_m2(d, dprime, kcoef)`` builds the road-field one; the last
axis of ``xi`` holds the frequency components.  The resolvent and
``boundary_symbol_gain`` are checked against them.
"""
from __future__ import annotations

import math

import numpy as np

from poissonops.core import BoundaryField, Sector, TangentialGrid, _xi_sq
from poissonops.symbols import SymbolKernel, _ch_symbol, _road_symbol, _tau
from poissonops.transforms import _itfft


def heat_dynbc_b(xi, mu):
    """Heat boundary symbol ``mu^2 / (mu^2 + tau)``."""
    mu2 = np.asarray(mu, dtype=complex) ** 2
    return mu2 / (mu2 + _tau(xi, mu))


def ch_b(xi, mu):
    """Cahn-Hilliard boundary symbol ``num / den`` of ``symbols._ch_symbol``."""
    num, den = _ch_symbol(_xi_sq(xi), mu)
    return num / den


def kpp_m2(d: float = 1.0, dprime: float = 1.0, kcoef: float = 1.0):
    """Road-field symbol sending road data to the road density: ``mu^2 root / den`` of ``symbols._road_symbol``."""

    def m2(xi, mu):
        mu2 = np.asarray(mu, dtype=complex) ** 2
        den, root = _road_symbol(_xi_sq(xi), mu2, d, dprime, kcoef)
        return mu2 * root / den

    return m2


def freeze_mu(k: SymbolKernel, mu: complex, kind: str | None = None) -> SymbolKernel:
    """Freeze the spectral parameter, yielding a kernel with the empty sector.

    The frozen kernel ignores its (absent) parameter and forwards ``func``
    and ``rate`` of ``k`` at ``mu``; bracket weights in its seminorms then
    involve the frequency alone.  ``kind`` optionally relabels the claimed
    class of the frozen family.
    """
    if k.sector.require(mu) is None:
        raise ValueError(f"kernel {k.name!r} has the empty sector: no parameter to freeze")

    def frozen(hook):
        return None if hook is None else lambda xi, _mu, *rest: hook(xi, mu, *rest)

    return SymbolKernel(
        name=f"{k.name}@{mu:.6g}",
        order=k.order,
        kind=kind or k.kind,
        sector=Sector.empty(),
        func=frozen(k.func),
        rate=frozen(k.rate),
    )


def inverse_fft(spec: np.ndarray, grid: TangentialGrid) -> BoundaryField:
    """Inverse of ``transforms.forward_fft``."""
    return BoundaryField(grid=grid, samples=_itfft(spec, grid.dim) / math.sqrt(grid.cell))
