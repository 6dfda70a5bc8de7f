"""Grids, sectors, bracket weights, and the field containers shared by every module.

The tangential variable lives on a periodic box of side ``L`` sampled at ``N``
points per axis, so Fourier multipliers act exactly on the discrete modes.  The
normal variable lives on a geometrically graded grid on ``[0, X_max]``: kernels
decay on the scale of an inverse bracket weight, so nodes cluster at the
boundary.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


class SectorError(ValueError):
    """Raised when a spectral parameter falls outside the admissible sector."""


@dataclass(frozen=True)
class Sector:
    """Open angular region ``alpha < arg(mu) < beta`` of the punctured plane.

    ``beta - alpha`` may not exceed a full turn.  The designated empty sector
    (``Sector.empty()``) contains no parameter at all; operations taking an
    optional parameter accept "no parameter" exactly when their sector is empty.
    """

    alpha: float = 0.0
    beta: float = 0.0
    is_empty: bool = False

    def __post_init__(self) -> None:
        if self.is_empty:
            return
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got ({self.alpha}, {self.beta})")
        if self.beta - self.alpha > TWO_PI + 1e-12:
            raise ValueError("sector opening exceeds a full turn")

    @classmethod
    def empty(cls) -> "Sector":
        return cls(0.0, 0.0, is_empty=True)

    @classmethod
    def symmetric(cls, half_angle: float) -> "Sector":
        """Sector ``|arg(mu)| < half_angle`` around the positive real axis."""
        return cls(-half_angle, half_angle)

    def contains(self, mu: complex) -> bool:
        if self.is_empty or mu == 0:
            return False
        # the turn of arg(mu) at or just above alpha, whatever turn alpha is on
        return 0.0 < (cmath.phase(mu) - self.alpha) % TWO_PI < self.beta - self.alpha

    def require(self, mu) -> complex | None:
        """The one admissibility check: ``complex(mu)`` for ``mu`` inside the sector.

        A missing ``mu`` is admissible exactly when the sector is empty, and
        then ``None`` comes back.  Any other ``mu`` outside the sector, the
        origin included, raises :class:`SectorError`.
        """
        if mu is None:
            if not self.is_empty:
                raise SectorError("spectral parameter required for a nonempty sector")
            return None
        if self.is_empty:
            raise SectorError(f"mu={mu} given to the empty sector, which admits no spectral parameter")
        if not self.contains(mu):
            raise SectorError(f"mu={mu} outside the admissible sector")
        return complex(mu)


def _xi_sq(xi) -> np.ndarray:
    """``|xi|^2`` over the last axis of ``xi``; a bare scalar is one component."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        return arr * arr
    return np.sum(arr * arr, axis=-1)


def bracket(xi, mu=None) -> np.ndarray:
    """Parameter-dependent elliptic weight ``<xi, mu> = (1 + |xi|^2 + |mu|^2)^(1/2)``, always >= 1.

    Evaluator convention: the last axis of ``xi`` holds the components (a
    scalar is one component), ``mu`` is complex and broadcasts against the
    leading axes of ``xi``, and an absent ``mu`` contributes nothing.
    """
    mu_sq = 0.0 if mu is None else np.abs(mu) ** 2
    return np.sqrt(1.0 + _xi_sq(xi) + mu_sq)


@dataclass(frozen=True)
class TangentialGrid:
    """Uniform periodic grid on a torus of side ``L`` in ``dim`` axes.

    Frequencies are ``2*pi*k/L`` for ``k in {-N/2, ..., N/2 - 1}`` per axis,
    stored in FFT layout.  ``N`` must be a power of two, and the cell
    ``(L/N)^dim`` positive and finite.
    """

    dim: int
    N: int
    L: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.N < 2 or self.N & (self.N - 1) != 0:
            raise ValueError(f"N must be a power of two, got {self.N}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        try:
            cell = self.cell
        except OverflowError:  # a float power raises where it overflows
            cell = math.inf
        if not 0 < cell < math.inf:
            raise ValueError(
                f"cell (L/N)^dim must be positive and finite, got {cell} at L={self.L}, N={self.N}, dim={self.dim}"
            )
        try:
            top = self.dim * self.nyquist**2
        except OverflowError:
            top = math.inf
        if not top < math.inf:  # every kernel and weight reads the frequencies through |xi|^2
            raise ValueError(f"|xi|^2 must be finite, got {top} at L={self.L}, N={self.N}, dim={self.dim}")

    @property
    def cell(self) -> float:
        """Cell measure (L/N)^dim of one sample."""
        return (self.L / self.N) ** self.dim

    @property
    def nyquist(self) -> float:
        return math.pi * self.N / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.dim

    @cached_property
    def freqs_1d(self) -> np.ndarray:
        """Per-axis frequencies in FFT order."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        return TWO_PI * k / self.L

    @cached_property
    def freq_vectors(self) -> np.ndarray:
        """Array of shape ``shape + (dim,)`` with the frequency vector at each mode."""
        axes = np.meshgrid(*([self.freqs_1d] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_property
    def freq_norm_sq(self) -> np.ndarray:
        return _xi_sq(self.freq_vectors)

    @cached_property
    def radial(self) -> tuple[np.ndarray, np.ndarray]:
        """``(reps, inverse)``: one frequency vector per distinct ``freq_norm_sq`` value.

        ``reps`` has shape ``(K, dim)``, ordered by increasing ``|xi|^2``;
        ``inverse`` (shape ``shape``) indexes the representative of every mode,
        so ``_xi_sq(reps)[inverse] == freq_norm_sq`` bit for bit.  A radial
        symbol evaluated at ``reps`` and gathered through ``inverse`` gives
        every mode the value it gets at its own frequency.
        """
        _, index, inverse = np.unique(self.freq_norm_sq.ravel(), return_index=True, return_inverse=True)
        return self.freq_vectors.reshape(-1, self.dim)[index], inverse.reshape(self.shape)

    @cached_property
    def _class_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, starts)``: the flattened modes sorted by radial class, and where each class begins."""
        inverse = self.radial[1].ravel()
        order = np.argsort(inverse, kind="stable")
        return order, np.searchsorted(inverse[order], np.arange(len(self.radial[0])))

    def class_sum(self, a: np.ndarray) -> np.ndarray:
        """``a`` summed over each radial class.

        The last axis of ``a`` runs over the flattened modes, the result's over
        the ``K`` classes of :attr:`radial`.
        """
        order, starts = self._class_runs
        return np.add.reduceat(a[..., order], starts, axis=-1)

    @cached_property
    def points_1d(self) -> np.ndarray:
        return np.arange(self.N) * (self.L / self.N)


def _replicate(axis_samples: np.ndarray, grid: TangentialGrid) -> np.ndarray:
    """Samples of a function of the first tangential axis, constant along the other ``dim - 1``."""
    out = axis_samples
    for _ in range(grid.dim - 1):
        out = out[..., None] * np.ones(grid.N)
    return out


@dataclass(frozen=True)
class NormalGrid:
    """Graded grid ``0 = x_1 < ... < x_M <= X_max`` with trapezoid weights.

    Nodes follow ``x_j = X_max * (r^(j-1) - 1) / (r^(M-1) - 1)`` with ratio
    ``r > 1``, clustering toward the boundary.  A grading whose nodes
    overflow or are not strictly increasing is refused.
    """

    M: int
    X_max: float = 16.0
    r: float = 1.05

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not 1 < self.r < math.inf:
            raise ValueError(f"grading ratio must exceed 1 and be finite, got {self.r}")
        if not 0 < self.X_max < math.inf:
            raise ValueError(f"X_max must be positive and finite, got {self.X_max}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = self.nodes
        except OverflowError:  # math.expm1 raises where it overflows
            nodes = np.array([math.inf])
        if not (np.isfinite(nodes[-1]) and np.all(np.diff(nodes) > 0)):
            raise ValueError(
                f"graded nodes overflow or are not strictly increasing at M={self.M}, r={self.r}, X_max={self.X_max}"
            )

    @cached_property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.M)
        # expm1 keeps the small-node end accurate for r close to 1
        return self.X_max * np.expm1(j * math.log(self.r)) / math.expm1(
            (self.M - 1) * math.log(self.r)
        )

    @cached_property
    def weights(self) -> np.ndarray:
        x = self.nodes
        w = np.empty_like(x)
        w[0] = (x[1] - x[0]) / 2.0
        w[-1] = (x[-1] - x[-2]) / 2.0
        w[1:-1] = (x[2:] - x[:-2]) / 2.0
        return w

    def integrate(self, values) -> np.ndarray:
        """Trapezoid sum ``sum_j w_j values[..., j]`` over the last axis, the products laid out in C order and
        summed pairwise, never by BLAS: the bits follow neither the layout of ``values`` nor the thread count."""
        return np.multiply(values, self.weights, order="C").sum(axis=-1)


@dataclass(frozen=True)
class BoundaryField:
    """Complex samples of a boundary function on a TangentialGrid."""

    grid: TangentialGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=complex).reshape(self.grid.shape)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def zero(cls, grid: TangentialGrid) -> "BoundaryField":
        return cls(grid, np.zeros(grid.shape, dtype=complex))


@dataclass(frozen=True)
class HalfSpaceField:
    """Complex samples on the product of a tangential and a normal grid.

    ``samples[..., j]`` is the tangential slice at normal node ``x_j``.
    """

    tangential: TangentialGrid
    normal: NormalGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        shape = self.tangential.shape + (self.normal.M,)
        arr = np.asarray(self.samples, dtype=complex).reshape(shape)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def zero(cls, tangential: TangentialGrid, normal: NormalGrid) -> "HalfSpaceField":
        return cls(tangential, normal, np.zeros(tangential.shape + (normal.M,), dtype=complex))

    def trace(self) -> BoundaryField:
        """Boundary trace (the slice at the node x_1 = 0)."""
        return BoundaryField(self.tangential, self.samples[..., 0].copy())


def make_grids(
    dim: int = 1,
    L: float = TWO_PI,
    N: int = 256,
    M: int = 256,
    X_max: float = 16.0,
    r: float = 1.05,
) -> tuple[TangentialGrid, NormalGrid]:
    """Construct the tangential/normal grid pair used throughout.

    Defaults match the desk-scale configuration: one tangential axis,
    256 modes on a box of side 2*pi, 256 graded normal nodes up to 16.
    """
    return TangentialGrid(dim, N, L), NormalGrid(M, X_max, r)
