"""Randomization tools: unit-modulus sign sums, R-bound search, decay fits.

An operator family is probed from below: random subsets act on random
dictionary inputs, the ratio of randomized output to input norms is maximized
over restarts, and the best observed ratio is a certified lower bound.  The
family is given as spectral multipliers, and sign sums are evaluated in
spectral space, every trial at once.  Decay claims are quantified by
least-squares slopes of log norm against the log bracket weight of the
spectral parameter.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import BoundaryField, NormalGrid, TangentialGrid, _replicate
from .norms import NormSpec, _spectra, _StackNorm

__all__ = [
    "RademacherSampler",
    "RBoundEstimate",
    "ScanResult",
    "eps_p_norm",
    "rbound_lower",
    "probe_dictionary",
]


@dataclass(frozen=True)
class RademacherSampler:
    """Deterministic source of uniform unit-modulus complex signs.

    Counter-based (Philox) keyed on ``(seed, stream)``: the same key always
    reproduces the same draws on any platform, and independent streams are
    split by changing ``stream`` without touching the seed.
    """

    seed: int
    stream: int = 0

    def with_stream(self, stream: int) -> "RademacherSampler":
        return RademacherSampler(seed=self.seed, stream=stream)

    def unit(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be at least 1")
        gen = np.random.Generator(np.random.Philox(key=[self.seed % 2**64, self.stream % 2**64]))
        angles = 2.0 * math.pi * gen.random(count)
        return np.exp(1j * angles)

    def integers(self, low: int, high: int, count: int) -> np.ndarray:
        gen = np.random.Generator(
            np.random.Philox(key=[self.seed % 2**64, (self.stream + 2**32) % 2**64])
        )
        return gen.integers(low, high, size=count)


@dataclass(frozen=True)
class RBoundEstimate:
    """Empirical lower bound on the randomized boundedness constant."""

    value: float
    stderr: float
    trials: int
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScanResult:
    """Norm scan along parameter rays with its fitted decay rate.

    ``rows`` holds ``(abs_mu, arg_mu, norm)`` triples of plain floats, strictly
    increasing in modulus within each ray; ``slope`` and ``residual`` are the
    least-squares slope of log norm against the log bracket weight and its RMS residual.
    """

    rows: tuple
    slope: float
    residual: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        by_ray: dict[float, float] = {}
        for abs_mu, arg_mu, _ in self.rows:
            prev = by_ray.get(arg_mu)
            if prev is not None and abs_mu <= prev:
                raise ValueError("modulus must increase strictly within each ray")
            by_ray[arg_mu] = abs_mu
        if not math.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], metadata: dict | None = None) -> "ScanResult":
        slope, residual = _fit_rows(rows)
        # plain floats: the CSV writes repr(v), and a numpy scalar's repr is not a number
        return cls(rows=tuple(tuple(float(v) for v in r) for r in rows), slope=slope, residual=residual,
                   metadata=dict(metadata or {}))

    def to_csv(self, path) -> None:
        seed = self.metadata.get("seed", 0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["abs_mu", "arg_mu", "norm", "slope", "residual", "seed"])
            for row in self.rows:
                rec = (*row, self.slope, self.residual, seed)
                w.writerow([repr(v) if isinstance(v, float) else v for v in rec])


def _require_fit_rows(count: int) -> None:
    """Refuse a scan of ``count`` rows, too few for the decay fit."""
    if count < 5:
        raise ValueError("decay fit needs at least 5 rows")


def _fit_rows(rows: Sequence[tuple]) -> tuple[float, float]:
    _require_fit_rows(len(rows))
    abs_mu = np.array([r[0] for r in rows], dtype=float)
    norms = np.array([r[2] for r in rows], dtype=float)
    if np.any(norms <= 0):
        raise ValueError("norms must be positive for a log fit")
    x = 0.5 * np.log1p(abs_mu**2)  # log <mu>: log1p stays accurate at small |mu|
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# randomized norms


def _check_counts(p: float, trials: int, restarts: int = 0) -> None:
    if not 1 <= p < math.inf:
        raise ValueError(f"need 1 <= p < inf, got p={p}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")


def _check_common_grid(fields: Sequence) -> None:
    first = fields[0]
    for f in fields[1:]:
        same = f.grid == first.grid if isinstance(f, BoundaryField) else (
            f.tangential == first.tangential and f.normal == first.normal
        )
        if type(f) is not type(first) or not same:
            raise ValueError("fields must share one grid")


def _sign_sum(
    norm: _StackNorm,
    singles: np.ndarray,
    stacks: Callable[[], list],
    p: float,
    trials: int,
    sampler: RademacherSampler,
) -> tuple[float, float]:
    """``(E ||sum_k eps_k O_k||^p)^(1/p)`` and its standard error.

    ``singles`` are the norms of the summands.  One summand needs no
    sampling (unit modulus drops out), and for ``p = 2`` with a Hilbert norm
    the expectation is exactly the square sum; otherwise ``stacks()`` gives
    the summands and ``trials`` sign vectors are drawn in one call.
    """
    n = len(singles)
    if n == 1:
        return float(singles[0]), 0.0
    if p == 2 and norm.hilbert:
        return math.sqrt(sum(float(s) ** 2 for s in singles)), 0.0
    eps = sampler.unit(trials * n).reshape(trials, n)
    draws = norm.of_sums(stacks(), eps) ** p
    mean = float(np.mean(draws))
    if mean == 0.0:
        return 0.0, 0.0
    sem = float(np.std(draws, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    value = mean ** (1.0 / p)
    return value, sem * value / (p * mean)


def eps_p_norm(
    fields: Sequence,
    p: float,
    norm: NormSpec,
    trials: int = 64,
    sampler: RademacherSampler | None = None,
) -> float:
    """Randomized sign-sum norm ``(E ||sum_n eps_n f_n||^p)^(1/p)``.

    A single field needs no sampling (unit modulus drops out), and for ``p=2``
    with a Hilbert norm the expectation collapses exactly to the square sum;
    everything else is Monte-Carlo with the deterministic sampler.  ``norm``
    may be any family that applies to the fields; ``1 <= p < inf``.
    """
    _check_counts(p, trials)
    if not fields:
        raise ValueError("need at least one field")
    _check_common_grid(fields)
    form = _StackNorm.on(fields[0], norm)
    stacks = form.orders(_spectra(fields, form.grid))
    singles = form.of_sums(stacks, np.eye(len(fields)))
    value, _ = _sign_sum(form, singles, lambda: stacks, p, trials, sampler or RademacherSampler(seed=0))
    return value


# ---------------------------------------------------------------------------
# dictionary of probe inputs


def probe_dictionary(grid: TangentialGrid) -> list[BoundaryField]:
    """Probe inputs witnessing multiplier suprema: modes and Gaussian bumps.

    Single lattice modes concentrate at one frequency, Gaussian bumps at three
    widths spread over low frequencies, and one bump width modulated to eight
    lattice frequencies covers the midrange.
    """
    x = grid.points_1d
    L = grid.L
    limit = grid.N // 2 - 1
    fields: list[BoundaryField] = []
    for m in (0, 1, -1, 2, -2, 4, 8, 16):
        if abs(m) > limit:
            continue
        fields.append(BoundaryField(grid, _replicate(np.exp(2j * math.pi * m * x / L), grid)))
    bump = lambda w: np.exp(-((x - 0.5 * L) ** 2) / (2.0 * w * w))
    for w in (L / 4.0, L / 16.0, L / 64.0):
        fields.append(BoundaryField(grid, _replicate(bump(w), grid)))
    carrier = bump(L / 8.0)
    for m in (1, -1, 2, -2, 4, -4, 8, -8):
        if abs(m) > limit:
            continue
        fields.append(
            BoundaryField(grid, _replicate(carrier * np.exp(2j * math.pi * m * x / L), grid))
        )
    return fields


# ---------------------------------------------------------------------------
# R-bound lower estimate


def rbound_lower(
    multipliers: Sequence[np.ndarray],
    inputs: Sequence[BoundaryField],
    normal: NormalGrid | None = None,
    p: float = 2.0,
    in_norm: NormSpec | None = None,
    out_norm: NormSpec | None = None,
    trials: int = 32,
    restarts: int = 16,
    sampler: RademacherSampler | None = None,
) -> RBoundEstimate:
    """Certified lower bound on the randomized bound of an operator family.

    Operator ``j`` is the spectral multiplier ``multipliers[j]`` on the grid
    of ``inputs``: shape ``grid.shape`` for a boundary multiplier, or
    ``grid.shape + (normal.M,)`` for a Poisson operator onto ``normal``, and
    it maps ``g`` to ``m_j * g^``.  Every dictionary input is first swept
    through every single operator (the exact singleton floor), then
    ``restarts`` random selections with repetition search for sign-sum
    ratios above that floor.  The maximum ratio observed is returned; it
    never exceeds the true randomized bound.  The input norm may be any
    boundary family and the output norm any family on the multipliers' grid;
    ``1 <= p < inf``.
    """
    if len(multipliers) == 0:
        raise ValueError("operator family must be nonempty")
    if not inputs:
        raise ValueError("input dictionary must be nonempty")
    _check_counts(p, trials, restarts)
    _check_common_grid(inputs)
    grid = inputs[0].grid
    in_norm = in_norm or NormSpec("Lp", p=2.0)
    out_norm = out_norm or NormSpec("Lp", p=2.0)
    in_form = _StackNorm(in_norm, grid, None)
    out_form = _StackNorm(out_norm, grid, normal)
    shape = grid.shape + (() if normal is None else (normal.M,))
    if any(np.shape(m) != shape for m in multipliers):
        raise ValueError(f"every multiplier must have shape {shape}")
    sampler = sampler or RademacherSampler(seed=0)

    n_ops, n_in = len(multipliers), len(inputs)
    spectra = _spectra(inputs, grid)
    ins = in_form.orders(spectra)
    spec = spectra[..., 0]  # one raw spectrum per row; the input norm's terms may be weighted
    mults = out_form.orders(np.asarray(multipliers, dtype=complex).reshape(n_ops, spec.shape[1], -1))
    in_norms = in_form.of_sums(ins, np.eye(n_in))
    out_norms = out_form.of_products(mults, spec)

    nonzero = in_norms != 0.0
    ratios = out_norms[:, nonzero] / in_norms[nonzero]
    best = max(0.0, float(np.max(ratios))) if ratios.size else 0.0
    best_err = 0.0
    for r in range(restarts):
        sub = sampler.with_stream(1 + 3 * r)
        size = 1 + int(sub.integers(0, max(n_ops, 2), 1)[0] % n_ops)
        sel_ops = sub.with_stream(2 + 3 * r).integers(0, n_ops, size)
        sel_in = sub.with_stream(3 + 3 * r).integers(0, n_in, size)
        den, _ = _sign_sum(
            in_form, in_norms[sel_in], lambda: [s[:, sel_in] for s in ins], p, trials,
            sub.with_stream(10_000 + r),
        )
        if den == 0.0:
            continue
        num, num_err = _sign_sum(
            out_form, out_norms[sel_ops, sel_in], lambda: [m[:, sel_ops] * spec[sel_in] for m in mults],
            p, trials, sub.with_stream(20_000 + r),
        )
        ratio = num / den
        if ratio > best:
            best, best_err = ratio, num_err / den
    config = {
        "p": p,
        "trials": trials,
        "restarts": restarts,
        "n_ops": n_ops,
        "n_inputs": n_in,
        "seed": sampler.seed,
        "in_norm": in_norm.family,
        "out_norm": out_norm.family,
    }
    return RBoundEstimate(value=float(best), stderr=float(best_err), trials=trials, config=config)
