"""Randomization tools: unit-modulus sign sums, R-bound search, decay fits.

An operator family is probed from below: random subsets act on random
dictionary inputs, the ratio of randomized output to input norms is maximized
over restarts, and the best observed ratio is a certified lower bound.  Decay
claims are quantified by least-squares slopes of log norm against the log
bracket weight of the spectral parameter.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import BoundaryField, TangentialGrid
from .norms import NormSpec, field_norm

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

    ``rows`` holds ``(abs_mu, arg_mu, norm)`` triples, strictly increasing in
    modulus within each ray; ``slope`` and ``residual`` are the least-squares
    slope of log norm against the log bracket weight and its RMS residual.
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
        return cls(rows=tuple(tuple(r) for r in rows), slope=slope, residual=residual,
                   metadata=dict(metadata or {}))

    def to_csv(self, path) -> None:
        seed = self.metadata.get("seed", 0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["abs_mu", "arg_mu", "norm", "slope", "residual", "seed"])
            for row in self.rows:
                rec = (*row, self.slope, self.residual, seed)
                w.writerow([repr(v) if isinstance(v, float) else v for v in rec])


def _fit_rows(rows: Sequence[tuple]) -> tuple[float, float]:
    if len(rows) < 5:
        raise ValueError("decay fit needs at least 5 rows")
    abs_mu = np.array([r[0] for r in rows], dtype=float)
    norms = np.array([r[2] for r in rows], dtype=float)
    if np.any(norms <= 0):
        raise ValueError("norms must be positive for a log fit")
    x = 0.5 * np.log1p(abs_mu**2)  # log of the bracket weight
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# randomized norms


def _is_hilbert(spec: NormSpec) -> bool:
    # families whose norm comes from an inner product, where the mean square
    # of a random sign sum collapses to the sum of squares exactly
    if spec.family == "Lp" and spec.p == 2:
        return True
    if spec.family == "Bessel2":
        return True
    if spec.family == "Mixed" and spec.p == 2 and spec.q == 2 and spec.m == 0 and not spec.weak:
        return True
    return False


def _check_common_grid(fields: Sequence) -> None:
    first = fields[0]
    for f in fields[1:]:
        same = f.grid == first.grid if isinstance(f, BoundaryField) else (
            f.tangential == first.tangential and f.normal == first.normal
        )
        if type(f) is not type(first) or not same:
            raise ValueError("fields must share one grid")


def _eps_p_stats(
    fields: Sequence,
    p: float,
    norm: NormSpec,
    trials: int,
    sampler: RademacherSampler,
) -> tuple[float, float]:
    if not fields:
        raise ValueError("need at least one field")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_common_grid(fields)
    if len(fields) == 1:
        return field_norm(fields[0], norm), 0.0
    if p == 2 and _is_hilbert(norm):
        sq = sum(field_norm(f, norm) ** 2 for f in fields)
        return math.sqrt(sq), 0.0
    n = len(fields)
    eps = sampler.unit(trials * n).reshape(trials, n)
    stack = np.stack([f.samples for f in fields])
    make = type(fields[0])
    draws = np.empty(trials)
    for t in range(trials):
        combo = np.tensordot(eps[t], stack, axes=(0, 0))
        if isinstance(fields[0], BoundaryField):
            fld = make(fields[0].grid, combo)
        else:
            fld = make(fields[0].tangential, fields[0].normal, combo)
        draws[t] = field_norm(fld, norm) ** p
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
    everything else is Monte-Carlo with the deterministic sampler.
    """
    sampler = sampler or RademacherSampler(seed=0)
    value, _ = _eps_p_stats(fields, p, norm, trials, sampler)
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

    def replicate(axis_samples: np.ndarray) -> np.ndarray:
        out = axis_samples
        for _ in range(grid.dim - 1):
            out = out[..., None] * np.ones(grid.N)
        return out

    for m in (0, 1, -1, 2, -2, 4, 8, 16):
        if abs(m) > limit:
            continue
        fields.append(BoundaryField(grid, replicate(np.exp(2j * math.pi * m * x / L))))
    bump = lambda w: np.exp(-((x - 0.5 * L) ** 2) / (2.0 * w * w))
    for w in (L / 4.0, L / 16.0, L / 64.0):
        fields.append(BoundaryField(grid, replicate(bump(w))))
    carrier = bump(L / 8.0)
    for m in (1, -1, 2, -2, 4, -4, 8, -8):
        if abs(m) > limit:
            continue
        fields.append(
            BoundaryField(grid, replicate(carrier * np.exp(2j * math.pi * m * x / L)))
        )
    return fields


# ---------------------------------------------------------------------------
# R-bound lower estimate


def rbound_lower(
    ops: Sequence[tuple],
    inputs: Sequence[BoundaryField],
    p: float = 2.0,
    in_norm: NormSpec | None = None,
    out_norm: NormSpec | None = None,
    trials: int = 32,
    restarts: int = 16,
    sampler: RademacherSampler | None = None,
) -> RBoundEstimate:
    """Certified lower bound on the randomized bound of an operator family.

    ``ops`` pairs each operator handle with its parameter label.  Every
    dictionary input is first swept through every single operator (the exact
    singleton floor), then ``restarts`` random selections with repetition
    search for sign-sum ratios above that floor.  The maximum ratio observed
    is returned; it never exceeds the true randomized bound.
    """
    if not ops:
        raise ValueError("operator family must be nonempty")
    if not inputs:
        raise ValueError("input dictionary must be nonempty")
    sampler = sampler or RademacherSampler(seed=0)
    in_norm = in_norm or NormSpec("Lp", p=2.0)
    out_norm = out_norm or NormSpec("Lp", p=2.0)

    handles: list[Callable] = [h for _, h in ops]
    applied: dict[tuple[int, int], object] = {}

    def apply(j: int, i: int):
        key = (j, i)
        if key not in applied:
            applied[key] = handles[j](inputs[i])
        return applied[key]

    in_norms = [field_norm(g, in_norm) for g in inputs]

    best = 0.0
    best_err = 0.0
    for j in range(len(handles)):
        for i in range(len(inputs)):
            if in_norms[i] == 0.0:
                continue
            ratio = field_norm(apply(j, i), out_norm) / in_norms[i]
            if ratio > best:
                best, best_err = ratio, 0.0

    n_ops = len(handles)
    n_in = len(inputs)
    for r in range(restarts):
        sub = sampler.with_stream(1 + 3 * r)
        size = 1 + int(sub.integers(0, max(n_ops, 2), 1)[0] % n_ops)
        sel_ops = sub.with_stream(2 + 3 * r).integers(0, n_ops, size)
        sel_in = sub.with_stream(3 + 3 * r).integers(0, n_in, size)
        chosen_in = [inputs[i] for i in sel_in]
        den, _ = _eps_p_stats(chosen_in, p, in_norm, trials, sub.with_stream(10_000 + r))
        if den == 0.0:
            continue
        chosen_out = [apply(j, i) for j, i in zip(sel_ops, sel_in)]
        num, num_err = _eps_p_stats(chosen_out, p, out_norm, trials, sub.with_stream(20_000 + r))
        ratio = num / den
        if ratio > best:
            best, best_err = ratio, num_err / den
    config = {
        "p": p,
        "trials": trials,
        "restarts": restarts,
        "n_ops": len(handles),
        "n_inputs": len(inputs),
        "seed": sampler.seed,
        "in_norm": in_norm.family,
        "out_norm": out_norm.family,
    }
    return RBoundEstimate(value=float(best), stderr=float(best_err), trials=trials, config=config)
