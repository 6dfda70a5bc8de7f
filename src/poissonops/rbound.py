"""Randomization tools: Rademacher sign sums, R-bound search, decay fits.

An operator family is probed from below: random subsets act on random
dictionary inputs, and the ratio of randomized output to input norms is
maximized over restarts.  Sign sums average over Rademacher signs
``eps_k = +-1``.  A norm does not see a global sign flip, so a sum of ``n``
terms needs only the ``2^(n-1)`` sign patterns with ``eps_0 = +1``; when
they number at most ``trials`` their average is taken exactly, with
standard error 0, and otherwise ``trials`` sign vectors are drawn by
Monte-Carlo.  The best observed ratio is a certified lower bound when every
ratio is exact (at the CLI's default batches of 4 operators and 24 trials
every one is); a Monte-Carlo ratio is noisy, and its maximum over restarts
is biased upward, so it can exceed the true randomized bound.  The family
is given as radial spectral multipliers, one row per radial class of the
grid, and sign sums are evaluated in spectral space, every sign vector at
once.  Decay claims are quantified by least-squares slopes of log norm
against the log bracket weight of the spectral parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .core import BoundaryField, NormalGrid, TangentialGrid, _replicate
from .norms import NormSpec, _Products, _spectra, _StackNorm

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
    """Deterministic source of random sizes, selections and signs.

    ``integers`` draws the sizes and selections of an R-bound restart and the
    Rademacher (``+-1``) signs of a Monte-Carlo sign sum; ``unit`` draws
    uniform unit-modulus complex (Steinhaus) signs, which no sign sum of
    this package uses.  The sampler is the node ``(seed, key)`` of one
    :class:`numpy.random.SeedSequence` tree: ``child(i)`` is the node
    ``spawn`` hands out ``i``-th, so distinct nodes draw independent
    streams.  ``unit`` and ``integers`` continue one Philox generator, seeded
    by the node alone and built on the first draw.  The functions handed a
    sampler draw only from its children, never advancing it.
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"sampler seed must be nonnegative, got seed={self.seed!r}")

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.key)))

    def child(self, i: int) -> RademacherSampler:
        return RademacherSampler(self.seed, (*self.key, i))

    def unit(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be at least 1")
        return np.exp(2j * math.pi * self._gen.random(count))

    def integers(self, low: int, high: int, count: int) -> np.ndarray:
        return self._gen.integers(low, high, size=count)


@dataclass(frozen=True)
class RBoundEstimate:
    """Empirical lower bound on the randomized boundedness constant."""

    value: float
    stderr: float


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
        _require_increasing(self.rows)
        if not math.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], metadata: dict | None = None) -> "ScanResult":
        slope, residual = _fit_rows(rows)
        # plain floats: the CSV writes repr(v), and a numpy scalar's repr is not a number
        return cls(rows=tuple(tuple(float(v) for v in r) for r in rows), slope=slope, residual=residual,
                   metadata=dict(metadata or {}))


def _require_fit_rows(count: int) -> None:
    """Refuse a scan of ``count`` rows, too few for the decay fit."""
    if count < 5:
        raise ValueError("decay fit needs at least 5 rows")


def _require_increasing(rows: Sequence[tuple]) -> None:
    """Refuse rows ``(abs_mu, arg_mu, ...)`` whose modulus does not increase strictly within each ray."""
    last: dict[float, float] = {}
    for abs_mu, arg_mu, *_ in rows:
        if arg_mu in last and abs_mu <= last[arg_mu]:
            raise ValueError("modulus must increase strictly within each ray")
        last[arg_mu] = abs_mu


def _fit_rows(rows: Sequence[tuple]) -> tuple[float, float]:
    _require_fit_rows(len(rows))
    _require_increasing(rows)  # before the fit: equal moduli on a ray would warn in polyfit first
    abs_mu = np.array([r[0] for r in rows], dtype=float)
    norms = np.array([r[2] for r in rows], dtype=float)
    if np.any(norms <= 0):
        raise ValueError("norms must be positive for a log fit")
    with np.errstate(over="ignore"):  # an infinite log <mu> is refused below
        x = 0.5 * np.log1p(abs_mu**2)  # log <mu>: log1p stays accurate at small |mu|
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(norms)))
    if bad.size:  # the least squares would fail in LAPACK, naming neither the row nor mu
        abs_bad, arg_bad = (float(v) for v in rows[bad[0]][:2])
        raise ValueError(f"norm or log <mu> is not finite in the scan row at |mu|={abs_bad!r}, arg={arg_bad!r}")
    if np.ptp(x) < np.finfo(float).eps:  # below float resolution: polyfit would divide by a zero column norm
        lo, hi = float(abs_mu.min()), float(abs_mu.max())
        raise ValueError(f"log <mu> has no spread to fit a slope over the scan's |mu| from {lo!r} to {hi!r}")
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
        # the kinds first: a bulk field has no grid attribute, a boundary field no tangential one
        same = type(f) is type(first) and (f.grid == first.grid if isinstance(f, BoundaryField) else (
            f.tangential == first.tangential and f.normal == first.normal
        ))
        if not same:
            raise ValueError("fields must share one grid")


@cache
def _patterns(n: int) -> np.ndarray:
    """The ``2^(n-1)`` sign vectors of length ``n`` with ``eps_0 = +1``, shape ``(2^(n-1), n)``, read-only.

    Row ``i`` has ``eps_k = -1`` where bit ``k - 1`` of ``i`` is set.
    """
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    eps = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    eps.flags.writeable = False
    return eps


def _sign_sum(
    norm: _StackNorm,
    singles: np.ndarray,
    sums: Callable[[np.ndarray], np.ndarray],
    p: float,
    trials: int,
    sampler: RademacherSampler,
) -> tuple[float, float]:
    """``(E ||sum_k eps_k O_k||^p)^(1/p)`` over Rademacher signs ``eps_k = +-1``, and its standard error.

    ``singles`` are the norms of the summands.  One summand needs no signs,
    and for ``p = 2`` with a Hilbert norm the expectation is exactly the
    square sum.  A norm does not change under a global sign flip, so ``n``
    summands need only the ``2^(n-1)`` sign patterns with ``eps_0 = +1``:
    when ``2^(n-1) <= trials`` the average over them is exact, its standard
    error is 0, and nothing is drawn.  Otherwise ``trials`` sign vectors are drawn
    in one ``sampler.integers`` call.  ``sums(eps)`` gives the norm of the
    sum of every row of ``eps``.
    """
    n = len(singles)
    if n == 1:
        return float(singles[0]), 0.0
    if p == 2 and norm.hilbert:
        return math.sqrt(sum(float(s) ** 2 for s in singles)), 0.0
    exact = 2 ** (n - 1) <= trials
    eps = _patterns(n) if exact else 1.0 - 2.0 * sampler.integers(0, 2, trials * n).reshape(trials, n)
    draws = sums(eps) ** p
    mean = float(np.mean(draws))
    if mean == 0.0:
        return 0.0, 0.0
    value = mean ** (1.0 / p)
    if exact or trials == 1:
        return value, 0.0
    sem = float(np.std(draws, ddof=1) / math.sqrt(trials))
    return value, sem * value / (p * mean)


def eps_p_norm(
    fields: Sequence,
    p: float,
    norm: NormSpec,
    trials: int = 64,
    sampler: RademacherSampler = RademacherSampler(seed=0),
) -> float:
    """Randomized sign-sum norm ``(E ||sum_n eps_n f_n||^p)^(1/p)`` over Rademacher signs ``eps_n = +-1``.

    A single field needs no signs, and for ``p=2`` with a Hilbert norm the
    expectation collapses exactly to the square sum.  Otherwise ``n`` fields
    are averaged exactly over their ``2^(n-1)`` sign patterns with
    ``eps_0 = +1`` when ``2^(n-1) <= trials``, and by Monte-Carlo over
    ``trials`` sign vectors from ``sampler.child(0)`` when not.  ``norm`` may be
    any family that applies to the fields; ``1 <= p < inf``.
    """
    _check_counts(p, trials)
    if not fields:
        raise ValueError("need at least one field")
    _check_common_grid(fields)
    form = _StackNorm.on(fields[0], norm)
    stacks = form.orders(_spectra(fields, form.grid))
    singles = form.of_sums(stacks, np.eye(len(fields)))
    sums = lambda eps: form.of_sums(stacks, eps)
    value, _ = _sign_sum(form, singles, sums, p, trials, sampler.child(0))
    return value


# ---------------------------------------------------------------------------
# dictionary of probe inputs


def probe_dictionary(grid: TangentialGrid) -> list[BoundaryField]:
    """Probe inputs witnessing multiplier suprema: modes and Gaussian bumps.

    Single lattice modes concentrate at one frequency, Gaussian bumps at three
    widths spread over low frequencies, and one bump width modulated to eight
    lattice frequencies covers the midrange.  A side ``L`` past about 2.7e154,
    where the bumps' ``(x - L/2)^2`` leaves the float range, is refused.
    """
    x = grid.points_1d
    L = grid.L
    if math.isinf((0.5 * L) * (0.5 * L)):
        raise ValueError(f"the probe bumps overflow: (L/2)^2 leaves the float range at L={L!r}")
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
    sampler: RademacherSampler = RademacherSampler(seed=0),
) -> RBoundEstimate:
    """Lower-bound estimate of the randomized bound of an operator family.

    Operator ``j`` is a radial spectral multiplier on the grid of ``inputs``,
    given on the radial classes ``grid.radial``: ``multipliers[j]`` has
    shape ``(K,)`` for a boundary multiplier, or ``(K, normal.M)`` for a
    Poisson operator onto ``normal``, ``K = len(grid.radial[0])``, and it maps
    ``g`` to ``m_j * g^`` with row ``r`` acting on every mode of class
    ``r``.  Every dictionary input is first swept through every single
    operator (the exact singleton floor), then ``restarts`` random
    selections with repetition search for sign-sum ratios above that floor.
    The maximum ratio observed is returned.  Sign sums average over
    Rademacher signs (:func:`eps_p_norm`): a selection of ``n`` summands is
    exact when ``2^(n-1) <= trials`` (a single summand, and ``p = 2`` with
    Hilbert input and output norms, always are), and then ``stderr`` is 0.
    The estimate is a certified lower bound when every ratio above the floor
    is exact.  Otherwise some ratios are quotients of Monte-Carlo means, and
    their maximum is biased upward: it may exceed the true randomized bound.
    Restart ``r`` draws its size, its selections and then the sign batches of
    its Monte-Carlo sums, in that order, from ``sampler.child(r)``.  Products are measured
    on the classes (:class:`~poissonops.norms._Products`): no per-mode product
    stack is formed for a tangential ``q = 2``.  The family is measured in
    ``result_type(float, *multipliers)``, so a real family (a decay kernel on
    the real axis) stays real, and one already stacked in that dtype is not
    copied.  The input norm may be any boundary family and the output norm
    any family on the multipliers' grid; ``1 <= p < inf``.
    """
    if len(multipliers) == 0:
        raise ValueError("operator family must be nonempty")
    if not inputs:
        raise ValueError("input dictionary must be nonempty")
    _check_counts(p, trials, restarts)
    _check_common_grid(inputs)
    if not isinstance(inputs[0], BoundaryField):  # the check above leaves one kind of field
        raise ValueError(f"inputs must be boundary fields, got {type(inputs[0]).__name__}")
    grid = inputs[0].grid
    in_form = _StackNorm(in_norm or NormSpec("Lp", p=2.0), grid, None)
    out_form = _StackNorm(out_norm or NormSpec("Lp", p=2.0), grid, normal, radial=True)
    classes = len(grid.radial[0])
    shape = (classes,) + (() if normal is None else (normal.M,))
    if any(np.shape(m) != shape for m in multipliers):
        raise ValueError(f"every multiplier must have shape {shape}, one row per radial class of the grid")

    n_ops, n_in = len(multipliers), len(inputs)
    spectra = _spectra(inputs, grid)
    ins = in_form.orders(spectra)
    spec = spectra[..., 0]  # one raw spectrum per row; the input norm's terms may be weighted
    family = np.asarray(multipliers, dtype=np.result_type(float, *multipliers))  # a real family stays real
    outs = _Products(out_form, family.reshape(n_ops, classes, -1), spec)
    in_norms = in_form.of_sums(ins, np.eye(n_in))
    out_norms = outs.singles()

    nonzero = in_norms != 0.0
    ratios = out_norms[:, nonzero] / in_norms[nonzero]
    best = float(np.max(ratios, initial=0.0))  # a NaN ratio propagates to the estimate
    best_err = 0.0
    for r in range(restarts):
        sub = sampler.child(r)
        size = int(sub.integers(1, n_ops + 1, 1)[0])
        sel_ops = sub.integers(0, n_ops, size)
        sel_in = sub.integers(0, n_in, size)
        den, _ = _sign_sum(
            in_form, in_norms[sel_in], lambda eps: in_form.of_sums([s[:, sel_in] for s in ins], eps), p, trials, sub
        )
        if den == 0.0:
            continue
        num, num_err = _sign_sum(
            out_form, out_norms[sel_ops, sel_in], lambda eps: outs.of_sums(sel_ops, sel_in, eps), p, trials, sub
        )
        ratio = num / den
        if ratio > best:
            best, best_err = ratio, num_err / den
    return RBoundEstimate(value=float(best), stderr=float(best_err))
