"""Resolvent solvers for three dynamic boundary condition model problems.

Covered variants: heat flow with a dynamic boundary condition, the boundary
dynamics of a Cahn-Hilliard type problem, and a road-field reaction model
coupling a half-plane bulk to a line.  ``DynBCProblem.solve`` is the one
resolvent: it checks the parameter and the data grids once, transforms the
data once, builds the variant's plan (its decay rates and symbols, each
evaluated once per distinct ``|xi|^2`` and held one row per mode), and runs
the variant's spectral step, which reports per-mode residual maxima for
every equation line.  Implicit Euler time stepping is included because each
step is one resolvent application at the fixed real spectral parameter
``1/sqrt(dt)``: a trajectory builds its plan once and yields each step as it
completes.

Every step is diagonal in the modes, so a mode that neither the state nor
the data reach stays exactly zero.  A resolvent and a trajectory keep only
their support, the modes so reached, and the spectra's rows there; the
forcing, the step, the change and the Plancherel norms all work on those
rows (:func:`_support_step`).  Only exactly sparse spectra gain, such as
those of constant boundary data: the samples of a lattice mode are dense to
roundoff after the FFT.  Both hand back one record, ``ResolventOutput``,
which forms the full spectra and the physical pair when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    Sector,
    TangentialGrid,
    _integer,
    _xi_sq,
)
from .norms import _derivative_stencil
from .symbols import (
    _HALF_SECTOR,
    _ch_symbol,
    _require_road_params,
    _road_symbol,
    heat_kernel,
    kpp_kernel,
)
from .transforms import _decay_profile, _itfft, _tfft

__all__ = [
    "DynBCProblem",
    "ResolventOutput",
    "EvolveRecord",
    "implicit_euler_evolve",
    "road_symbol_scan",
    "boundary_symbol_gain",
]


@dataclass(frozen=True)
class DynBCProblem:
    """A model problem: variant, grids, parameters, admissible sector.

    The road-field parameters ``d`` (bulk diffusivity), ``dprime`` (road
    diffusivity), and ``kcoef`` (exchange rate) must be positive and finite;
    they are ignored by the other variants.  The sector must lie within the
    sector ``|arg mu| < 0.45 pi`` of the catalog kernels, so it is the only
    check a parameter passes: ``solve`` and ``boundary_symbol_gain`` reject
    parameters outside it.
    """

    variant: str
    tangential: TangentialGrid
    normal: NormalGrid
    d: float = 1.0
    dprime: float = 1.0
    kcoef: float = 1.0
    sector: Sector = _HALF_SECTOR

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        _require_road_params(self.d, self.dprime, self.kcoef)
        if not (_HALF_SECTOR.alpha <= self.sector.alpha and self.sector.beta <= _HALF_SECTOR.beta):
            raise ValueError("the problem sector must lie within the catalog kernels' sector")

    def solve(self, f: Optional[HalfSpaceField], g: BoundaryField, mu: complex) -> ResolventOutput:
        """Resolvent at ``mu`` for interior data ``f`` (``None`` for zero) and boundary data ``g``."""
        mu = self.sector.require(mu)
        fspec, gspec = self._spectra(f, g)
        plan = _VARIANTS[self.variant].plan(self, mu)
        (support, _, _), (u, v, diagnostics) = _support_step(self, plan, fspec, gspec)
        return ResolventOutput(self, u, v, diagnostics, support=support)

    def _require_grids(self, u: Optional[HalfSpaceField], v: Optional[BoundaryField]) -> None:
        """Refuse a bulk or boundary field (``None`` for absent) that does not live on the problem's grids."""
        off_grid = u is not None and (u.tangential, u.normal) != (self.tangential, self.normal)
        if off_grid or (v is not None and v.grid != self.tangential):
            raise ValueError("data must live on the problem's grids")

    def _spectra(self, f: Optional[HalfSpaceField], g: BoundaryField, gspec: Optional[np.ndarray] = None) -> tuple:
        """Spectra of the data the variant reads, after one check of their grids.

        ``fspec`` is ``None`` for an absent ``f``, and for a variant without
        interior data, which must then be absent or zero.  A given ``gspec``
        is taken as ``g``'s spectrum, not transformed again.
        """
        self._require_grids(f, g)
        dim = self.tangential.dim
        if gspec is None:
            gspec = _tfft(g.samples, dim)
        if f is None:
            return None, gspec
        if not _VARIANTS[self.variant].reads_f:
            if np.any(f.samples):
                raise ValueError("interior data is out of scope for this variant")
            return None, gspec
        return _tfft(f.samples, dim), gspec


@dataclass(frozen=True)
class ResolventOutput:
    """A solution's spectra on its support, their L^2 norms by Plancherel, and per-mode residual maxima.

    ``urows`` and ``vrows`` are the spectra's flat rows on the sorted flat
    modes ``support`` (``None``: every mode); other modes are zero, and
    ``urows`` is ``None`` for a zero bulk.  A non-finite norm or residual is
    refused.  The grid-shaped ``uspec``, ``vspec`` and the physical pair
    ``u``, ``v`` are formed on first read.
    """

    problem: DynBCProblem = field(repr=False, compare=False)
    urows: Optional[np.ndarray] = field(repr=False, compare=False)
    vrows: np.ndarray = field(repr=False, compare=False)
    diagnostics: dict
    support: Optional[np.ndarray] = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self) -> None:
        _require_finite(self.diagnostics, "residual")
        _require_finite({"boundary_norm": self.boundary_norm, "interior_norm": self.interior_norm}, "norm")

    @cached_property
    def boundary_norm(self) -> float:
        return _l2(self.problem, None, self.vrows)

    @cached_property
    def interior_norm(self) -> float:
        return _l2(self.problem, self.urows, None)

    def _spectrum(self, rows: Optional[np.ndarray], *trailing: int) -> Optional[np.ndarray]:
        shape = self.problem.tangential.shape
        if rows is not None and self.support is not None:
            full = np.zeros((math.prod(shape), *trailing), dtype=complex)
            full[self.support] = rows
            rows = full
        return None if rows is None else rows.reshape(shape + trailing)

    @cached_property
    def uspec(self) -> Optional[np.ndarray]:
        return self._spectrum(self.urows, self.problem.normal.M)

    @cached_property
    def vspec(self) -> np.ndarray:
        return self._spectrum(self.vrows)

    @cached_property
    def u(self) -> HalfSpaceField:
        tg, ng = self.problem.tangential, self.problem.normal
        if self.uspec is None:
            return HalfSpaceField.zero(tg, ng)
        return HalfSpaceField(tg, ng, _itfft(self.uspec, tg.dim))

    @cached_property
    def v(self) -> BoundaryField:
        return BoundaryField(self.problem.tangential, _itfft(self.vspec, self.problem.tangential.dim))


def _require_finite(values: dict, kind: str) -> None:
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"nonfinite {kind} for {name}")


def _l2(problem: DynBCProblem, uspec: Optional[np.ndarray], vspec: Optional[np.ndarray]) -> float:
    """``sqrt(cell (sum_j w_j sum_xi |u-hat(xi, x_j)|^2 + sum_xi |v-hat|^2))``; ``None`` is zero.

    Summed in C order, copied first if needed, the nodes by :meth:`NormalGrid.integrate`: the bits follow neither the
    layout nor the BLAS thread count.  Array-method sums skip ``np.sum``'s dispatch on a one-row support.
    An overflow gives an infinite norm, which the record refuses, not a warning.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for spec, bulk in ((uspec, True), (vspec, False)):
            if spec is not None:
                sq = np.abs(spec if spec.flags.c_contiguous else np.ascontiguousarray(spec)) ** 2
                total += problem.normal.integrate(sq.sum(axis=tuple(range(sq.ndim - 1)))) if bulk else sq.sum()
        return math.sqrt(problem.tangential.cell * total)


class _SweepScratch(NamedTuple):
    """The tables of :func:`_green_sweep`'s blocked recursion and the scratch every sweep overwrites.

    The nodes are cut into ``nb = ceil(M / B)`` blocks of ``B = plan.block``;
    the padded node axis has ``nb B`` entries, the last block's pad holding
    zero links.  ``decay[i, 0]`` is ``exp(-tau (x_{i+1} - x_i))`` and
    ``decay[i, 1]`` the same over the reversed nodes, ``decay[M - 2 - i, 0]``:
    a view of the padded link table.  The accumulator ``acc`` is the first
    ``M`` nodes of a padded, contiguous buffer; it and the node-major solution
    ``u`` are scratch.  ``chain`` holds every step of the recursion as
    ``(prev, cur, factor, out)`` views, made once, run as
    ``cur += factor * prev`` with the product in ``out``: the ``B - 1`` steps
    within every block at once, the ``nb - 1`` carries of the block ends, and
    one fix-up per row, which adds each block's incoming carry times its link
    products (from the block's start, one ``multiply.accumulate`` over the
    link table) into the block, with ``u`` as the product's scratch.

    One block (``B = M``) is the per-node loop, operation for operation.  More
    blocks sum the same terms ``E_{j..i} c_j`` in another grouping, each link
    product formed from the partial products of the blocks it spans, with a
    few roundings per link either way.  The links have modulus at most one,
    so at node ``i`` each evaluation is within about ``2 M`` units of
    roundoff of the sum of the moduli ``|E_{j..i}| |c_j|``, and the two within
    twice that of each other; on the Euler gate's deep grid (M = 1024,
    blocks of 16) they differ by about 1e-15 relative.
    """

    decay: np.ndarray  # (M - 1, 2, modes)
    acc: np.ndarray  # (M, 2, modes)
    u: np.ndarray  # (M, modes)
    chain: list


def _green_sweep(fspec: np.ndarray, plan: _HeatPlan) -> tuple[np.ndarray, np.ndarray]:
    """Reflected Green quadrature per mode, and its boundary flux.

    ``fspec`` holds one mode per row along the last axis, and ``plan`` the
    decay rates ``tau``, its ``rate``, one per mode, with their tables.
    Returns the solution samples, shaped like ``fspec``, and the flux
    ``sum_j exp(-tau y_j) w_j f_j``, one entry per mode.  The solution is a
    view of the plan's node-major scratch ``u``: the next sweep on the same
    plan overwrites it.  Apart from the flux (and the tables and scratch on a
    first sweep), the sweep creates no array.

    Per mode the solution of ``(tau^2 - d^2/dx^2) u = f, u(0) = 0`` bounded at
    infinity is the integral of the reflected kernel
    ``(exp(-tau|x-y|) - exp(-tau(x+y))) / (2 tau)`` against the data.  The
    trapezoid sum is evaluated recursively in O(modes * M) work and memory
    (Greengard & Rokhlin, "On the numerical solution of two-point boundary
    value problems", CPAM 44, 1991): the forward recursion
    ``F_i = exp(-tau (x_i - x_{i-1})) F_{i-1} + w_i f_i`` covers ``y <= x``,
    and the backward recursion
    ``B_i = exp(-tau (x_{i+1} - x_i)) (B_{i+1} + w_{i+1} f_{i+1})`` covers
    ``y > x``.  The backward accumulator also holds its own node, so at
    ``x_0 = 0`` it is the flux, ``B_0 + w_0 f_0``; the image, the rank-one
    term ``exp(-tau x_i)`` times the flux, is subtracted after the recursion,
    read off the plan's Poisson profile, transposed.
    The boundary node is set to zero exactly.  The backward recursion is the
    forward one over the reversed nodes, so one recursion runs both on a
    stacked pair of rows.  The sweep is elementwise per mode.

    The recursion ``x_{i+1} = E_i x_i + c_{i+1}`` is a chunked linear
    recurrence scan (Kogge & Stone, IEEE Trans. Comput. C-22, 1973; Blelloch,
    CMU-CS-90-190, 1990) over blocks of ``plan.block`` nodes: it runs inside
    every block at once, carries the block ends across the blocks, and adds
    each block's carry times the plan's within-block link products
    (:class:`_SweepScratch`, which also bounds the rounding).  That takes
    ``B + ceil(M / B)`` Python steps in place of ``M - 1``, which pays where
    the step's fixed cost dominates: on grids of few modes and many nodes.
    ``_heat_plan`` fixes ``B`` from the grid, never from the modes a sweep
    runs on, so a trajectory on its support keeps the bits of the same
    trajectory on every mode; grids of many modes keep one block, the per-node
    loop, whose bits do not depend on ``B``.
    """
    ngrid, tau, image = plan.ngrid, plan.rate, plan.profile.T
    decay, acc, u, chain = plan.scratch
    # row 0: sum over y_j <= x_i of exp(-tau (x_i - y_j)) w_j f_j;
    # row 1: the same over y_j >= x_i, with exp(-tau (y_j - x_i)), in reversed node order;
    # both are filled from u: numpy copies an operand that shares acc's memory bounds
    fwd, bwd = acc[:, 0], acc[::-1, 1]
    np.multiply(fspec.reshape(tau.size, ngrid.M).T, ngrid.weights[:, None], out=u)
    fwd[...], bwd[...] = u, u
    for prev, cur, factor, out in chain:
        cur += np.multiply(factor, prev, out)  # out as a positional: the loop runs per step
    flux = bwd[0].copy()  # the flux, out of the scratch the next sweep overwrites
    np.subtract(fwd, np.multiply(image, flux, out=u), out=u)
    # decay[i, 0] * bwd[i + 1] for i < M - 1, formed in node order: decay[:, 1] is decay[::-1, 0]
    tail = np.multiply(decay[:, 1], acc[:-1, 1], out=acc[:-1, 1])
    u[:-1] += tail[::-1]
    u /= 2.0 * tau
    u[0] = 0.0  # the Dirichlet condition, exactly
    return u.T.reshape(fspec.shape), flux


def _residual_band(ngrid: NormalGrid) -> np.ndarray:
    """``normal_derivative(., ngrid, 2)`` on the interior nodes as five diagonals, ``(5, M - 2)``.

    Row ``i - 1`` holds the weights of nodes ``i - 2 .. i + 2`` in the second
    derivative at interior node ``i``: the first-derivative stencil applied to
    itself, its one-sided end rows included, built in O(M) from
    :func:`norms._derivative_stencil`.  The weights of nodes off the grid are
    zero, and a weight that overflows is refused.
    """
    coef, start = _derivative_stencil(ngrid)
    i = np.arange(1, ngrid.M - 1)
    band = np.zeros((5, ngrid.M - 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(3):
            j = start[i] + a  # the first derivative at node j enters row i with weight coef[a, i]
            for b in range(3):
                band[start[j] + b - i + 2, i - 1] += coef[a, i] * coef[b, j]
    if not np.all(np.isfinite(band)):
        raise ValueError(f"the second derivative stencil overflows at M={ngrid.M}, r={ngrid.r!r}")
    return band


class _RadialPlan:
    """A step plan: each array field holds one row per flat mode, and the tables derived from the fields are
    cached properties built on first use.

    Plans are plain dataclasses, not frozen and without a ``repr``, which keeps defining them cheap at import
    (a frozen dataclass takes about 1 ms more); nothing assigns a plan's fields after construction.
    """

    def gather(self, modes: np.ndarray):
        """The plan on the sorted flat ``modes``: the rows of every array field there, with tables of its own.

        The plan for the last ``modes`` is kept, so a trajectory whose support settles builds its tables once.
        """
        last = vars(self).get("gathered")
        if last is None or not np.array_equal(last[0], modes):
            rows = {f.name: getattr(self, f.name)[modes] for f in fields(self)
                    if isinstance(getattr(self, f.name), np.ndarray)}
            last = self.gathered = (modes, replace(self, **rows))
        return last[1]


class _DecayPlan(_RadialPlan):
    """A plan that lifts its trace through a decay kernel of ``rate``: ``profile`` is ``exp(-rate x_n)`` per mode,
    ``(modes, M)``, C-contiguous and stored complex, from one :func:`~poissonops.transforms._decay_profile`."""

    profile = cached_property(lambda self: np.asarray(_decay_profile(self.rate, self.ngrid.nodes), dtype=complex))


@dataclass(eq=False, repr=False)
class _HeatPlan(_DecayPlan):
    """The heat step's decay rates; every table the step derives from them is built on first use.

    ``rate`` holds one ``tau`` per mode.  The tables are flat, one entry or
    row per mode: ``den = mu^2 + tau`` (the boundary multiplier's
    denominator) and the ``profile``, whose transpose is also the Green
    sweep's image table; then the sweep's ``scratch`` and the ``residual``
    stencil, which a step without interior data never builds.
    """

    mu2: complex
    ngrid: NormalGrid
    block: int  # the Green sweep's block length, fixed by the grid
    rate: np.ndarray  # (modes,)

    den = cached_property(lambda self: self.mu2 + self.rate)

    @cached_property
    def scratch(self) -> _SweepScratch:
        M, B, modes = self.ngrid.M, self.block, self.rate.size
        nb = -(-M // B)
        decay = np.exp(-np.diff(self.ngrid.nodes)[:, None] * self.rate)
        links = np.zeros((nb * B, 2, modes), dtype=decay.dtype)  # link i joins node i to i + 1
        links[: M - 1, 0], links[: M - 1, 1] = decay, decay[::-1]
        # block k's products run over the links from node k B - 1, the last node of block k - 1
        products = np.multiply.accumulate(links[B - 1 : nb * B - 1].reshape(nb - 1, B, 2, modes), axis=1)
        buf = np.zeros((nb * B, 2, modes), dtype=complex)  # the accumulator, padded to whole blocks
        row, u = np.empty((nb, 2, modes), dtype=complex), np.empty((M, modes), dtype=complex)
        blocks, factors, ends = buf.reshape(nb, B, 2, modes), links.reshape(nb, B, 2, modes), buf[B - 1 :: B]
        chain = [(blocks[:, j - 1], blocks[:, j], factors[:, j - 1], row) for j in range(1, B)]
        chain += [(ends[k - 1], ends[k], products[k - 1, B - 1], row[0]) for k in range(1, nb)]
        if nb > 1:  # the fix-up, one row at a time: u is free scratch until the sweep's image term
            spare = u.reshape(-1)[: (nb - 1) * (B - 1) * modes].reshape(nb - 1, B - 1, modes)
            chain += [(ends[:-1, None, r], blocks[1:, : B - 1, r], products[:, : B - 1, r], spare) for r in (0, 1)]
        return _SweepScratch(links[: M - 1], buf[:M], u, chain)

    @cached_property
    def residual(self) -> np.ndarray:
        """:func:`_residual_band` of the normal grid: only a step with interior data needs (and builds) it,
        and it refuses a grid of fewer than three nodes."""
        return _residual_band(self.ngrid)


def _heat_plan(problem: DynBCProblem, mu: complex) -> _HeatPlan:
    """The heat step's plan: ``heat_kernel``'s rate, evaluated at ``grid.radial``'s representatives, per mode."""
    reps, inverse = problem.tangential.radial
    M = problem.normal.M
    # the sweep's blocks pay where its fixed cost per step outweighs the element work they add: on grids
    # of at most 32 modes and at least 32 nodes (measured: at 64 modes they break even for M = 256 to 1024)
    block = max(4, round(math.sqrt(M) / 2)) if inverse.size <= 32 <= M else M
    with np.errstate(over="ignore", invalid="ignore"):
        tau = heat_kernel.rate(reps, mu)
    if not np.all(np.isfinite(tau)):
        raise ValueError(f"the heat decay rate overflows at mu={mu}")
    return _HeatPlan(mu * mu, problem.normal, block, tau[np.ravel(inverse)])


def _interior_residual(plan: _HeatPlan, fspec: np.ndarray) -> float:
    """``max |tau^2 u - d^2u/dx^2 - f| / max |f|`` over the interior nodes, for the sweep's ``u``.

    The second derivative is the plan's five-diagonal stencil, applied node
    major to the plan's scratch ``u``; the residual and its products are
    formed in the two halves of the scratch accumulator, which the sweep no
    longer needs, as disjoint contiguous blocks.
    """
    band, scratch = plan.residual, plan.scratch
    u, M = scratch.u, plan.ngrid.M
    res, prod = scratch.acc.reshape(2, *u.shape)[:, 1:-1]
    np.multiply(plan.rate**2, u[1:-1], out=res)
    for k, diag in zip(range(-2, 3), band):
        # rows i of the interior whose node i + k lies on the grid
        lo, hi = max(1, -k) - 1, min(M - 2, M - 1 - k)
        np.multiply(diag[lo:hi, None], u[lo + 1 + k : hi + 1 + k], out=prod[lo:hi])
        np.subtract(res[lo:hi], prod[lo:hi], out=res[lo:hi])
    np.subtract(res, fspec.reshape(u.shape[1], M).T[1:-1], out=res)
    scale = max(float(np.max(np.abs(fspec))), 1e-30)
    return float(np.max(np.abs(res))) / scale


def _heat_step(problem: DynBCProblem, plan: _HeatPlan, fspec: Optional[np.ndarray], gspec: np.ndarray):
    """Heat problem with a dynamic boundary condition, per mode.

    Reduction: a Dirichlet interior solve absorbs ``f`` (``None`` for zero),
    its boundary flux corrects ``g``, the boundary multiplier produces the
    trace dynamics ``v``, and the heat kernel's Poisson lift extends ``v`` to
    the half space.  The rest of the step's work goes to the plan's scratch.
    """
    u1spec, flux1 = (None, 0.0) if fspec is None else _green_sweep(fspec, plan)  # flux1 = du1/dxn at 0
    # line 1: the Poisson part solves the interior equation identically, so
    # only the quadrature interior solve contributes, checked by differences
    # (which need three nodes; without interior data the line holds exactly)
    res1 = _interior_residual(plan, fspec) if fspec is not None and np.any(fspec) else 0.0

    gtil = gspec + flux1  # g - gamma_1 u1 with gamma_1 = -flux
    vspec = gtil / plan.den
    uspec = plan.profile * vspec[:, None]
    if u1spec is not None:
        uspec += u1spec

    # line 2: mu^2 v + d_nu u - g per mode; Poisson part contributes +tau v
    res2 = float(np.max(np.abs(plan.mu2 * vspec + plan.rate * vspec - flux1 - gspec), initial=0.0))
    # line 3: trace matching; the interior solve vanishes at the boundary exactly
    res3 = float(np.max(np.abs(uspec[:, 0] - vspec), initial=0.0))
    return uspec, vspec, {"interior": res1, "dynamic_bc": res2, "trace": res3}


@dataclass(eq=False, repr=False)
class _CHPlan(_RadialPlan):
    """The boundary symbol's numerator and denominator, ``num`` and ``den`` per mode."""

    mu2: complex
    num: np.ndarray  # (modes,)
    den: np.ndarray  # (modes,)


def _ch_plan(problem: DynBCProblem, mu: complex) -> _CHPlan:
    """The boundary symbol's numerator and denominator, evaluated per distinct ``|xi|^2``, per mode."""
    reps, inverse = problem.tangential.radial
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches the record, which refuses it
        num, den = _ch_symbol(_xi_sq(reps), mu)
    index = np.ravel(inverse)
    return _CHPlan(mu * mu, num[index], den[index])


def _ch_step(problem: DynBCProblem, plan: _CHPlan, fspec: Optional[np.ndarray], gspec: np.ndarray):
    """Boundary dynamics ``mu^2 v = b(D', mu) g`` of the Cahn-Hilliard problem.

    The bulk stays zero, so no bulk spectrum is returned (``None``).  An
    overflow gives a non-finite norm or residual, which the record refuses.
    """
    mu2, num, den = plan.mu2, plan.num, plan.den
    with np.errstate(over="ignore", invalid="ignore"):
        vspec = num / den * gspec / mu2
        # denominator-cleared per-mode residual of the boundary dynamics line
        rhs = num * gspec
        scale = max(float(np.max(np.abs(rhs), initial=0.0)), 1e-30)
        res = float(np.max(np.abs(den * mu2 * vspec - rhs), initial=0.0)) / scale
    return None, vspec, {"boundary_dynamics": res}


@dataclass(eq=False, repr=False)
class _KPPPlan(_DecayPlan):
    """The road symbol ``den`` and ``root``, ``freq_norm_sq`` and ``kpp_kernel(d)``'s decay ``rate``, per mode.

    The kernel ``profile``'s Robin derivative, ``d_n`` at 0, is ``-rate``.
    """

    mu2: complex
    ngrid: NormalGrid
    den: np.ndarray  # (modes,)
    root: np.ndarray  # (modes,)
    rate: np.ndarray  # (modes,)
    freq_norm_sq: np.ndarray  # (modes,) |xi|^2


def _kpp_plan(problem: DynBCProblem, mu: complex) -> _KPPPlan:
    """The road symbol and ``kpp_kernel(d)``'s decay rate, from one read of its ``rate``, per distinct ``|xi|^2``."""
    reps, inverse = problem.tangential.radial
    mu2, sq_norms = mu * mu, _xi_sq(reps)
    with np.errstate(over="ignore", invalid="ignore"):
        den, root = _road_symbol(sq_norms, mu2, problem.d, problem.dprime, problem.kcoef)
    if not (np.all(np.isfinite(den)) and np.all(np.isfinite(root))):
        raise ValueError(
            f"the road symbol overflows at mu={mu}, d={problem.d}, dprime={problem.dprime}, k={problem.kcoef}"
            f" and |xi|^2 up to {sq_norms[-1]}"
        )
    rate, index = kpp_kernel(problem.d).rate(reps, mu), np.ravel(inverse)
    return _KPPPlan(mu2, problem.normal, den[index], root[index], rate[index], sq_norms[index])


def _kpp_step(problem: DynBCProblem, plan: _KPPPlan, fspec: Optional[np.ndarray], gspec: np.ndarray):
    """Road-field system for road forcing: bulk trace, road density, bulk.

    The per-mode two-by-two system couples the bulk trace and the road
    density; its solution is given by two explicit multipliers, and the bulk
    is the Poisson lift of its trace through ``kpp_kernel(d)``.
    """
    d, dprime, kcoef = problem.d, problem.dprime, problem.kcoef
    mu2, den, root, s = plan.mu2, plan.den, plan.root, plan.freq_norm_sq

    trace_spec = kcoef / den * gspec
    vspec = root / den * gspec
    uspec = plan.profile * trace_spec[:, None]

    # two-by-two system rows and the Robin transmission line, per mode
    row1 = -trace_spec + (mu2 + kcoef + dprime * s) * vspec - gspec
    row2 = root * trace_spec - kcoef * vspec
    robin = d * plan.rate * trace_spec + trace_spec - kcoef * vspec
    scale = max(float(np.max(np.abs(gspec), initial=0.0)), 1e-30)
    diags = {
        "bulk_row": float(np.max(np.abs(row1), initial=0.0)) / scale,
        "road_row": float(np.max(np.abs(row2), initial=0.0)) / scale,
        "robin": float(np.max(np.abs(robin), initial=0.0)) / scale,
    }
    return uspec, vspec, diags


class _Variant(NamedTuple):
    """A model problem's step plan and spectral step.

    ``plan(problem, mu)`` builds the plan, once per resolvent or Euler
    trajectory.  ``step(problem, plan, fspec, gspec)`` takes flat spectra, one
    mode of the plan per row (``fspec`` ``None`` for zero, and given only to a
    step that ``reads_f``), and returns fresh ``(uspec, vspec, diagnostics)``
    of those shapes, ``uspec`` ``None`` for a zero bulk.  Per mode the
    boundary map is ``v-hat = b(xi, mu) g-hat / mu^2`` for the variant's
    boundary multiplier ``b``; a mode without data gives zeros.
    """

    plan: Callable
    step: Callable
    reads_f: bool = False


_VARIANTS = {
    "HeatDynBC": _Variant(_heat_plan, _heat_step, reads_f=True),
    "CahnHilliardBoundary": _Variant(_ch_plan, _ch_step),
    "KPPRoadField": _Variant(_kpp_plan, _kpp_step),
}


def _support_step(problem: DynBCProblem, plan: _RadialPlan, fspec: Optional[np.ndarray], gspec: np.ndarray,
                  state: Optional[tuple] = None, invdt: float = 0.0, bulk: Optional[np.ndarray] = None):
    """The variant's step, on the modes the state and the data reach, of ``invdt`` times the state plus the data.

    A state is ``(support, u, v)``: sorted flat modes (``None`` for every mode) and the spectra's rows there,
    ``u`` ``(S, M)`` (``None`` for a zero bulk) and ``v`` ``(S,)``; a resolvent has none.  ``bulk`` is a flat
    ``(modes, M)`` buffer for the heat forcing.  The support grows by the modes where ``g`` or ``f`` (``None``
    for zero) is nonzero, and the rows by a zero row for each.  The step runs on ``plan.gather(support)`` and
    the data's rows there, or with every mode on ``plan`` itself, with no gather.  Returns the new state and
    the step's ``(u, v, diagnostics)``.
    """
    variant, modes = _VARIANTS[problem.variant], gspec.size
    gspec, fspec = gspec.reshape(modes), None if fspec is None else fspec.reshape(modes, -1)
    support, u, v = (np.empty(0, dtype=np.intp), None, None) if state is None else state
    if support is not None:
        reach = gspec != 0
        if fspec is not None:
            reach |= np.any(fspec, axis=1)
        reach[support] = False
        new = np.flatnonzero(reach)
        if new.size:
            at = np.searchsorted(support, new)
            support = np.insert(support, at, new)
            u, v = (rows if rows is None else np.insert(rows, at, 0.0, axis=0) for rows in (u, v))
        if support.size == modes:
            support = None
        else:
            plan, gspec = plan.gather(support), gspec[support]
            fspec = None if fspec is None else fspec[support]
    if variant.reads_f and u is not None:
        forcing = np.multiply(invdt, u, out=bulk[: len(u)])
        fspec = forcing if fspec is None else np.add(fspec, forcing, out=fspec)
    if v is not None:
        gspec = invdt * v + gspec
    return (support, u, v), variant.step(problem, plan, fspec, gspec)


@dataclass(frozen=True)
class EvolveRecord(ResolventOutput):
    """One implicit Euler step's record, its time, and the L^2 norm ``delta`` of its change."""

    t: float
    delta: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_finite({"delta": self.delta}, "norm")


def implicit_euler_evolve(
    problem: DynBCProblem,
    f_of_t: Optional[Callable],
    g_of_t: Optional[Callable],
    dt: float,
    T: float,
    u0: Optional[HalfSpaceField] = None,
    v0: Optional[BoundaryField] = None,
) -> Iterator[EvolveRecord]:
    """March the problem by implicit Euler; each step is one spectral resolvent step.

    The step map is ``w_{m+1} = (I/dt - A)^{-1} (w_m / dt + F(t_{m+1}))``, a
    resolvent application at squared parameter ``1/dt``.  The heat variant
    evolves the full interior/boundary pair; the other two variants evolve
    their boundary subsystem (the road-field bulk is slaved to its trace).
    Data callables may be ``None`` for zero data.

    The arguments are checked and the plan is built here, once; the returned
    iterator then yields each step's record as the step completes.  The state
    stays spectral, on its support (:func:`_support_step`; a given ``u0`` or
    ``v0`` reaches every mode).  Each record owns its rows, which no later
    step writes; the trajectory's one bulk buffer takes the heat forcing
    ``u-hat / dt`` and the bulk change.  The boundary data are transformed
    only when their samples differ, bit for bit, from the last step's, so data
    constant in time, as the CLI's are, are transformed once; the kept
    spectrum is read-only.
    """
    if not (0 < dt < math.inf and 0 < T < math.inf):
        raise ValueError(f"step size and horizon must be positive and finite, got dt={dt!r}, T={T!r}")
    nsteps = round(T / dt)
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("step size must divide the horizon")
    problem._require_grids(u0, v0)
    grid, M = problem.tangential, problem.normal.M
    plan = _VARIANTS[problem.variant].plan(problem, problem.sector.require(1.0 / math.sqrt(dt)))
    invdt, modes = 1.0 / dt, math.prod(grid.shape)

    def steps(state: Optional[tuple]) -> Iterator[EvolveRecord]:
        zero_g = BoundaryField.zero(grid)
        bulk = np.empty((modes, M), dtype=complex)
        kept = gspec = None  # the last boundary samples, as bytes, and their spectrum
        for m in range(1, nsteps + 1):
            t = m * dt
            fdat = f_of_t(t) if f_of_t is not None else None
            gdat = g_of_t(t) if g_of_t is not None else zero_g
            samples = gdat.samples.tobytes()  # a copy: samples written in place later differ from it
            fspec, gspec = problem._spectra(fdat, gdat, gspec if samples == kept else None)
            kept = samples
            gspec.flags.writeable = False
            state, (u, v, diags) = _support_step(problem, plan, fspec, gspec, state, invdt, bulk)
            support, uhat, vhat = state
            # a None spectrum is zero: the change is then the other state's spectrum, up to its sign
            du = uhat if u is None else u if uhat is None else np.subtract(u, uhat, out=bulk[: len(u)])
            delta = _l2(problem, du, v if vhat is None else v - vhat)
            yield EvolveRecord(problem, u, v, diags, support=support, t=t, delta=delta)
            state = support, u, v

    uhat = None if u0 is None else _tfft(u0.samples, grid.dim).reshape(modes, M)
    vhat = None if v0 is None else _tfft(v0.samples, grid.dim).reshape(modes)
    return steps(None if u0 is None and v0 is None else (None, uhat, vhat))


# road lattice rays: z just off the real axis, mu spread over the sector's half-angle 0.45 pi
_ROAD_Z_ANGLE = 0.02
_ROAD_MU_ANGLES = (0.0, 0.35 * math.pi, -0.35 * math.pi, 0.44 * math.pi, -0.44 * math.pi)
# lattice points evaluated at once (8 z rows of the 1,200 mu at n = 240): a
# block's temporaries stay about 1 MiB however fine the lattice
_ROAD_BLOCK_SIZE = 9_600
# shell radii; a point of radius hypot(|z|, |mu|) >= max(|z|, |mu|) reaches the
# inner shell only if |z| and |mu| both do, and the outer one only if |z| or
# |mu| reaches 1e3 / sqrt(2) ~ 707, so 700 leaves a safe margin
_ROAD_INNER = 2e-3
_ROAD_OUTER = 1e3
_ROAD_OUTER_REACH = 700.0


def _shell_max(m1: np.ndarray, abs_z: np.ndarray, abs_mu: np.ndarray, rows, cols, lo: float, hi: float) -> float:
    """Max of ``m1`` over the points of ``rows x cols`` with radius in ``[lo, hi]``, 0.0 if none."""
    radius = np.hypot(abs_z[rows, None], abs_mu[cols])
    return float(np.max(m1[rows][:, cols], where=(lo <= radius) & (radius <= hi), initial=0.0))


def road_symbol_scan(d: float = 1.0, dprime: float = 1.0, kcoef: float = 1.0, n: int = 120) -> dict:
    """Boundedness scan of the two road-field multipliers on a (z, mu) lattice.

    Magnitudes are log-spaced over six decades on rays slightly off the real
    axis for ``z`` and spread over the admissible half-angle for ``mu``.
    Reports the lattice suprema of both multipliers, the minimum denominator
    clearance ``|f(z, mu) - k|``, and the largest multiplier magnitude on the
    inner and outer shells where the first multiplier must vanish.

    The lattice is closed under conjugation: the ``z`` rays are
    ``+-_ROAD_Z_ANGLE`` and the ``mu`` angles are closed under negation.
    ``_road_symbol`` has real coefficients, so its value at
    ``(conj z, conj mu)`` is the conjugate of its value at ``(z, mu)``, and
    every reported maximum and minimum, all of moduli, is reached on the
    ``+_ROAD_Z_ANGLE`` rows alone; only those are evaluated.  (The root's
    radicand ``d mu^2 + d^2 z^2`` is never a negative real on these rays, so
    no signed zero picks its branch.)  An integral float ``n`` runs as its int.
    """
    _require_road_params(d, dprime, kcoef)
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"need a lattice of n >= 1 magnitudes, got n={n}")
    if set(_ROAD_MU_ANGLES) != {-a for a in _ROAD_MU_ANGLES}:
        raise RuntimeError(f"road lattice mu angles {_ROAD_MU_ANGLES} are not closed under conjugation")
    mags = np.geomspace(1e-3, 1e3, n)
    zs = mags * np.exp(1j * _ROAD_Z_ANGLE)
    mus = np.concatenate([mags * np.exp(1j * a) for a in _ROAD_MU_ANGLES])
    mu2 = mus * mus
    abs_z, abs_mu = np.abs(zs), np.abs(mus)
    inner_z, inner_mu = abs_z <= _ROAD_INNER, abs_mu <= _ROAD_INNER
    outer_z, outer_mu = abs_z >= _ROAD_OUTER_REACH, abs_mu >= _ROAD_OUTER_REACH
    step = max(1, _ROAD_BLOCK_SIZE // len(mus))
    # per block of z rows: sup m1, sup m2, min |den|, and m1's maxima on the
    # inner and outer shells (0.0 where a shell is empty), each taken on the
    # rows and columns that reach it; max and min are exact, so the blocks
    # reduce to the whole lattice's values
    blocks = []
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        z = zs[rows, None]
        den, root = _road_symbol(z * z, mu2, d, dprime, kcoef)
        m1 = np.abs(mu2 * kcoef / den)
        # with a row of |z| >= 700 every column may reach the outer shell,
        # without one only the columns of |mu| >= 700
        outer_cols = slice(None) if outer_z[rows].any() else outer_mu
        blocks.append((
            np.max(m1),
            np.max(np.abs(mu2 * root / den)),
            np.min(np.abs(den)),
            _shell_max(m1, abs_z[rows], abs_mu, inner_z[rows], inner_mu, 0.0, _ROAD_INNER),
            _shell_max(m1, abs_z[rows], abs_mu, slice(None), outer_cols, _ROAD_OUTER, math.inf),
        ))
    b = np.array(blocks)
    return {
        "sup_m1": float(b[:, 0].max()),
        "sup_m2": float(b[:, 1].max()),
        "min_f_minus_k": float(b[:, 2].min()),
        "inner_max_m1": float(b[:, 3].max()),
        "outer_max_m1": float(b[:, 4].max()),
        "n": n,
    }


def boundary_symbol_gain(problem: DynBCProblem, mu: complex, shift: float = 0.0) -> float:
    """Lattice maximum of the per-mode boundary gain ``|v-hat / g-hat|``.

    The variant's own plan and step run on unit boundary spectra, so the
    gain is that of the boundary map the resolvent applies.  ``shift`` moves
    the spectral parameter to ``sqrt(mu^2 + shift)`` before evaluation,
    probing the resolvent of the shifted generator; the gains of all three
    variants decrease away from frequency zero, so the grid maximum is the sup.
    """
    mu = problem.sector.require(mu)
    mu_eff = problem.sector.require(np.sqrt(mu * mu + shift))
    variant = _VARIANTS[problem.variant]
    ones = np.ones(math.prod(problem.tangential.shape), dtype=complex)
    _, vspec, _ = variant.step(problem, variant.plan(problem, mu_eff), None, ones)
    return float(np.max(np.abs(vspec)))
