"""Resolvent solvers for three dynamic boundary condition model problems.

Covered variants: heat flow with a dynamic boundary condition, the boundary
dynamics of a Cahn-Hilliard type problem, and a road-field reaction model
coupling a half-plane bulk to a line.  Every solver works per tangential
frequency mode: interior solves use a reflected Green kernel quadrature,
boundary dynamics reduce to explicit multiplier symbols, and each solve
reports per-mode residual maxima for every equation line.  Implicit Euler
time stepping is included because each step is one resolvent application at
real spectral parameter ``1/dt``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    Sector,
    TangentialGrid,
)
from .norms import lp_norm, normal_derivative
from .symbols import _ch_symbol, _road_symbol, _tau, ch_b, heat_dynbc_b, heat_kernel, kpp_kernel, kpp_m2
from .transforms import _itfft, _lift, _tfft

__all__ = [
    "DynBCProblem",
    "ResolventOutput",
    "EvolveRecord",
    "dirichlet_resolvent",
    "heat_dynbc_resolvent",
    "ch_boundary_resolvent",
    "ch_residual",
    "kpp_resolvent",
    "implicit_euler_evolve",
    "road_symbol_scan",
    "boundary_symbol_gain",
]

# variant -> its boundary multiplier ``b(xi, mu)``, built from the road-field
# parameters ``(d, dprime, kcoef)`` (which only the road field reads); per mode
# the boundary dynamics give ``v-hat = b g-hat / mu^2``
_BOUNDARY_SYMBOL = {
    "HeatDynBC": lambda d, dprime, kcoef: heat_dynbc_b,
    "CahnHilliardBoundary": lambda d, dprime, kcoef: ch_b,
    "KPPRoadField": kpp_m2,
}


@dataclass(frozen=True)
class DynBCProblem:
    """A model problem: variant, grids, parameters, admissible sector.

    The road-field parameters ``d`` (bulk diffusivity), ``dprime`` (road
    diffusivity), and ``kcoef`` (exchange rate) must be positive; they are
    ignored by the other variants.  The sector keeps ``|arg mu|`` strictly
    below a half-angle under pi/2; ``solve`` and ``boundary_symbol_gain``
    reject parameters outside it.
    """

    variant: str
    tangential: TangentialGrid
    normal: NormalGrid
    d: float = 1.0
    dprime: float = 1.0
    kcoef: float = 1.0
    sector: Sector = field(default_factory=lambda: Sector.symmetric(0.45 * math.pi))

    def __post_init__(self) -> None:
        if self.variant not in _BOUNDARY_SYMBOL:
            raise ValueError(f"unknown variant {self.variant!r}")
        if min(self.d, self.dprime, self.kcoef) <= 0:
            raise ValueError("problem parameters must be positive")
        half = max(abs(self.sector.alpha), abs(self.sector.beta))
        if not half < 0.5 * math.pi:
            raise ValueError("sector half-angle must stay under pi/2")

    def solve(self, f: Optional[HalfSpaceField], g: BoundaryField, mu: complex) -> "ResolventOutput":
        mu = self.sector.require(mu)
        if self.variant == "HeatDynBC":
            if f is None:
                f = HalfSpaceField.zero(self.tangential, self.normal)
            return heat_dynbc_resolvent(f, g, mu)
        if f is not None and np.any(f.samples):
            raise ValueError("interior data is out of scope for this variant")
        if self.variant == "CahnHilliardBoundary":
            v = ch_boundary_resolvent(g, mu)
            u = HalfSpaceField.zero(self.tangential, self.normal)
            diags = {"boundary_dynamics": ch_residual(g, v, mu)}
            return ResolventOutput(u=u, v=v, diagnostics=diags)
        return kpp_resolvent(
            g, mu, d=self.d, dprime=self.dprime, kcoef=self.kcoef, ngrid=self.normal
        )


@dataclass(frozen=True)
class ResolventOutput:
    """Solution pair with per-mode residual maxima for each equation line."""

    u: HalfSpaceField
    v: BoundaryField
    diagnostics: dict

    def __post_init__(self) -> None:
        for name, val in self.diagnostics.items():
            if not math.isfinite(val):
                raise ValueError(f"nonfinite residual for {name}")


def _green_sweep(fspec: np.ndarray, ngrid: NormalGrid, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflected Green quadrature per mode, and its boundary flux.

    ``fspec`` holds one mode per row along the last axis and ``tau`` one
    decay rate per mode.  Returns the solution samples, shaped like
    ``fspec``, and the flux ``sum_j exp(-tau y_j) w_j f_j``, shaped like
    ``tau``.
    """
    t = np.ravel(tau)
    x = ngrid.nodes
    wf = np.ascontiguousarray((fspec.reshape(t.size, ngrid.M) * ngrid.weights).T)
    decay = np.exp(-np.diff(x)[:, None] * t)
    image = np.exp(-x[:, None] * t)
    fwd = wf.copy()  # sum over y_j <= x_i of exp(-tau (x_i - y_j)) w_j f_j
    for i in range(1, ngrid.M):
        fwd[i] += decay[i - 1] * fwd[i - 1]
    bwd = wf.copy()  # the same over y_j >= x_i, with exp(-tau (y_j - x_i))
    for i in range(ngrid.M - 2, -1, -1):
        bwd[i] += decay[i] * bwd[i + 1]
    flux = np.sum(image * wf, axis=0)
    u = fwd - image * flux
    u[:-1] += decay * bwd[1:]
    u /= 2.0 * t
    u[0] = 0.0  # the Dirichlet condition, exactly
    return u.T.reshape(fspec.shape), flux.reshape(np.shape(tau))


def dirichlet_resolvent(f: HalfSpaceField, mu: complex) -> HalfSpaceField:
    """Interior resolvent with zero boundary trace, by Green quadrature.

    Per mode the solution of ``(tau^2 - d^2/dx^2) u = f, u(0) = 0`` bounded at
    infinity is the integral of the reflected kernel
    ``(exp(-tau|x-y|) - exp(-tau(x+y))) / (2 tau)`` against the data.  The
    trapezoid sum is evaluated recursively in O(modes * M) work and memory
    (Greengard & Rokhlin, "On the numerical solution of two-point boundary
    value problems", CPAM 44, 1991): the forward recursion
    ``F_i = exp(-tau (x_i - x_{i-1})) F_{i-1} + w_i f_i`` covers ``y <= x``,
    the backward recursion
    ``B_i = exp(-tau (x_{i+1} - x_i)) (B_{i+1} + w_{i+1} f_{i+1})`` covers
    ``y > x``, and the image is the rank-one term
    ``exp(-tau x_i) * sum_j exp(-tau y_j) w_j f_j``, whose sum is the
    boundary flux of the solution.  The boundary node is set to zero exactly.
    """
    mu = heat_kernel.sector.require(mu)
    grid, ngrid = f.tangential, f.normal
    fspec = _tfft(f.samples, grid.dim)
    uspec, _ = _green_sweep(fspec, ngrid, _tau(grid.freq_vectors, mu))
    samples = _itfft(uspec, grid.dim)
    return HalfSpaceField(tangential=grid, normal=ngrid, samples=samples)


def heat_dynbc_resolvent(f: HalfSpaceField, g: BoundaryField, mu: complex) -> ResolventOutput:
    """Resolvent of the heat problem with a dynamic boundary condition.

    Reduction: a Dirichlet interior solve absorbs ``f``, its boundary flux
    corrects ``g``, the boundary multiplier produces the trace dynamics ``v``,
    and the heat kernel's Poisson lift extends ``v`` to the half space.  The
    whole reduction runs per mode in spectral space: ``f`` and ``g`` are
    transformed once, ``u`` and ``v`` transformed back once.
    """
    mu = heat_kernel.sector.require(mu)
    grid, ngrid = f.tangential, f.normal
    if g.grid != grid:
        raise ValueError("boundary and interior data live on different grids")
    mu2 = mu * mu
    tau = _tau(grid.freq_vectors, mu)
    gspec = _tfft(g.samples, grid.dim)
    fspec = _tfft(f.samples, grid.dim)
    u1spec, flux1 = _green_sweep(fspec, ngrid, tau)  # flux1 = du1/dxn at 0

    gtil = gspec + flux1  # g - gamma_1 u1 with gamma_1 = -flux
    vspec = gtil / (mu2 + tau)
    v = BoundaryField(grid, _itfft(vspec, grid.dim))

    uspec = u1spec + _lift(heat_kernel, mu, vspec, grid, ngrid)
    u = HalfSpaceField(grid, ngrid, _itfft(uspec, grid.dim))

    # line 2: mu^2 v + d_nu u - g per mode; Poisson part contributes +tau v
    res2 = float(np.max(np.abs(mu2 * vspec + tau * vspec - flux1 - gspec)))
    # line 3: trace matching; the interior solve vanishes at the boundary exactly
    res3 = float(np.max(np.abs(uspec[..., 0] - vspec)))
    # line 1: the Poisson part solves the interior equation identically, so
    # only the quadrature interior solve contributes, checked by differences
    # (which need three nodes; without interior data the line holds exactly)
    res1 = 0.0
    if np.any(f.samples):
        r = (tau**2)[..., None] * u1spec - normal_derivative(u1spec, ngrid, 2) - fspec
        scale = max(float(np.max(np.abs(fspec))), 1e-30)
        res1 = float(np.max(np.abs(r[..., 1:-1]))) / scale
    diags = {"interior": res1, "dynamic_bc": res2, "trace": res3}
    return ResolventOutput(u=u, v=v, diagnostics=diags)


def ch_boundary_resolvent(g: BoundaryField, mu: complex) -> BoundaryField:
    """Boundary dynamics resolvent: ``v`` with ``mu^2 v = b(D', mu) g``."""
    mu = ch_b.sector.require(mu)
    bvals = np.asarray(ch_b.func(g.grid.freq_vectors, mu), dtype=complex)
    spec = _tfft(g.samples, g.grid.dim)
    out = _itfft(bvals * spec / (mu * mu), g.grid.dim)
    return BoundaryField(grid=g.grid, samples=out)


def ch_residual(g: BoundaryField, v: BoundaryField, mu: complex) -> float:
    """Denominator-cleared per-mode residual of the boundary dynamics line."""
    mu = ch_b.sector.require(mu)
    num, den = _ch_symbol(g.grid.freq_norm_sq, mu)
    gspec = _tfft(g.samples, g.grid.dim)
    vspec = _tfft(v.samples, g.grid.dim)
    lhs = den * (mu * mu) * vspec
    rhs = num * gspec
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


def kpp_resolvent(
    g: BoundaryField,
    mu: complex,
    d: float = 1.0,
    dprime: float = 1.0,
    kcoef: float = 1.0,
    ngrid: NormalGrid | None = None,
) -> ResolventOutput:
    """Road-field resolvent for road forcing: bulk trace, road density, bulk.

    The per-mode two-by-two system couples the bulk trace and the road
    density; its solution is given by two explicit multipliers, and the bulk
    is the Poisson lift of its trace through ``kpp_kernel(d)``.  Interior
    forcing is out of scope.
    """
    if min(d, dprime, kcoef) <= 0:
        raise ValueError("road-field parameters must be positive")
    kern = kpp_kernel(d)
    mu = kern.sector.require(mu)
    ngrid = ngrid or NormalGrid(256)
    grid = g.grid
    mu2 = mu * mu
    s = grid.freq_norm_sq
    gspec = _tfft(g.samples, grid.dim)

    den, root = _road_symbol(s, mu2, d, dprime, kcoef)
    trace_spec = kcoef / den * gspec
    vspec = root / den * gspec
    v = BoundaryField(grid, _itfft(vspec, grid.dim))

    u = HalfSpaceField(grid, ngrid, _itfft(_lift(kern, mu, trace_spec, grid, ngrid), grid.dim))

    # two-by-two system rows and the Robin transmission line, per mode
    row1 = -trace_spec + (mu2 + kcoef + dprime * s) * vspec - gspec
    row2 = root * trace_spec - kcoef * vspec
    dn = kern.xn_derivative(grid.freq_vectors, mu, 0.0, 1)  # d_n of the unit-trace profile at 0
    robin = -d * dn * trace_spec + trace_spec - kcoef * vspec
    scale = max(float(np.max(np.abs(gspec))), 1e-30)
    diags = {
        "bulk_row": float(np.max(np.abs(row1))) / scale,
        "road_row": float(np.max(np.abs(row2))) / scale,
        "robin": float(np.max(np.abs(robin))) / scale,
    }
    return ResolventOutput(u=u, v=v, diagnostics=diags)


@dataclass(frozen=True)
class EvolveRecord:
    """One implicit Euler step: time, solve output, step-to-step change."""

    t: float
    output: ResolventOutput
    delta: float


def _state_delta(prev: ResolventOutput, cur: ResolventOutput) -> float:
    du = lp_norm(
        HalfSpaceField(cur.u.tangential, cur.u.normal, cur.u.samples - prev.u.samples), 2.0
    )
    dv = lp_norm(BoundaryField(cur.v.grid, cur.v.samples - prev.v.samples), 2.0)
    return math.hypot(du, dv)


def implicit_euler_evolve(
    problem: DynBCProblem,
    f_of_t: Optional[Callable],
    g_of_t: Optional[Callable],
    dt: float,
    T: float,
    u0: Optional[HalfSpaceField] = None,
    v0: Optional[BoundaryField] = None,
) -> list[EvolveRecord]:
    """March the problem by implicit Euler; each step is one resolvent call.

    The step map is ``w_{m+1} = (I/dt - A)^{-1} (w_m / dt + F(t_{m+1}))``, a
    resolvent application at squared parameter ``1/dt``.  The heat variant
    evolves the full interior/boundary pair; the other two variants evolve
    their boundary subsystem (the road-field bulk is slaved to its trace).
    Data callables may be ``None`` for zero data.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    nsteps = round(T / dt)
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("step size must divide the horizon")
    grid, ngrid = problem.tangential, problem.normal
    mu = 1.0 / math.sqrt(dt)
    invdt = 1.0 / dt

    u = u0 if u0 is not None else HalfSpaceField.zero(grid, ngrid)
    v = v0 if v0 is not None else BoundaryField.zero(grid)
    prev = ResolventOutput(u=u, v=v, diagnostics={})
    records: list[EvolveRecord] = []
    heat_variant = problem.variant == "HeatDynBC"
    for m in range(1, nsteps + 1):
        t = m * dt
        fdat = f_of_t(t) if f_of_t is not None else None
        gdat = g_of_t(t) if g_of_t is not None else None
        gsamp = gdat.samples if gdat is not None else 0.0
        gstep = BoundaryField(grid, invdt * prev.v.samples + gsamp)
        fstep = fdat
        if heat_variant:
            fsamp = fdat.samples if fdat is not None else 0.0
            fstep = HalfSpaceField(grid, ngrid, invdt * prev.u.samples + fsamp)
        out = problem.solve(fstep, gstep, mu)
        records.append(EvolveRecord(t=t, output=out, delta=_state_delta(prev, out)))
        prev = out
    return records


# road lattice rays: z just off the real axis, mu spread over the sector's half-angle 0.45 pi
_ROAD_Z_ANGLE = 0.02
_ROAD_MU_ANGLES = (0.0, 0.35 * math.pi, -0.35 * math.pi, 0.44 * math.pi, -0.44 * math.pi)


def road_symbol_scan(d: float = 1.0, dprime: float = 1.0, kcoef: float = 1.0, n: int = 120) -> dict:
    """Boundedness scan of the two road-field multipliers on a (z, mu) lattice.

    Magnitudes are log-spaced over six decades on rays slightly off the real
    axis for ``z`` and spread over the admissible half-angle for ``mu``.
    Reports the lattice suprema of both multipliers, the minimum denominator
    clearance ``|f(z, mu) - k|``, and the largest multiplier magnitude on the
    inner and outer shells where the first multiplier must vanish.
    """
    if min(d, dprime, kcoef) <= 0:
        raise ValueError("road-field parameters must be positive")
    mags = np.geomspace(1e-3, 1e3, n)
    zs = np.concatenate([mags * np.exp(1j * _ROAD_Z_ANGLE), mags * np.exp(-1j * _ROAD_Z_ANGLE)])
    mus = np.concatenate([mags * np.exp(1j * a) for a in _ROAD_MU_ANGLES])
    z = zs[:, None]
    mu = mus[None, :]
    mu2 = mu * mu
    den, root = _road_symbol(z * z, mu2, d, dprime, kcoef)
    m1 = np.abs(mu2 * kcoef / den)
    m2 = np.abs(mu2 * root / den)
    radius = np.hypot(np.abs(z), np.abs(mu))
    inner = radius <= 2e-3
    outer = radius >= 1e3
    return {
        "sup_m1": float(np.max(m1)),
        "sup_m2": float(np.max(m2)),
        "min_f_minus_k": float(np.min(np.abs(den))),
        "inner_max_m1": float(np.max(m1[inner])) if np.any(inner) else 0.0,
        "outer_max_m1": float(np.max(m1[outer])) if np.any(outer) else 0.0,
        "n": n,
    }


def boundary_symbol_gain(problem: DynBCProblem, mu: complex, shift: float = 0.0) -> float:
    """Lattice maximum of the per-mode boundary gain ``|v-hat / g-hat|``.

    ``shift`` moves the spectral parameter to ``sqrt(mu^2 + shift)`` before
    evaluation, probing the resolvent of the shifted generator; the gains of
    all three variants decrease away from frequency zero, so the grid maximum
    is the sup.
    """
    mu = problem.sector.require(mu)
    mu_eff = problem.sector.require(np.sqrt(mu * mu + shift))
    b = _BOUNDARY_SYMBOL[problem.variant](problem.d, problem.dprime, problem.kcoef)
    vals = np.asarray(b.func(problem.tangential.freq_vectors, mu_eff), dtype=complex)
    return float(np.max(np.abs(vals / (mu_eff * mu_eff))))
