"""Model-problem resolvents, residual diagnostics, and implicit Euler."""
from __future__ import annotations

import cmath
import math
import tracemalloc
from collections.abc import Iterator
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from norm_reference import reversed_view, transposed_view
from poissonops import dynbc
from poissonops.core import BoundaryField, HalfSpaceField, NormalGrid, Sector, SectorError, make_grids
from poissonops.dynbc import (
    _VARIANTS,
    DynBCProblem,
    EvolveRecord,
    ResolventOutput,
    _green_sweep,
    boundary_symbol_gain,
    implicit_euler_evolve,
    road_symbol_scan,
)
from poissonops.norms import lp_norm, normal_derivative
from poissonops.symbols import _ch_symbol, _road_symbol, ch_b, heat_dynbc_b, heat_kernel, kpp_kernel, kpp_m2
from poissonops.transforms import _profile, apply_poisson, forward_fft, inverse_fft

SQRT2 = math.sqrt(2.0)
VARIANTS = ["HeatDynBC", "CahnHilliardBoundary", "KPPRoadField"]
# the independent oracle of each variant's boundary map: per mode v-hat = b(xi, mu) g-hat / mu^2
BOUNDARY_SYMBOL = {
    "HeatDynBC": lambda d, dprime, kcoef: heat_dynbc_b,
    "CahnHilliardBoundary": lambda d, dprime, kcoef: ch_b,
    "KPPRoadField": kpp_m2,
}


def _const_boundary(grid, value=1.0):
    return BoundaryField(grid, np.full(grid.shape, value, dtype=complex))


def _profile_field(tg, ng, profile):
    samples = np.ones(tg.shape, dtype=complex)[..., None] * profile(ng.nodes)[None, :]
    return HalfSpaceField(tg, ng, samples)


def test_dirichlet_resolvent_exponential_data():
    # mu = sqrt(3) makes tau = 2 on the zero mode; with data exp(-x) the
    # reflected-kernel solution is (exp(-y) - exp(-2y)) / 3
    tg, ng = make_grids(N=2, M=256)
    f = np.ones(tg.shape)[:, None] * np.exp(-ng.nodes).astype(complex)
    u, _ = _green_sweep(f, dynbc._heat_plan(DynBCProblem("HeatDynBC", tg, ng), math.sqrt(3.0)))
    want = (np.exp(-ng.nodes) - np.exp(-2.0 * ng.nodes)) / 3.0
    err = np.max(np.abs(u[0] - want))  # the zero mode
    assert err <= 5e-3 * np.max(np.abs(want))
    assert np.max(np.abs(u[:, 0])) <= 1e-12


def test_dirichlet_resolvent_zero_data():
    tg, ng = make_grids(N=8, M=32)
    plan = dynbc._heat_plan(DynBCProblem("HeatDynBC", tg, ng), 1.0)
    u, flux = _green_sweep(np.zeros(tg.shape + (ng.M,), dtype=complex), plan)
    assert np.all(u == 0) and np.all(flux == 0)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    # eight points a side, or two: few-mode grids of up to 1,100 nodes, which the sweep cuts into blocks from
    # M = 32 on, the last block mostly ragged
    N_M=st.tuples(st.just(8), st.integers(2, 64)) | st.tuples(st.just(2), st.integers(2, 1100)),
    r=st.floats(1.0005, 1.2),
    X_max=st.floats(0.5, 16.0),
    mu_abs=st.floats(0.1, 10.0),
    mu_arg=st.floats(-0.44 * math.pi, 0.44 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=1, N_M=(2, 1001), r=1.0005, X_max=2.0, mu_abs=5.0, mu_arg=0.0, seed=0)  # blocks of 16, 9 in the last
def test_green_sweep_matches_dense_kernel(dim, N_M, r, X_max, mu_abs, mu_arg, seed):
    N, M = N_M
    tg, ng = make_grids(dim=dim, N=N, M=M, X_max=X_max, r=r)
    mu = mu_abs * complex(math.cos(mu_arg), math.sin(mu_arg))
    plan = dynbc._heat_plan(DynBCProblem("HeatDynBC", tg, ng), mu)
    tau = plan.tau.ravel()
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((tau.size, M)) + 1j * rng.standard_normal((tau.size, M))
    u, flux = _green_sweep(f, plan)

    # dense reflected-kernel trapezoid sum, O(modes * M^2), a block of 128 rows at a time
    x, t, fw = ng.nodes, tau[:, None, None], f * ng.weights
    want = np.empty_like(u)
    for lo in range(0, M, 128):
        y = x[lo : lo + 128, None]
        green = (np.exp(-t * np.abs(y - x)) - np.exp(-t * (y + x))) / (2.0 * t)
        want[:, lo : lo + 128] = np.einsum("myx,mx->my", green, fw)
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.all(u[:, 0] == 0.0)

    terms = np.exp(-tau[:, None] * x) * ng.weights * f
    assert np.all(np.abs(flux.ravel() - terms.sum(axis=-1)) <= 1e-12 * np.abs(terms).sum(axis=-1))


def _per_node_sweep(f, plan):
    """The Green sweep with one recursion step per node: the stacked forward and reversed backward rows, each
    step ``acc[i] += decay[i - 1] * acc[i - 1]``, then the image and the far side as the sweep adds them."""
    ng, modes = plan.ngrid, plan.index.size
    decay = np.exp(-np.diff(ng.nodes)[:, None] * plan.rates)[:, plan.index]
    decay = np.stack([decay, decay[::-1]], axis=1)
    acc = np.empty((ng.M, 2, modes), dtype=complex)
    acc[:, 0] = acc[::-1, 1] = f.reshape(modes, ng.M).T * ng.weights[:, None]
    for i in range(1, ng.M):
        acc[i] += decay[i - 1] * acc[i - 1]
    flux = acc[-1, 1].copy()
    u = acc[:, 0] - plan.profile.T * flux
    u[:-1] += (decay[:, 1] * acc[:-1, 1])[::-1]
    u /= 2.0 * plan.tau
    u[0] = 0.0
    return u.T.reshape(f.shape), flux


@pytest.mark.parametrize(
    "dim, N, M",
    [(1, 64, 200), (2, 8, 97), (1, 256, 256), (1, 2, 31), (2, 2, 3)],
    ids=["64-modes", "2d-64-modes", "default-grid", "31-nodes", "3-nodes"],
)
def test_a_one_block_sweep_is_the_per_node_recursion(dim, N, M):
    # grids of many modes or few nodes keep one block: the sweep is the per-node recursion, bit for bit
    tg, ng = make_grids(dim=dim, N=N, M=M, X_max=4.0)
    plan = dynbc._heat_plan(DynBCProblem("HeatDynBC", tg, ng), 2.0 + 1.0j)
    assert plan.block == M
    rng = np.random.default_rng(M)
    f = rng.standard_normal(tg.shape + (M,)) + 1j * rng.standard_normal(tg.shape + (M,))
    u, flux = _green_sweep(f, plan)
    want_u, want_flux = _per_node_sweep(f, plan)
    assert np.array_equal(u, want_u) and np.array_equal(flux, want_flux)


@settings(max_examples=60, deadline=None)
@given(M=st.integers(3, 200), r=st.floats(1.0005, 1.2), X_max=st.floats(0.5, 16.0))
def test_residual_band_is_normal_derivative_applied_twice(M, r, X_max):
    # the five diagonals against the interior rows of the iterated three-point
    # stencil, one-sided end rows included: column j of the dense second
    # derivative is normal_derivative of the unit vector e_j
    ng = NormalGrid(M, X_max=X_max, r=r)
    band = dynbc._residual_band(ng)
    dense = np.zeros((M - 2, M + 4))  # two padding columns each side for the off-grid weights
    rows = np.arange(M - 2)
    for k in range(5):
        dense[rows, rows + 1 + k] = band[k]
    want = normal_derivative(np.eye(M), ng, 2)[:, 1:-1].T
    assert not np.any(dense[:, :2]) and not np.any(dense[:, -2:])
    np.testing.assert_allclose(dense[:, 2:-2], want.real, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim, M", [(1, 3), (1, 4), (2, 5), (1, 64), (2, 33)])
def test_interior_residual_is_the_iterated_stencil_residual(dim, M):
    # the heat step's interior line, through the composed stencil in the
    # sweep's scratch, against the residual of normal_derivative applied twice
    tg, ng = make_grids(dim=dim, N=8, M=M, X_max=4.0)
    plan = dynbc._heat_plan(DynBCProblem("HeatDynBC", tg, ng), 2.0 + 1.0j)
    rng = np.random.default_rng(M)
    f = rng.standard_normal(tg.shape + (M,)) + 1j * rng.standard_normal(tg.shape + (M,))
    u, _ = _green_sweep(f, plan)
    r = (plan.tau**2).reshape(tg.shape)[..., None] * u - normal_derivative(u, ng, 2) - f
    want = np.max(np.abs(r[..., 1:-1])) / np.max(np.abs(f))
    assert dynbc._interior_residual(plan, f) == pytest.approx(want, rel=1e-9)


def test_heat_dynbc_interior_solve_memory_linear_in_modes_times_M():
    # a dense (modes, M, M) Green kernel would take about 4.3 GB on this grid
    tg, ng = make_grids(dim=2, N=64, M=256)
    x1, x2 = np.meshgrid(tg.points_1d, tg.points_1d, indexing="ij")
    tangential = np.cos(x1) + 0.5j * np.sin(2.0 * x2)
    f = HalfSpaceField(tg, ng, tangential[..., None] * np.exp(-ng.nodes))
    tracemalloc.start()
    try:
        out = DynBCProblem("HeatDynBC", tg, ng).solve(f, _const_boundary(tg), math.sqrt(3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = tg.shape[0] * tg.shape[1] * ng.M * np.dtype(complex).itemsize
    assert peak <= 16 * field_bytes
    assert np.all(np.isfinite(out.u.samples)) and np.all(np.isfinite(out.v.samples))
    assert out.diagnostics["dynamic_bc"] <= 1e-8
    assert out.diagnostics["trace"] == 0.0
    assert out.diagnostics["interior"] <= 1e-2


def test_heat_dynbc_worked_point():
    tg, ng = make_grids(N=16, M=64)
    out = DynBCProblem("HeatDynBC", tg, ng).solve(None, _const_boundary(tg), 1.0)
    want_v = 1.0 / (1.0 + SQRT2)
    np.testing.assert_allclose(out.v.samples, want_v, rtol=1e-12)
    # trace value lifts along exp(-sqrt(2) x)
    want_u = want_v * np.exp(-SQRT2 * ng.nodes)
    np.testing.assert_allclose(out.u.samples, np.broadcast_to(want_u, out.u.samples.shape), atol=1e-12)
    assert out.diagnostics["interior"] == 0.0
    assert out.diagnostics["dynamic_bc"] <= 1e-12
    assert out.diagnostics["trace"] <= 1e-12


def test_heat_dynbc_two_node_normal_grid():
    tg, ng = make_grids(N=8, M=2)
    out = DynBCProblem("HeatDynBC", tg, ng).solve(None, _const_boundary(tg), 1.0)
    np.testing.assert_allclose(out.v.samples, 1.0 / (1.0 + SQRT2), rtol=1e-12)
    assert out.diagnostics["interior"] == 0.0
    assert out.diagnostics["dynamic_bc"] <= 1e-12
    assert out.diagnostics["trace"] == 0.0


def test_heat_dynbc_with_interior_forcing():
    tg, ng = make_grids(N=8, M=256)
    f = _profile_field(tg, ng, lambda x: np.exp(-x))
    out = DynBCProblem("HeatDynBC", tg, ng).solve(f, _const_boundary(tg), math.sqrt(3.0))
    # the flux-corrected boundary line and trace matching stay analytic
    assert out.diagnostics["dynamic_bc"] <= 1e-8
    assert out.diagnostics["trace"] <= 1e-12
    # the interior line is checked by second differences on the graded grid
    assert out.diagnostics["interior"] <= 1e-2


def test_heat_dynbc_parameter_domain():
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    f = HalfSpaceField.zero(tg, ng)
    g = _const_boundary(tg)
    with pytest.raises(ValueError):
        prob.solve(f, g, 0.0)
    with pytest.raises(SectorError):
        prob.solve(f, g, -1.0)


def test_ch_boundary_worked_point():
    tg, ng = make_grids(N=16, M=8)
    out = DynBCProblem("CahnHilliardBoundary", tg, ng).solve(None, _const_boundary(tg), 1.0)
    np.testing.assert_allclose(out.v.samples, 1.0 / (1.0 + SQRT2), rtol=1e-12)
    assert np.all(out.u.samples == 0)
    assert out.diagnostics["boundary_dynamics"] <= 1e-12


def test_ch_boundary_linearity():
    tg, ng = make_grids(N=16, M=8)
    prob = DynBCProblem("CahnHilliardBoundary", tg, ng)
    rng = np.random.default_rng(0)
    g1 = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    g2 = BoundaryField(tg, rng.standard_normal(tg.shape))
    mu = complex(0.8, 0.3)
    combo = BoundaryField(tg, 2.0 * g1.samples - 1j * g2.samples)
    lhs = prob.solve(None, combo, mu).v.samples
    rhs = 2.0 * prob.solve(None, g1, mu).v.samples - 1j * prob.solve(None, g2, mu).v.samples
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_ch_rejects_interior_data():
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem("CahnHilliardBoundary", tg, ng)
    f = _profile_field(tg, ng, lambda x: np.exp(-x))
    with pytest.raises(ValueError):
        prob.solve(f, _const_boundary(tg), 1.0)


def test_kpp_worked_point():
    # d = d' = k = 1, mu = 1, constant data: trace 1/3, road density 2/3
    tg, ng = make_grids(N=16, M=64)
    out = DynBCProblem("KPPRoadField", tg, ng).solve(None, _const_boundary(tg), 1.0)
    np.testing.assert_allclose(out.v.samples, 2.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(out.u.trace().samples, 1.0 / 3.0, rtol=1e-12)
    # bulk decays at rate sqrt(mu^2 / d) = 1 off the trace
    want_u = (1.0 / 3.0) * np.exp(-ng.nodes)
    np.testing.assert_allclose(out.u.samples, np.broadcast_to(want_u, out.u.samples.shape), atol=1e-12)
    for key in ("bulk_row", "road_row", "robin"):
        assert out.diagnostics[key] <= 1e-10


def test_kpp_resolvent_matches_road_density_multiplier():
    # the solver and kpp_m2 share one road-field symbol: per mode the road
    # density is m2(xi, mu) / mu^2 times the road data
    tg, ng = make_grids(dim=2, N=16, M=8)
    rng = np.random.default_rng(4)
    g = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    mu = 1.3 * complex(math.cos(0.3 * math.pi), math.sin(0.3 * math.pi))
    d, dprime, kcoef = 1.7, 0.4, 2.5
    out = DynBCProblem("KPPRoadField", tg, ng, d=d, dprime=dprime, kcoef=kcoef).solve(None, g, mu)
    want = kpp_m2(d, dprime, kcoef).func(tg.freq_vectors, mu) / mu**2
    np.testing.assert_allclose(forward_fft(out.v) / forward_fft(g), want, rtol=1e-13)


def test_solvers_extend_through_the_one_poisson_operator():
    # the heat and road-field bulks are the catalog kernels' Poisson
    # extensions of their traces, the same operator apply_poisson applies
    tg, ng = make_grids(dim=2, N=16, M=32)
    rng = np.random.default_rng(7)
    g = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    mu = 1.3 * complex(math.cos(0.3 * math.pi), math.sin(0.3 * math.pi))
    d, dprime, kcoef = 1.7, 0.4, 2.5
    heat = DynBCProblem("HeatDynBC", tg, ng).solve(None, g, mu)
    want = apply_poisson(heat_kernel, mu, heat.v, ng).samples
    np.testing.assert_allclose(heat.u.samples, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    kpp = DynBCProblem("KPPRoadField", tg, ng, d=d, dprime=dprime, kcoef=kcoef).solve(None, g, mu)
    want = apply_poisson(kpp_kernel(d), mu, kpp.u.trace(), ng).samples
    np.testing.assert_allclose(kpp.u.samples, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    assert max(kpp.diagnostics.values()) <= 1e-10


@pytest.mark.parametrize("variant", ["HeatDynBC", "KPPRoadField"])
@pytest.mark.parametrize("dim, N, M", [(1, 64, 48), (2, 8, 32), (3, 4, 16)])
@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j, 0.3 - 0.2j])
def test_decay_plan_lifts_through_its_profile_table(variant, dim, N, M, mu):
    # a decay plan holds one exp table, which serves the Poisson lift (and the heat sweep's image term,
    # transposed): it is its kernel's profile entry for entry, one real exp at a real mu, one mode per
    # row, laid out C-contiguous and stored complex
    tg, ng = make_grids(dim=dim, N=N, M=M)
    kernel = heat_kernel if variant == "HeatDynBC" else kpp_kernel(2.5)
    plan = _VARIANTS[variant].plan(DynBCProblem(variant, tg, ng, d=2.5), mu)
    assert plan.profile.flags.c_contiguous and plan.profile.dtype == complex
    np.testing.assert_array_equal(plan.profile, _profile(kernel, mu, tg, ng).reshape(-1, M))


@pytest.mark.parametrize("dim, N, M, L", [(1, 64, 48, 2.0 * math.pi), (2, 16, 32, 3.0)])
@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j])
@pytest.mark.parametrize("d", [1.0, 2.5])
def test_kpp_plan_reads_its_kernel_per_mode_bits(dim, N, M, L, mu, d):
    # the road symbol, |xi|^2, the profile and the Robin derivative are evaluated per
    # distinct |xi|^2 and gathered: each mode, one per row, gets exactly its own value
    tg, ng = make_grids(dim=dim, N=N, M=M, L=L)
    plan = dynbc._kpp_plan(DynBCProblem("KPPRoadField", tg, ng, d=d, dprime=0.3, kcoef=4.0), mu)
    kern, xi, xi_sq = kpp_kernel(d), tg.freq_vectors.reshape(-1, dim), tg.freq_norm_sq.ravel()
    assert np.array_equal(plan.dn, kern.func(xi, mu, 0.0, 1))
    assert np.array_equal(plan.profile, _profile(kern, mu, tg, ng).reshape(-1, M))
    den, root = _road_symbol(xi_sq, mu * mu, d, 0.3, 4.0)
    assert np.array_equal(plan.den, den) and np.array_equal(plan.root, root)
    assert np.array_equal(plan.freq_norm_sq, xi_sq)


@pytest.mark.parametrize("dim, N, L", [(1, 64, 2.0 * math.pi), (2, 16, 3.0), (3, 4, 2.0 * math.pi)])
@pytest.mark.parametrize("mu", [1.0, 2.0 + 1.0j, 0.3 - 0.2j])
def test_ch_plan_reads_its_symbol_per_mode_bits(dim, N, L, mu):
    # the boundary symbol is evaluated per distinct |xi|^2 and gathered, one mode per entry
    tg, ng = make_grids(dim=dim, N=N, M=8, L=L)
    plan = dynbc._ch_plan(DynBCProblem("CahnHilliardBoundary", tg, ng), mu)
    num, den = _ch_symbol(tg.freq_norm_sq.ravel(), mu)
    assert np.array_equal(plan.num, num) and np.array_equal(plan.den, den)


def test_heat_resolvent_without_interior_data_builds_no_sweep_scratch(monkeypatch):
    # the certify heat resolvent: the step, on the plan gathered to the one mode the data reach, builds
    # only tau, den and the profile; the stacked decay table and the sweep's scratch wait for a sweep,
    # which builds them once
    plans = []
    entry = _VARIANTS["HeatDynBC"]

    def kept(problem, mu):
        plans.append(entry.plan(problem, mu))
        return plans[-1]

    monkeypatch.setitem(_VARIANTS, "HeatDynBC", entry._replace(plan=kept))
    tg, ng = make_grids(N=16, M=64)
    out = DynBCProblem("HeatDynBC", tg, ng).solve(None, _const_boundary(tg), 1.0)
    plan = plans[0]
    assert max(out.diagnostics.values()) <= 1e-10
    assert set(vars(plan)) - {f.name for f in fields(plan)} == {"gathered"}
    _, ran = vars(plan)["gathered"]
    assert set(vars(ran)) - {f.name for f in fields(ran)} == {"tau", "den", "profile"}
    _green_sweep(np.ones(tg.shape + (ng.M,), dtype=complex), plan)
    scratch = plan.scratch
    _green_sweep(np.ones(tg.shape + (ng.M,), dtype=complex), plan)
    assert plan.scratch is scratch


def test_kpp_zero_data():
    tg, ng = make_grids(N=8, M=32)
    out = DynBCProblem("KPPRoadField", tg, ng).solve(None, _const_boundary(tg, 0.0), 1.0)
    assert np.all(out.v.samples == 0)
    assert np.all(out.u.samples == 0)


def test_kpp_parameter_validation():
    tg, ng = make_grids(N=8, M=16)
    with pytest.raises(ValueError):
        DynBCProblem("KPPRoadField", tg, ng, d=-1.0)
    with pytest.raises(ValueError):
        DynBCProblem("KPPRoadField", tg, ng).solve(None, _const_boundary(tg), 0.0)


def test_problem_validation():
    tg, ng = make_grids(N=8, M=16)
    with pytest.raises(ValueError):
        DynBCProblem("Unknown", tg, ng)
    with pytest.raises(ValueError):
        DynBCProblem("KPPRoadField", tg, ng, kcoef=0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_single_mode_residuals(variant):
    tg, ng = make_grids(N=16, M=64)
    prob = DynBCProblem(variant, tg, ng)
    g = BoundaryField(tg, np.exp(1j * 2.0 * tg.points_1d))
    out = prob.solve(None, g, 1.0)
    for value in out.diagnostics.values():
        assert value <= 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_honours_problem_sector(variant):
    tg, ng = make_grids(N=8, M=16)
    g = _const_boundary(tg)
    narrow = DynBCProblem(variant, tg, ng, sector=Sector.symmetric(0.1))
    with pytest.raises(SectorError):
        narrow.solve(None, g, 1 + 1j)
    with pytest.raises(SectorError):
        boundary_symbol_gain(narrow, 1 + 1j)
    default = DynBCProblem(variant, tg, ng)
    # -mu squares to mu^2, so only a check on mu itself rejects these
    for mu in (-1.0, 3j, complex(math.cos(0.6 * math.pi), math.sin(0.6 * math.pi))):
        with pytest.raises(SectorError):
            boundary_symbol_gain(default, mu)
        with pytest.raises(SectorError):
            default.solve(None, g, mu)
    for mu in (1.0, 1 + 1j):
        out = default.solve(None, g, mu)
        assert max(out.diagnostics.values()) <= 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_refuses_data_on_other_grids(variant):
    tg, ng = make_grids(N=8, M=16)
    fine, deep = make_grids(N=16, M=32)
    prob = DynBCProblem(variant, tg, ng)
    with pytest.raises(ValueError, match="grids"):
        prob.solve(None, _const_boundary(fine), 1.0)
    # zero interior data, which every variant accepts on the problem's grids
    with pytest.raises(ValueError, match="grids"):
        prob.solve(HalfSpaceField.zero(tg, deep), _const_boundary(tg), 1.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_evolve_refuses_initial_states_on_other_grids(monkeypatch, variant):
    # u0 and v0 pass the resolvent's grid check when the trajectory is set up, before its plan is
    # built: grids of the same shape on another box, and a finer boundary grid
    built = []
    entry = _VARIANTS[variant]
    monkeypatch.setitem(_VARIANTS, variant, entry._replace(plan=lambda *args: built.append(args)))
    tg, ng = make_grids(N=8, M=32)
    other_tg, other_ng = make_grids(N=8, M=32, L=3.0, X_max=5.0)
    fine, _ = make_grids(N=16, M=32)
    prob = DynBCProblem(variant, tg, ng)
    for u0, v0 in (
        (HalfSpaceField(other_tg, other_ng, np.ones(other_tg.shape + (other_ng.M,))), None),
        (None, _const_boundary(other_tg)),
        (None, _const_boundary(fine)),
    ):
        with pytest.raises(ValueError, match="data must live on the problem's grids"):
            implicit_euler_evolve(prob, None, None, 0.25, 1.0, u0=u0, v0=v0)
    assert built == []


def test_problem_sector_lies_within_the_kernels_sector():
    # a wider sector would let boundary_symbol_gain read the multipliers off
    # their sector, and solve fail on a kernel sector the caller never passed
    tg, ng = make_grids(N=8, M=16)
    for variant in VARIANTS:
        for sector in (Sector.symmetric(0.49 * math.pi), Sector(-0.1, 0.46 * math.pi)):
            with pytest.raises(ValueError, match="sector"):
                DynBCProblem(variant, tg, ng, sector=sector)
        DynBCProblem(variant, tg, ng, sector=Sector(0.0, 0.45 * math.pi))


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    dim=st.sampled_from([1, 2]),
    mode=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    mu_abs=st.floats(0.1, 100.0),
    mu_arg=st.floats(-0.44 * math.pi, 0.44 * math.pi),
    d=st.floats(0.1, 10.0),
    dprime=st.floats(0.1, 10.0),
    kcoef=st.floats(0.1, 10.0),
)
def test_single_mode_resolvent_residuals_at_random_mu(variant, dim, mode, mu_abs, mu_arg, d, dprime, kcoef):
    tg, ng = make_grids(dim=dim, N=16, M=16)
    idx = mode[:dim]
    spec = np.zeros(tg.shape, dtype=complex)
    spec[idx] = 1.0
    mu = mu_abs * complex(math.cos(mu_arg), math.sin(mu_arg))
    out = DynBCProblem(variant, tg, ng, d=d, dprime=dprime, kcoef=kcoef).solve(None, inverse_fft(spec, tg), mu)
    assert max(out.diagnostics.values()) <= 1e-8
    # the step's boundary response is the variant's multiplier b(xi, mu) / mu^2
    b = BOUNDARY_SYMBOL[variant](d, dprime, kcoef)
    want = b.func(tg.freq_vectors[idx], mu) / (mu * mu)
    assert abs(forward_fft(out.v)[idx] - want) <= 1e-12 * abs(want)


def _physical_euler(problem, f_of_t, g_of_t, dt, T, u0, v0):
    """Implicit Euler in physical state: one ``problem.solve`` per step, the change by quadrature."""
    grid, ngrid = problem.tangential, problem.normal
    u, v = u0.samples, v0.samples
    steps = []
    for m in range(1, round(T / dt) + 1):
        t = m * dt
        f = f_of_t(t) if f_of_t is not None else None
        if problem.variant == "HeatDynBC":
            f = HalfSpaceField(grid, ngrid, u / dt + f.samples)
        out = problem.solve(f, BoundaryField(grid, v / dt + g_of_t(t).samples), 1.0 / math.sqrt(dt))
        du = lp_norm(HalfSpaceField(grid, ngrid, out.u.samples - u), 2.0)
        dv = lp_norm(BoundaryField(grid, out.v.samples - v), 2.0)
        steps.append((out, math.hypot(du, dv)))
        u, v = out.u.samples, out.v.samples
    return steps


@pytest.mark.parametrize("variant", VARIANTS)
def test_euler_matches_a_physical_state_loop(variant):
    tg, ng = make_grids(dim=2, N=8, M=24, X_max=4.0)
    rng = np.random.default_rng(11)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u0 = HalfSpaceField(tg, ng, noise(tg.shape + (ng.M,)))
    v0 = BoundaryField(tg, noise(tg.shape))
    f1, g1 = noise(tg.shape + (ng.M,)), noise(tg.shape)

    def f_of_t(t):
        return HalfSpaceField(tg, ng, t * f1)

    def g_of_t(t):
        return BoundaryField(tg, math.cos(t) * g1)

    if variant != "HeatDynBC":
        f_of_t = None
    prob = DynBCProblem(variant, tg, ng)
    records = list(implicit_euler_evolve(prob, f_of_t, g_of_t, 0.125, 0.5, u0=u0, v0=v0))
    want = _physical_euler(prob, f_of_t, g_of_t, 0.125, 0.5, u0, v0)
    assert len(records) == len(want) == 4
    for rec, (out, delta) in zip(records, want):
        for got, ref in ((rec.u, out.u), (rec.v, out.v)):
            assert np.max(np.abs(got.samples - ref.samples)) <= 1e-12 * np.max(np.abs(ref.samples))
        assert rec.delta == pytest.approx(delta, rel=1e-12)


# an Euler trajectory (mu None) keeps each variant's old id; resolvents at a real and a complex mu
_RECORD_SOURCES = [pytest.param(v, None, id=v) for v in VARIANTS] + [
    pytest.param(v, mu, id=f"{v}-solve-{tag}")
    for v in VARIANTS
    for tag, mu in (("real", 1.5), ("complex", 2.0 * cmath.exp(0.4j)))
]


@pytest.mark.parametrize("variant, mu", _RECORD_SOURCES)
def test_evolve_norms_are_the_norms_of_the_output(variant, mu):
    # the norms of an Euler step and of a resolvent come from the spectra by
    # Plancherel; the physical pair is formed only here, where it is read
    tg, ng = make_grids(dim=2, N=8, M=24, X_max=4.0)
    rng = np.random.default_rng(5)
    u0 = HalfSpaceField(tg, ng, rng.standard_normal(tg.shape + (ng.M,)))
    v0 = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    g1 = rng.standard_normal(tg.shape)

    def g_of_t(t):
        return BoundaryField(tg, math.sin(t) * g1)

    prob = DynBCProblem(variant, tg, ng)
    if mu is None:
        records = list(implicit_euler_evolve(prob, None, g_of_t, 0.125, 0.5, u0, v0))
        assert len(records) == 4
    else:
        records = [prob.solve(u0 if _VARIANTS[variant].reads_f else None, v0, mu)]
    for rec in records:
        assert rec.boundary_norm == pytest.approx(lp_norm(rec.v, 2.0), rel=1e-12, abs=0.0)
        assert rec.interior_norm == pytest.approx(lp_norm(rec.u, 2.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("relayout", [np.asfortranarray, transposed_view])
@pytest.mark.parametrize("variant", VARIANTS)
def test_record_norms_do_not_follow_the_state_layout(monkeypatch, variant, relayout):
    tg, ng = make_grids(dim=2, N=16, M=24, X_max=4.0)
    rng = np.random.default_rng(8)
    u0 = HalfSpaceField(tg, ng, rng.standard_normal(tg.shape + (ng.M,)))
    v0 = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    g1 = BoundaryField(tg, rng.standard_normal(tg.shape))
    prob = DynBCProblem(variant, tg, ng)

    def numbers():
        steps = implicit_euler_evolve(prob, None, lambda t: g1, 0.125, 0.5, u0, v0)
        return [(r.boundary_norm, r.interior_norm, r.delta) for r in steps]

    want = numbers()
    entry = _VARIANTS[variant]

    def relaid(*args):
        uspec, vspec, diags = entry.step(*args)
        # the step returns one mode per row: the bulk rows take the drawn layout, the 1-d boundary rows run backwards
        uspec, vspec = None if uspec is None else relayout(uspec), reversed_view(vspec)
        assert not vspec.flags.c_contiguous and (uspec is None or not uspec.flags.c_contiguous)
        return uspec, vspec, diags

    monkeypatch.setitem(_VARIANTS, variant, entry._replace(step=relaid))
    assert numbers() == want


def test_records_refuse_nonfinite_norms():
    tg, ng = make_grids(N=8, M=16)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    zero_u, zero_v = np.zeros(tg.shape + (ng.M,), dtype=complex), np.zeros(tg.shape, dtype=complex)
    with pytest.raises(ValueError, match="boundary_norm"):
        ResolventOutput(prob, zero_u, np.full(tg.shape, np.inf, dtype=complex), {})
    with pytest.raises(ValueError, match="interior_norm"):
        ResolventOutput(prob, np.full(zero_u.shape, np.nan, dtype=complex), zero_v, {})
    with pytest.raises(ValueError, match="delta"):
        EvolveRecord(prob, zero_u, zero_v, {}, t=1.0, delta=math.inf)
    with pytest.raises(ValueError, match="trace"):
        ResolventOutput(prob, zero_u, zero_v, {"trace": math.nan})
    assert EvolveRecord(prob, None, zero_v, {}, t=1.0, delta=0.0).interior_norm == 0.0


def test_evolve_is_an_iterator_checked_on_call():
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    steps = implicit_euler_evolve(prob, None, lambda t: _const_boundary(tg), 0.25, 1.0)
    assert isinstance(steps, Iterator)
    assert next(steps).t == 0.25
    assert [r.t for r in steps] == [0.5, 0.75, 1.0]
    # the arguments are checked when the trajectory is set up, not on its first step
    with pytest.raises(SectorError):
        implicit_euler_evolve(DynBCProblem("HeatDynBC", tg, ng, sector=Sector(0.1, 0.2)), None, None, 0.25, 1.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_evolve_builds_one_plan_per_trajectory(monkeypatch, forward_transforms, variant):
    # and transforms data constant in time once, though each step's field is a new one
    built = []
    entry = _VARIANTS[variant]

    def counted(problem, mu):
        built.append(mu)
        return entry.plan(problem, mu)

    monkeypatch.setitem(_VARIANTS, variant, entry._replace(plan=counted))
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem(variant, tg, ng)
    records = list(implicit_euler_evolve(prob, None, lambda t: _const_boundary(tg), 0.125, 1.0))
    assert len(records) == 8
    assert built == [complex(1.0 / math.sqrt(0.125))]
    assert [spec.shape for spec in forward_transforms] == [tg.shape]


@pytest.mark.parametrize("variant", VARIANTS)
def test_evolve_transforms_boundary_data_written_in_place_again(forward_transforms, variant):
    # one field whose samples the data callable writes in place: a step whose samples changed transforms
    # them again, so the records are those of a new field each step; the spectra kept are read-only
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem(variant, tg, ng)
    shared = BoundaryField.zero(tg)

    def written(t):
        shared.samples[...] = np.cos(tg.points_1d) * min(t, 0.5)  # changes up to t = 0.5, then holds
        return shared

    def fresh(t):
        return BoundaryField(tg, np.cos(tg.points_1d) * min(t, 0.5))

    records = list(implicit_euler_evolve(prob, None, written, 0.125, 1.0))
    assert len(forward_transforms) == 4
    assert not any(spec.flags.writeable for spec in forward_transforms)
    for rec, want in zip(records, implicit_euler_evolve(prob, None, fresh, 0.125, 1.0), strict=True):
        assert np.array_equal(rec.vspec, want.vspec) and rec.diagnostics == want.diagnostics
        assert (rec.boundary_norm, rec.interior_norm, rec.delta) == (want.boundary_norm, want.interior_norm, want.delta)


@pytest.fixture
def forward_transforms(monkeypatch):
    """The spectra ``dynbc`` transforms its data to, in call order."""
    calls = []
    forward = dynbc._tfft

    def counted(samples, dim):
        calls.append(forward(samples, dim))
        return calls[-1]

    monkeypatch.setattr(dynbc, "_tfft", counted)
    return calls


@pytest.fixture
def inverse_transforms(monkeypatch):
    """Shapes of the spectra ``dynbc`` transforms back, in call order."""
    calls = []
    inverse = dynbc._itfft

    def counted(spec, dim):
        calls.append(spec.shape)
        return inverse(spec, dim)

    monkeypatch.setattr(dynbc, "_itfft", counted)
    return calls


def test_ch_bulk_is_zero_without_a_transform(inverse_transforms):
    tg, ng = make_grids(N=8, M=32)
    out = DynBCProblem("CahnHilliardBoundary", tg, ng).solve(None, _const_boundary(tg), 1.0)
    u, v = out.u, out.v
    assert inverse_transforms == [tg.shape]  # the boundary solution only
    assert u.samples.shape == tg.shape + (ng.M,) and not np.any(u.samples)
    assert v.samples.shape == tg.shape


@pytest.mark.parametrize("variant", VARIANTS)
def test_resolvent_transforms_back_only_what_is_read(inverse_transforms, variant):
    # the norms are Plancherel sums of the spectra; v is formed once, on first read
    tg, ng = make_grids(N=8, M=32)
    out = DynBCProblem(variant, tg, ng).solve(None, _const_boundary(tg), 1.0)
    assert out.boundary_norm > 0.0 and out.interior_norm >= 0.0
    assert inverse_transforms == []
    assert out.v is out.v
    assert inverse_transforms == [tg.shape]


def _plan_arrays(plan):
    """Every array a plan holds, its tables and its scratch."""
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, (tuple, list)):
        for item in plan:
            yield from _plan_arrays(item)
    elif is_dataclass(plan):
        # the fields and whatever cached tables and scratch the plan has built so far
        for value in vars(plan).values():
            yield from _plan_arrays(value)


@pytest.mark.parametrize("with_f", [False, True], ids=["f-absent", "f-given"])
@pytest.mark.parametrize("with_u0", [False, True], ids=["u0-absent", "u0-given"])
@pytest.mark.parametrize("with_v0", [False, True], ids=["v0-absent", "v0-given"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_records_own_their_spectra(monkeypatch, variant, with_f, with_u0, with_v0):
    # a record kept by its caller is never written by a later step, and shares
    # no memory with the plan's tables and scratch or with another record
    tg, ng = make_grids(dim=2, N=8, M=24, X_max=4.0)
    rng = np.random.default_rng(3)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f1, g1 = noise(tg.shape + (ng.M,)), BoundaryField(tg, noise(tg.shape))
    if variant != "HeatDynBC":
        f1 = np.zeros_like(f1)  # the other variants take zero interior data only
    u0 = HalfSpaceField(tg, ng, noise(tg.shape + (ng.M,))) if with_u0 else None
    v0 = BoundaryField(tg, noise(tg.shape)) if with_v0 else None
    f_of_t = (lambda t: HalfSpaceField(tg, ng, t * f1)) if with_f else None
    plans = []
    entry = _VARIANTS[variant]

    def kept(problem, mu):
        plans.append(entry.plan(problem, mu))
        return plans[-1]

    monkeypatch.setitem(_VARIANTS, variant, entry._replace(plan=kept))
    prob = DynBCProblem(variant, tg, ng)

    def run():
        return implicit_euler_evolve(prob, f_of_t, lambda t: g1, 0.125, 0.5, u0=u0, v0=v0)

    def spectra(rec):
        return [a for a in (rec.uspec, rec.vspec) if a is not None]

    stepwise = [
        ([a.copy() for a in spectra(rec)], rec.boundary_norm, rec.interior_norm, rec.delta)
        for rec in run()
    ]
    records = list(run())
    assert len(records) == len(stepwise) == 4
    for rec, (arrays, *numbers) in zip(records, stepwise):
        assert len(spectra(rec)) == len(arrays)
        assert all(np.array_equal(a, b) for a, b in zip(spectra(rec), arrays))
        assert [rec.boundary_norm, rec.interior_norm, rec.delta] == numbers

    owned = [(n, a) for n, rec in enumerate(records) for a in spectra(rec)]
    scratch = list(_plan_arrays(plans[-1]))
    assert scratch
    for n, a in owned:
        assert not any(np.shares_memory(a, s) for s in scratch)
        assert not any(np.shares_memory(a, b) for m, b in owned if b is not a)


def _masked_noise(rng, mask, shape):
    """Complex noise of ``shape`` on the modes of ``mask`` (the grid's shape), zero elsewhere."""
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return values * mask.reshape(mask.shape + (1,) * (len(shape) - mask.ndim))


def _representatives(plan):
    """Every array of a plan held per ``grid.radial`` representative: its array fields but ``index``."""
    return [getattr(plan, f.name) for f in fields(plan)
            if f.name != "index" and isinstance(getattr(plan, f.name), np.ndarray)]


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    N=st.sampled_from([8, 2]),  # N = 8 in two dimensions keeps the sweep's one block, the others cut it from M = 32
    M=st.integers(12, 64),
    support=st.sampled_from(["empty", "one", "two", "subset", "all"]),
    g_on_all=st.booleans(),
    with_f=st.booleans(),
    with_u0=st.booleans(),
    with_v0=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_on_their_support_equal_the_full_step(
    variant, dim, N, M, support, g_on_all, with_f, with_u0, with_v0, seed
):
    # a trajectory on its support, the modes its state and its data reach, against the same trajectory forced
    # onto every mode: the same spectra, norms, changes and diagnostics; the data enter as their own spectra,
    # so their supports are exact.  The supports drawn include the empty one, one mode, and one that grows
    tg, ng = make_grids(dim=dim, N=N, M=M, X_max=4.0)
    modes = tg.shape[0] ** dim
    rng = np.random.default_rng(seed)
    if support == "subset":
        drawn = rng.random(modes) < 0.5
    else:
        drawn = np.full(modes, support == "all")
        if support in ("one", "two"):
            drawn[rng.choice(modes, 1 if support == "one" else 2, replace=False)] = True

    def reach():
        # each datum reaches part of the drawn support, so f may reach a mode g does not
        return drawn & (rng.random(modes) < 0.7)

    bulk_shape = tg.shape + (ng.M,)
    reach_g1 = drawn if g_on_all else reach()
    reach_g2, reach_f = reach(), reach()  # g2 from the second step: the support may grow
    g1 = BoundaryField(tg, _masked_noise(rng, reach_g1.reshape(tg.shape), tg.shape))
    g2 = BoundaryField(tg, _masked_noise(rng, reach_g2.reshape(tg.shape), tg.shape))
    f1 = _masked_noise(rng, reach_f.reshape(tg.shape), bulk_shape)
    u0 = HalfSpaceField(tg, ng, _masked_noise(rng, reach().reshape(tg.shape), bulk_shape)) if with_u0 else None
    v0 = BoundaryField(tg, _masked_noise(rng, reach().reshape(tg.shape), tg.shape)) if with_v0 else None
    with_f = with_f and _VARIANTS[variant].reads_f  # the other variants take no interior data
    f_of_t = (lambda t: HalfSpaceField(tg, ng, t * f1)) if with_f else None
    g_of_t = lambda t: g1 if t < 0.2 else g2
    plans = []
    entry = _VARIANTS[variant]

    def kept(problem, mu):
        plans.append(entry.plan(problem, mu))
        return plans[-1]

    def run(full):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynbc, "_tfft", lambda samples, dim: np.array(samples, dtype=complex))
            mp.setitem(_VARIANTS, variant, entry._replace(plan=kept))
            prob = DynBCProblem(variant, tg, ng)
            # a given initial state is taken to reach every mode: a zero v0 forces the full path
            start = BoundaryField.zero(tg) if full and v0 is None else v0
            return list(implicit_euler_evolve(prob, f_of_t, g_of_t, 0.125, 0.375, u0=u0, v0=start))

    full, restricted = run(True), run(False)
    plan = plans[-1]
    # the support is the union of the modes reached so far, None once that is every mode
    reached, supports = np.full(modes, with_u0 or with_v0), []
    for g_reach in (reach_g1, reach_g2, reach_g2):
        reached |= g_reach | (reach_f & with_f)
        supports.append(None if reached.all() else np.flatnonzero(reached))
    for a, b, want in zip(full, restricted, supports, strict=True):
        assert a.support is None
        assert (b.support is None) if want is None else np.array_equal(b.support, want)
        assert np.array_equal(a.uspec, b.uspec) and np.array_equal(a.vspec, b.vspec)
        assert a.interior_norm == b.interior_norm and a.diagnostics == b.diagnostics
        # the boundary sum is one pairwise sum over the modes or over the support's rows: on more than one
        # mode its grouping differs, by at most the rounding of 2 * modes terms
        if want is None or want.size <= 1:
            assert (a.boundary_norm, a.delta) == (b.boundary_norm, b.delta)
        else:
            assert b.boundary_norm == pytest.approx(a.boundary_norm, rel=2 * modes * 2.0**-53, abs=0.0)
            assert b.delta == pytest.approx(a.delta, rel=2 * modes * 2.0**-53, abs=0.0)
    # a step on part of the modes ran on the plan gathered to its support, over just the representatives the
    # support reads (one alone for one mode): the last such step's plan is the one kept
    partial = [want for want in supports if want is not None]
    assert ("gathered" in vars(plan)) == bool(partial)
    if partial:
        kept_modes, gathered = vars(plan)["gathered"]
        assert np.array_equal(kept_modes, partial[-1])
        assert np.array_equal(gathered.den, plan.den[partial[-1]])
        read = np.unique(plan.index[partial[-1]]).size
        assert all(values.size == read for values in _representatives(gathered))
    tables = list(_plan_arrays(plan))
    owned = [a for rec in restricted for a in (rec.urows, rec.vrows) if a is not None]
    assert not any(np.shares_memory(a, t) for a in owned for t in tables)


def test_heat_step_allocates_only_its_new_state():
    # past the first two steps (which build the residual stencil and the
    # sweep's first use), a default-grid heat step allocates the new bulk state
    # and the half-size moduli of one Plancherel sum at a time, nothing else
    # of the bulk's size
    tg, ng = make_grids()
    bulk = tg.shape[0] * ng.M * np.dtype(complex).itemsize
    modes = tg.shape[0]
    prob = DynBCProblem("HeatDynBC", tg, ng)
    tracemalloc.start()
    try:
        steps = implicit_euler_evolve(prob, None, lambda t: _const_boundary(tg), 0.01, 0.05)
        rec = next(steps)
        rec = next(steps)
        peaks = []
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rec = next(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert rec.diagnostics["interior"] > 0.0  # the steps measured had interior data
    assert max(peaks) <= 1.5 * bulk + 64 * modes * np.dtype(complex).itemsize


@pytest.mark.parametrize("variant", ["HeatDynBC", "KPPRoadField"])
def test_a_step_on_one_mode_allocates_a_fraction_of_a_bulk(variant):
    # constant boundary data reach one mode of the default grid: past the first two steps, which gather
    # the plan to it and build its sweep, a step's forcing, change, norms and new state are that mode's
    # rows, not a bulk
    tg, ng = make_grids()
    bulk = tg.shape[0] * ng.M * np.dtype(complex).itemsize
    steps = implicit_euler_evolve(DynBCProblem(variant, tg, ng), None, lambda t: _const_boundary(tg), 0.01, 0.05)
    rec = next(steps)
    rec = next(steps)
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rec = next(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert rec.interior_norm > 0.0
    assert max(peaks) < bulk / 10


def test_evolve_zero_data_stays_zero():
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    records = list(implicit_euler_evolve(prob, None, None, 0.25, 1.0))
    assert len(records) == 4
    assert [r.t for r in records] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    for r in records:
        assert r.delta == 0.0
        assert lp_norm(r.v, 2.0) == 0.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_evolve_constant_data_settles(variant):
    tg, ng = make_grids(N=8, M=64)
    prob = DynBCProblem(variant, tg, ng)
    records = implicit_euler_evolve(prob, None, lambda t: _const_boundary(tg), 0.125, 1.0)
    deltas = [r.delta for r in records]
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="on the default normal grid (last spacing 0.76) the discrete Euler step "
    "map has spectral radius 3.70 at xi = 0; the trapezoid Green quadrature "
    "amplifies where h * tau is large",
)
def test_evolve_heat_interior_stays_bounded_on_default_normal_grid():
    # the README evolve (dt 0.01, T 1, constant data) on two tangential modes
    tg, ng = make_grids(N=2)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    records = list(implicit_euler_evolve(prob, None, lambda t: _const_boundary(tg), 0.01, 1.0))
    final = records[-1]
    assert lp_norm(final.u, 2.0) <= 10.0 * lp_norm(final.v, 2.0)


def test_evolve_divisibility_check():
    tg, ng = make_grids(N=8, M=32)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    with pytest.raises(ValueError):
        implicit_euler_evolve(prob, None, None, 0.3, 1.0)


@pytest.mark.parametrize(
    "dt, T", [(0.01, math.inf), (math.nan, 1.0), (math.inf, math.inf), (0.01, math.nan), (-math.inf, 1.0)]
)
def test_evolve_refuses_nonfinite_step_or_horizon(dt, T):
    # refused with the usage error, before round(T / dt) overflows or the plan is built
    tg, ng = make_grids(N=8, M=32)
    with pytest.raises(ValueError, match="positive and finite"):
        implicit_euler_evolve(DynBCProblem("HeatDynBC", tg, ng), None, None, dt, T)


def test_road_symbol_scan_report():
    report = road_symbol_scan()
    assert report["n"] == 120
    assert 1.2 <= report["sup_m1"] <= 1.4
    assert 2.5 <= report["sup_m2"] <= 3.5
    assert report["min_f_minus_k"] > 0.0
    assert report["inner_max_m1"] <= 0.01 * report["sup_m1"]
    assert report["outer_max_m1"] <= 0.01 * report["sup_m1"]


@pytest.mark.parametrize("n", [0, -1])
def test_road_symbol_scan_refuses_an_empty_lattice(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        road_symbol_scan(n=n)


def test_road_symbol_scan_refinement_stable():
    base = road_symbol_scan(n=120)
    fine = road_symbol_scan(n=240)
    assert abs(fine["sup_m1"] - base["sup_m1"]) < 0.10 * base["sup_m1"]
    assert abs(fine["sup_m2"] - base["sup_m2"]) < 0.10 * base["sup_m2"]


@pytest.mark.parametrize(
    "d, dprime, kcoef, n",
    [(0.5, 2.0, 1.5, 100), (1.0, 1.0, 1.0, 1), (1.0, 1.0, 1.0, 2), (2.0, 0.3, 4.0, 7), (0.2, 5.0, 0.7, 33),
     (1.0, 1.0, 1.0, 241)],
)
def test_road_symbol_scan_blocks_match_the_whole_lattice(d, dprime, kcoef, n):
    # the scan evaluates blocks of the +angle z rows only; the whole 2n x 5n
    # lattice at once, both z rays and every shell point, is the reference,
    # and max and min leave nothing to round
    mags = np.geomspace(1e-3, 1e3, n)
    angle = dynbc._ROAD_Z_ANGLE
    z = np.concatenate([mags * np.exp(1j * angle), mags * np.exp(-1j * angle)])[:, None]
    mu = np.concatenate([mags * np.exp(1j * a) for a in dynbc._ROAD_MU_ANGLES])[None, :]
    den, root = dynbc._road_symbol(z * z, mu * mu, d, dprime, kcoef)
    m1 = np.abs(mu * mu * kcoef / den)
    radius = np.hypot(np.abs(z), np.abs(mu))
    assert road_symbol_scan(d, dprime, kcoef, n=n) == {
        "sup_m1": float(np.max(m1)),
        "sup_m2": float(np.max(np.abs(mu * mu * root / den))),
        "min_f_minus_k": float(np.min(np.abs(den))),
        "inner_max_m1": float(np.max(m1[radius <= 2e-3], initial=0.0)),
        "outer_max_m1": float(np.max(m1[radius >= 1e3], initial=0.0)),
        "n": n,
    }


_ROAD_POINTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    z=_ROAD_POINTS,
    mu=_ROAD_POINTS,
    d=st.floats(1e-2, 1e2),
    dprime=st.floats(1e-2, 1e2),
    kcoef=st.floats(1e-2, 1e2),
)
def test_road_symbol_is_conjugate_symmetric(z, mu, d, dprime, kcoef):
    # real coefficients: the value at (conj z, conj mu) is the conjugate, bit
    # for bit; only on the root's branch cut (a real negative radicand) does a
    # signed zero pick the side, and the scan's lattice never reaches it
    s, mu2 = np.complex128(z) ** 2, np.complex128(mu) ** 2
    radicand = d * mu2 + d * d * s
    assume(not (radicand.imag == 0.0 and radicand.real < 0.0))
    den, root = _road_symbol(s, mu2, d, dprime, kcoef)
    den_c, root_c = _road_symbol(np.conj(s), np.conj(mu2), d, dprime, kcoef)
    assert den_c == np.conj(den)
    assert root_c == np.conj(root)


def test_road_symbol_scan_refuses_angles_not_closed_under_conjugation(monkeypatch):
    # the half lattice is exact only for mu angles closed under negation
    monkeypatch.setattr(dynbc, "_ROAD_MU_ANGLES", (0.0, 0.35 * math.pi, -0.35 * math.pi, 0.44 * math.pi))
    with pytest.raises(RuntimeError, match="not closed under conjugation"):
        road_symbol_scan(n=8)


@pytest.mark.parametrize("n", [480, 2000])
def test_road_symbol_scan_memory_does_not_grow_with_the_lattice(n):
    # the whole n = 2000 lattice is 4000 x 10000 complex values, 610 MiB per
    # array; a block holds 9,600 lattice points (one row of 10,000 at n = 2000),
    # 1.0 and 1.7 MiB with their temporaries, where blocks of 38,400 took 3.0
    tracemalloc.start()
    try:
        road_symbol_scan(n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("n", [1, 7, 120, 241, 480])
def test_road_symbol_scan_does_not_depend_on_the_block_size(monkeypatch, n):
    # max and min are exact, so blocks of 38,400 and of 9,600 points report the same scan
    reports = []
    for size in (38_400, 9_600):
        monkeypatch.setattr(dynbc, "_ROAD_BLOCK_SIZE", size)
        reports.append(road_symbol_scan(n=n))
    assert reports[0] == reports[1]


def test_boundary_symbol_gain_bounded():
    tg, ng = make_grids(N=32, M=32)
    for variant, shift in (("HeatDynBC", 0.0), ("CahnHilliardBoundary", 0.25), ("KPPRoadField", 0.25)):
        prob = DynBCProblem(variant, tg, ng)
        for m in (0.1, 1.0, 10.0, 100.0):
            scaled = (1.0 + m * m) * boundary_symbol_gain(prob, m, shift)
            assert 0.0 < scaled <= 2.5


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    dim=st.integers(1, 2),
    N=st.sampled_from([2, 4, 8, 16, 32]),
    M=st.integers(3, 64),
    L=st.floats(0.5, 20.0),
    ray=st.floats(-0.7 * math.pi / 4.0, 0.7 * math.pi / 4.0),
    log_mu=st.floats(-1.0, 3.0),
    shift=st.floats(0.0, 1.0),
)
def test_bracket_times_gain_stays_under_the_sectoriality_cap(variant, dim, N, M, L, ray, log_mu, shift):
    # (1 + |mu|^2) |v-hat / g-hat| <= 2.5, the sectoriality gate's cap, off its
    # lattice: any grid, ray inside the gate's angle, |mu| in [0.1, 1e3] and
    # shift in [0, 1] (in [0.25, 1] for the two variants not invertible at the origin)
    if variant != "HeatDynBC":
        shift = 0.25 + 0.75 * shift
    tg, ng = make_grids(dim=dim, N=N, M=M, L=L)
    m = 10.0**log_mu
    scaled = (1.0 + m * m) * boundary_symbol_gain(DynBCProblem(variant, tg, ng), m * cmath.exp(1j * ray), shift)
    assert 0.0 < scaled <= 2.5


@pytest.mark.parametrize(
    "variant, params",
    [(v, (1.0, 1.0, 1.0)) for v in VARIANTS] + [("KPPRoadField", (0.3, 2.5, 4.0))],
)
@pytest.mark.parametrize("shift", [0.0, 0.25])
@pytest.mark.parametrize("ray", [0.0, 0.3 * math.pi, -0.4 * math.pi])
def test_boundary_symbol_gain_is_the_boundary_symbols_maximum(variant, params, shift, ray):
    # the gain runs the resolvent's own plan and step; the symbols are written independently
    tg, ng = make_grids(dim=2, N=8, M=8)
    mu = 1.7 * complex(math.cos(ray), math.sin(ray))
    prob = DynBCProblem(variant, tg, ng, *params)
    mu_eff = np.sqrt(mu * mu + shift)
    b = BOUNDARY_SYMBOL[variant](*params)
    want = np.max(np.abs(b.func(tg.freq_vectors, mu_eff))) / abs(mu_eff * mu_eff)
    assert boundary_symbol_gain(prob, mu, shift) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_variants_are_a_plan_and_a_step():
    assert _VARIANTS["HeatDynBC"]._fields == ("plan", "step", "reads_f")


def test_boundary_symbol_gain_origin_rejected():
    # the origin lies outside every sector; sqrt(mu^2 + shift) alone would
    # fold -mu back inside, so the gain checks mu itself as well
    tg, ng = make_grids(N=8, M=16)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    with pytest.raises(ValueError):
        boundary_symbol_gain(prob, 0.0)
