"""Field norms: plain, weak, mixed, dyadic, totally characteristic, operator."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norm_reference import RELAYOUTS, ref_field_norm
from poissonops.core import BoundaryField, HalfSpaceField, NormalGrid, SectorError, bracket, make_grids
from poissonops.norms import (
    NormSpec,
    _Products,
    _StackNorm,
    field_norm,
    lp_norm,
    normal_derivative,
    opnorm_hilbert,
    weak_lp_norm,
)
from poissonops.symbols import _HALF_SECTOR, freeze_mu, heat_kernel, kpp_kernel
from poissonops.transforms import _radial_profile

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _separable(tg, ng, profile):
    samples = np.ones(tg.shape, dtype=complex)[..., None] * profile(ng.nodes)[None, :]
    return HalfSpaceField(tg, ng, samples)


def test_lp_norm_constant_boundary():
    tg, _ = make_grids(N=32)
    g = BoundaryField(tg, np.ones(tg.shape))
    assert lp_norm(g, 2.0) == pytest.approx(SQRT_2PI, rel=1e-13)
    tg_half, _ = make_grids(N=32, L=math.pi)
    g = BoundaryField(tg_half, np.ones(tg_half.shape))
    assert lp_norm(g, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert lp_norm(BoundaryField(tg, np.zeros(tg.shape)), 1.5) == 0.0


def test_lp_norm_homogeneity_and_triangle():
    tg, _ = make_grids(N=32)
    rng = np.random.default_rng(0)
    a = BoundaryField(tg, rng.standard_normal(tg.shape))
    b = BoundaryField(tg, rng.standard_normal(tg.shape))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert lp_norm(BoundaryField(tg, 3.0 * a.samples), p) == pytest.approx(
            3.0 * lp_norm(a, p), rel=1e-12
        )
        lhs = lp_norm(BoundaryField(tg, a.samples + b.samples), p)
        assert lhs <= lp_norm(a, p) + lp_norm(b, p) + 1e-12


def test_lp_norm_exponent_validation():
    tg, _ = make_grids(N=8)
    g = BoundaryField(tg, np.ones(tg.shape))
    with pytest.raises(ValueError):
        lp_norm(g, 0.5)
    with pytest.raises(ValueError):
        lp_norm(g, math.inf)


def test_weak_lp_norm_single_cell():
    assert weak_lp_norm([2.0], [0.5], 4.0) == pytest.approx(2.0 * 0.5**0.25, rel=1e-14)


def test_weak_lp_norm_indicator():
    got = weak_lp_norm([1.0, 1.0, 0.0], [0.5, 0.25, 10.0], 2.0)
    assert got == pytest.approx(math.sqrt(0.75), rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_weak_lp_norm_critical_power(p):
    # f(t) = t^(-1/p) has Lorentz quasinorm exactly one on (0, T]
    edges = np.geomspace(1e-6, 1e2, 4001)
    mids = np.sqrt(edges[1:] * edges[:-1])
    got = weak_lp_norm(mids ** (-1.0 / p), np.diff(edges), p)
    assert got == pytest.approx(1.0, rel=2e-2)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_weak_lp_norm_chebyshev(p):
    rng = np.random.default_rng(3)
    v = rng.random(200)
    m = rng.random(200) + 0.05
    strong = float(np.sum(v**p * m) ** (1.0 / p))
    assert weak_lp_norm(v, m, p) <= strong + 1e-12


def test_weak_lp_norm_validation():
    with pytest.raises(ValueError):
        weak_lp_norm([-1.0], [1.0], 2.0)
    with pytest.raises(ValueError):
        weak_lp_norm([1.0], [0.0], 2.0)
    with pytest.raises(ValueError):
        weak_lp_norm([1.0, 2.0], [1.0], 2.0)


def test_normal_derivative_exact_on_quadratics():
    ng = NormalGrid(32, 4.0, 1.1)
    d1 = normal_derivative(ng.nodes**2, ng, 1)
    np.testing.assert_allclose(d1.real, 2.0 * ng.nodes, atol=1e-10)
    d2 = normal_derivative(ng.nodes**2, ng, 2)
    np.testing.assert_allclose(d2.real, 2.0, atol=1e-9)


def test_normal_derivative_needs_three_nodes():
    tg, ng = make_grids(N=8, M=2)
    u = HalfSpaceField(tg, ng, np.ones((8, 2), dtype=complex))
    with pytest.raises(ValueError, match="at least three normal nodes"):
        normal_derivative(u.samples, ng, 1)
    with pytest.raises(ValueError, match="at least three normal nodes"):
        field_norm(u, NormSpec("Mixed", m=1))
    # no derivative is taken at m = 0, and three nodes carry the stencils
    assert field_norm(u, NormSpec("Mixed")) > 0.0
    ng3 = NormalGrid(3)
    np.testing.assert_allclose(normal_derivative(ng3.nodes**2, ng3, 1).real, 2.0 * ng3.nodes, atol=1e-12)


def test_mixed_norm_separable_product():
    tg, ng = make_grids(N=32, M=256)
    u = _separable(tg, ng, lambda x: np.exp(-x))
    # ||1||_{L2(0,2pi)} * ||exp(-x)||_{L2(R+)} = sqrt(2 pi) * sqrt(1/2)
    assert field_norm(u, NormSpec("Mixed")) == pytest.approx(math.sqrt(math.pi), rel=1e-3)


def test_mixed_norm_derivative_budget_ratio():
    tg, ng = make_grids(N=16, M=256)
    u = _separable(tg, ng, lambda x: np.exp(-x))
    base = field_norm(u, NormSpec("Mixed"))
    # |d/dx exp(-x)| = exp(-x), so the m=1 sum doubles the m=0 value
    assert field_norm(u, NormSpec("Mixed", m=1)) == pytest.approx(2.0 * base, rel=1e-2)


def test_mixed_norm_equals_lp_when_exponents_match():
    tg, ng = make_grids(N=16, M=64)
    rng = np.random.default_rng(7)
    u = HalfSpaceField(tg, ng, rng.standard_normal((16, 64)))
    for p in (1.5, 2.0, 3.0):
        assert field_norm(u, NormSpec("Mixed", p=p, q=p)) == pytest.approx(lp_norm(u, p), rel=1e-10)


def test_mixed_norm_weak_closed_form():
    tg, ng = make_grids(N=16, M=256)
    u = _separable(tg, ng, lambda x: np.exp(-x))
    # sup_x exp(-x) sqrt(x) = sqrt(1/2) e^(-1/2), times the tangential factor
    want = SQRT_2PI * math.sqrt(0.5) * math.exp(-0.5)
    assert field_norm(u, NormSpec("Mixed", weak=True)) == pytest.approx(want, rel=2e-2)


def test_mixed_norm_weak_below_strong():
    tg, ng = make_grids(N=16, M=128)
    u = _separable(tg, ng, lambda x: np.exp(-0.7 * x))
    for p in (1.5, 2.0, 4.0):
        assert field_norm(u, NormSpec("Mixed", p=p, weak=True)) <= field_norm(u, NormSpec("Mixed", p=p)) + 1e-12


def test_tot_char_norm_exponential_profile():
    tg, ng = make_grids(N=16, M=256)
    u = _separable(tg, ng, lambda x: np.exp(-x))
    # ||exp(-x)|| = sqrt(1/2); ||x exp(-x)|| = 1/2; ||(x^2-x) exp(-x)|| = 1/2
    want1 = SQRT_2PI * (math.sqrt(0.5) + 0.5)
    want2 = SQRT_2PI * (math.sqrt(0.5) + 0.5 + 0.5)
    assert field_norm(u, NormSpec("TotChar", s=1)) == pytest.approx(want1, rel=1e-2)
    assert field_norm(u, NormSpec("TotChar", s=2)) == pytest.approx(want2, rel=1e-2)


def test_tot_char_norm_matches_mixed_at_zero():
    tg, ng = make_grids(N=16, M=64)
    rng = np.random.default_rng(11)
    u = HalfSpaceField(tg, ng, rng.standard_normal((16, 64)))
    assert field_norm(u, NormSpec("TotChar")) == pytest.approx(field_norm(u, NormSpec("Mixed")), rel=1e-12)


def test_besov_norm_single_mode():
    tg, _ = make_grids(N=64)
    g = BoundaryField(tg, np.exp(1j * 4.0 * tg.points_1d))
    # |k| = 4 sits in dyadic block 2, so the norm is 2^(2s) ||g||_2
    assert field_norm(g, NormSpec("Besov", s=0.5)) == pytest.approx(2.0 * SQRT_2PI, rel=1e-12)
    assert field_norm(g, NormSpec("Besov", s=1.0)) == pytest.approx(4.0 * SQRT_2PI, rel=1e-12)


def test_besov_norm_zero_smoothness_band():
    tg, _ = make_grids(N=64)
    rng = np.random.default_rng(2)
    g = BoundaryField(tg, rng.standard_normal(tg.shape) + 1j * rng.standard_normal(tg.shape))
    ratio = field_norm(g, NormSpec("Besov")) / lp_norm(g, 2.0)
    # block overlap can only shed square mass, at most a factor sqrt(2)
    assert math.sqrt(0.5) - 1e-9 <= ratio <= 1.0 + 1e-9


def test_besov_norm_summation_ordering():
    tg, _ = make_grids(N=64)
    rng = np.random.default_rng(4)
    g = BoundaryField(tg, rng.standard_normal(tg.shape))
    assert field_norm(g, NormSpec("Besov", s=0.3, q=1.0)) >= field_norm(g, NormSpec("Besov", s=0.3)) - 1e-12


def test_bessel2_norm_values():
    tg, _ = make_grids(N=32)
    g = BoundaryField(tg, np.exp(1j * 3.0 * tg.points_1d))
    assert field_norm(g, NormSpec("Bessel2")) == pytest.approx(SQRT_2PI, rel=1e-12)
    assert field_norm(g, NormSpec("Bessel2", s=2.0)) == pytest.approx(10.0 * SQRT_2PI, rel=1e-12)
    rng = np.random.default_rng(6)
    h = BoundaryField(tg, rng.standard_normal(tg.shape))
    assert field_norm(h, NormSpec("Bessel2")) == pytest.approx(lp_norm(h, 2.0), rel=1e-12)
    assert field_norm(h, NormSpec("Bessel2", s=1.0)) <= field_norm(h, NormSpec("Bessel2", s=2.0)) + 1e-12


def test_opnorm_heat_closed_form_t0():
    tg, ng = make_grids(N=64, M=256)
    for mu in (1.0, 10.0, 100.0):
        want = (2.0 * math.sqrt(1.0 + mu * mu)) ** -0.5
        assert opnorm_hilbert(heat_kernel, mu, 0.0, 0.0, tg, ng) == pytest.approx(want, rel=5e-3)


def test_opnorm_heat_closed_form_integer_t():
    tg, ng = make_grids(N=64, M=256)
    # s=1, t=1, mu=1: supremum at xi=0 equals sqrt(2^(-3/2) + 2^(-1/2))
    want = math.sqrt(2.0 ** (-1.5) + 2.0 ** (-0.5))
    assert opnorm_hilbert(heat_kernel, 1.0, 1.0, 1.0, tg, ng) == pytest.approx(want, rel=5e-3)


def test_opnorm_heat_closed_form_fractional_t():
    tg, ng = make_grids(N=64, M=256)
    # s=t=1/2, mu=1: the interpolated surrogate at xi=0 is exactly 1/2
    want = math.sqrt(1.0 / (2.0 * math.sqrt(2.0)) + 0.5)
    assert opnorm_hilbert(heat_kernel, 1.0, 0.5, 0.5, tg, ng) == pytest.approx(want, rel=5e-3)


def test_opnorm_fd_fallback_matches_closed_form():
    # without the decay rate the profiles are |func(..., order)|^2, the
    # kernel's own normal derivatives; mu=2, s=1/2, t=1: with b = 1 + |xi|^2
    # the squared symbol is (b + 2) / sqrt(b (b + 4)), decreasing in b, so the
    # supremum at xi=0 is sqrt(3 / sqrt(5))
    tg, ng = make_grids(N=16, M=256)
    bare = replace(heat_kernel, rate=None)
    want = math.sqrt(3.0 / math.sqrt(5.0))
    assert opnorm_hilbert(bare, 2.0, 0.5, 1.0, tg, ng) == pytest.approx(want, rel=2e-2)


@pytest.mark.parametrize("mu", [2.0, 3.0 + 1.0j])
def test_opnorm_frozen_kernel_keeps_derivative_hook(mu):
    # the frozen kernel forwards its func and decay rate unchanged
    tg, ng = make_grids(N=16, M=256)
    frozen = opnorm_hilbert(freeze_mu(heat_kernel, mu), None, 0.5, 1.0, tg, ng)
    assert frozen == opnorm_hilbert(heat_kernel, mu, 0.5, 1.0, tg, ng)


@settings(max_examples=150, deadline=None)
@given(
    kpp_d=st.one_of(st.none(), st.floats(0.05, 20.0)),
    frozen=st.booleans(),
    dim=st.integers(1, 2),
    N=st.sampled_from([4, 8, 16]),
    M=st.integers(3, 48),
    mu_abs=st.floats(0.01, 1e3),
    mu_frac=st.floats(-0.999, 0.999),
    s=st.floats(-1.0, 2.0),
    t=st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5, 2.0]),
)
def test_opnorm_modulus_hook_matches_the_complex_path(kpp_d, frozen, dim, N, M, mu_abs, mu_frac, s, t):
    # |r|^n times the order-0 norm, from one real exponential, against |func(..., n)|^2
    k = heat_kernel if kpp_d is None else kpp_kernel(kpp_d)
    mu = _HALF_SECTOR.require(mu_abs * np.exp(1j * mu_frac * _HALF_SECTOR.beta))
    if frozen:
        k, mu = freeze_mu(k, mu), None
    tg, ng = make_grids(dim=dim, N=N, M=M, X_max=8.0, r=1.1)
    want = opnorm_hilbert(replace(k, rate=None), mu, s, t, tg, ng)
    assert opnorm_hilbert(k, mu, s, t, tg, ng) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_opnorm_with_the_modulus_hook_evaluates_no_complex_profile():
    # a decay kernel's norms take one rate call per opnorm_hilbert call and no func call
    def complex_path(*args):
        raise AssertionError("complex profile evaluated")

    calls = []

    def rate(xi, mu):
        calls.append(mu)
        return heat_kernel.rate(xi, mu)

    tg, ng = make_grids(N=16, M=128)
    real_only = replace(heat_kernel, func=complex_path, rate=rate)
    for mu, s, t in ((2.0, 0.5, 1.0), (3.0 + 1.0j, 0.25, 0.75), (1.0, 0.0, 0.0)):
        want = opnorm_hilbert(replace(heat_kernel, rate=None), mu, s, t, tg, ng)
        calls.clear()
        assert opnorm_hilbert(real_only, mu, s, t, tg, ng) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert calls == [mu]


def _opnorm_per_mode(k, mu, s, t, grid, ngrid):
    """``opnorm_hilbert``'s formula evaluated at every lattice mode."""
    fv = grid.freq_vectors[..., None, :]

    if k.rate is None:

        def l2_of(order):
            return np.sqrt(np.sum(np.abs(k.func(fv, mu, ngrid.nodes, order)) ** 2 * ngrid.weights, axis=-1))

    else:
        r = k.rate(fv, mu)
        decay = np.sqrt(np.sum(np.exp(-2.0 * np.real(r) * ngrid.nodes) * ngrid.weights, axis=-1))

        def l2_of(order):
            return np.abs(r[..., 0]) ** order * decay

    l2 = l2_of(0)
    bxi = bracket(grid.freq_vectors)
    if t == 0:
        return float(np.max(bxi ** (-s) * l2))
    tc = math.ceil(t)
    l2d = l2_of(tc)
    if t == tc:
        surr = l2d
    else:
        theta = t / tc
        surr = l2 ** (1.0 - theta) * l2d**theta
    return float(np.max(bxi ** (-s) * np.sqrt(bxi ** (2.0 * t) * l2**2 + surr**2)))


@pytest.mark.parametrize("kpp_d", [None, 2.5])
@pytest.mark.parametrize("mu", [2.0, 3.0 + 1.0j])
@pytest.mark.parametrize("s, t", [(0.5, 0.0), (0.25, 1.0), (0.5, 0.75), (1.0, 2.0)])
@pytest.mark.parametrize("modulus", [True, False])
@pytest.mark.parametrize("dim, N, M, L", [(1, 64, 48, 2.0 * math.pi), (2, 16, 32, 3.0), (3, 8, 16, 3.0)])
def test_opnorm_matches_the_per_mode_supremum(kpp_d, mu, s, t, modulus, dim, N, M, L):
    # the sup over the distinct |xi|^2 is the sup over the modes, bit for bit
    k = heat_kernel if kpp_d is None else kpp_kernel(kpp_d)
    if not modulus:
        k = replace(k, rate=None)
    tg, ng = make_grids(dim=dim, N=N, M=M, L=L, X_max=8.0, r=1.1)
    assert opnorm_hilbert(k, mu, s, t, tg, ng) == _opnorm_per_mode(k, mu, s, t, tg, ng)


def test_opnorm_domain_checks():
    tg, ng = make_grids(N=16, M=64)
    with pytest.raises(ValueError):
        opnorm_hilbert(heat_kernel, 1.0, 0.0, -0.5, tg, ng)
    with pytest.raises(SectorError):
        opnorm_hilbert(heat_kernel, None, 0.0, 0.0, tg, ng)
    with pytest.raises(SectorError):
        opnorm_hilbert(heat_kernel, -1.0, 0.0, 0.0, tg, ng)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("Zorp")
    with pytest.raises(ValueError):
        NormSpec("Lp", p=0.5)
    with pytest.raises(ValueError):
        NormSpec("WeakLp", p=1.0)
    with pytest.raises(ValueError):
        NormSpec("Mixed", m=4)
    with pytest.raises(ValueError):
        NormSpec("TotChar", s=0.5)
    with pytest.raises(ValueError):
        NormSpec("Bessel2", p=3.0)
    with pytest.raises(ValueError):
        NormSpec("Lp", weak=True)
    # every exponent a family uses is checked: a quasi-norm exponent is refused
    with pytest.raises(ValueError):
        NormSpec("TotChar", p=0.5, s=1)
    with pytest.raises(ValueError):
        NormSpec("TotChar", p=1.0)
    with pytest.raises(ValueError):
        NormSpec("WeakLp", q=0.5)
    with pytest.raises(ValueError):
        NormSpec("WeakLp", q=math.inf)


def test_field_norm_dispatch():
    tg, ng = make_grids(N=32, M=64)
    rng = np.random.default_rng(9)
    g = BoundaryField(tg, rng.standard_normal(tg.shape))
    u = HalfSpaceField(tg, ng, rng.standard_normal((32, 64)))
    # each family against its physical quadrature; WeakLp is the weak Mixed norm of order 0
    for f, spec in (
        (g, NormSpec("Lp", p=2.0)),
        (u, NormSpec("Mixed", p=1.5, q=2.0, m=1)),
        (u, NormSpec("WeakLp", p=2.0)),
        (g, NormSpec("Besov", p=2.0, q=2.0, s=0.5)),
        (u, NormSpec("TotChar", s=1)),
        (g, NormSpec("Bessel2", s=1.0)),
    ):
        assert field_norm(f, spec) == pytest.approx(ref_field_norm(f, spec), rel=1e-12)
    assert field_norm(u, NormSpec("WeakLp", p=2.0)) == pytest.approx(
        field_norm(u, NormSpec("Mixed", weak=True)), rel=1e-12
    )


def test_field_norm_type_errors():
    tg, ng = make_grids(N=8, M=16)
    g = BoundaryField(tg, np.ones(tg.shape))
    u = HalfSpaceField.zero(tg, ng)
    with pytest.raises(TypeError):
        field_norm(g, NormSpec("Mixed"))
    with pytest.raises(TypeError):
        field_norm(u, NormSpec("Besov"))
    with pytest.raises(TypeError):
        field_norm(u, NormSpec("Bessel2"))
    with pytest.raises(TypeError):
        field_norm(g, NormSpec("WeakLp"))


_DRAWN_NORM = dict(
    family=st.sampled_from(["Lp", "WeakLp", "Mixed", "Besov", "TotChar", "Bessel2"]),
    lp_on_half=st.booleans(),
    dim=st.integers(1, 2),
    N=st.sampled_from([8, 16, 32]),
    M=st.integers(3, 40),
    p=st.one_of(st.just(2.0), st.floats(1.0, 4.0, exclude_min=True)),
    q=st.one_of(st.just(2.0), st.floats(1.0, 4.0)),
    order=st.integers(0, 3),
    s=st.sampled_from([0.0, 0.5, 1.0, -1.0]),
    weak=st.booleans(),
    seed=st.integers(0, 2**16),
)


def _drawn_field(family, lp_on_half, dim, N, M, p, q, order, s, weak, seed):
    """A field of random samples and a norm of ``family`` that applies to it."""
    spec = {
        "Lp": NormSpec("Lp", p=p),
        "WeakLp": NormSpec("WeakLp", p=p, q=q),
        "Mixed": NormSpec("Mixed", p=p, q=q, m=order, weak=weak),
        "Besov": NormSpec("Besov", p=p, q=q, s=s),
        "TotChar": NormSpec("TotChar", p=p, q=q, s=order, weak=weak),
        "Bessel2": NormSpec("Bessel2", s=s),
    }[family]
    half = family in ("WeakLp", "Mixed", "TotChar") or (lp_on_half and family == "Lp")
    tg, ng = make_grids(dim=dim, N=N, M=M, X_max=4.0, r=1.2)
    rng = np.random.default_rng(seed)
    shape = tg.shape + ((M,) if half else ())
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (HalfSpaceField(tg, ng, samples) if half else BoundaryField(tg, samples)), spec


@settings(max_examples=300, deadline=None)
@given(**_DRAWN_NORM)
def test_field_norm_matches_the_physical_reference(**draw):
    # the stack engine on one summand against one quadrature per family
    f, spec = _drawn_field(**draw)
    assert field_norm(f, spec) == pytest.approx(ref_field_norm(f, spec), rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(relayout=st.sampled_from(RELAYOUTS), **_DRAWN_NORM)
def test_field_norm_does_not_follow_the_sample_layout(relayout, **draw):
    # equal samples in another memory layout give the same bits
    f, spec = _drawn_field(**draw)
    relaid = relayout(f.samples)
    assert np.array_equal(relaid, f.samples)
    if isinstance(f, HalfSpaceField):
        g = HalfSpaceField(f.tangential, f.normal, relaid)
    else:
        g = BoundaryField(f.grid, relaid)
    assert field_norm(g, spec) == field_norm(f, spec)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "norm",
    [NormSpec("Lp", p=2.0), NormSpec("Lp", p=3.0), NormSpec("Besov", p=2.0, q=1.5, s=0.5), NormSpec("Bessel2", s=-1.0)],
    ids=["L2", "L3", "Besov", "Bessel2"],
)
def test_radial_products_match_the_per_mode_stacks(dim, norm):
    # class sums, pair tables and weights at the representatives measure the
    # products m_j g_i as the per-mode stacks do; L = 3 splits permuted
    # frequencies into distinct classes in 2-D
    grid, _ = make_grids(dim=dim, N=8, L=3.0)
    rng = np.random.default_rng(dim)
    classes, modes = len(grid.radial[0]), 8**dim
    mults = rng.standard_normal((3, classes, 1)) + 1j * rng.standard_normal((3, classes, 1))
    spec = rng.standard_normal((4, modes)) + 1j * rng.standard_normal((4, modes))
    outs = _Products(_StackNorm(norm, grid, None, radial=True), mults, spec)
    form = _StackNorm(norm, grid, None)
    products = mults[:, grid.radial[1].ravel()][:, None] * spec[None, :, :, None]  # (n_ops, n_in, modes, 1)
    one = np.ones((1, 1))
    want = [[form.of_sums(form.orders(products[j, i][None]), one)[0] for i in range(4)] for j in range(3)]
    np.testing.assert_allclose(outs.singles(), want, rtol=1e-12, atol=0.0)
    sel_ops, sel_in = np.array([2, 0, 2, 1]), np.array([1, 3, 0, 1])
    eps = rng.choice([-1.0, 1.0], (5, 4))
    stack = np.stack([products[j, i] for j, i in zip(sel_ops, sel_in)])
    np.testing.assert_allclose(outs.of_sums(sel_ops, sel_in, eps), form.of_sums(form.orders(stack), eps), rtol=1e-12)


def test_monte_carlo_numerator_allocates_less_than_one_product_stack():
    # once the pair table is built (on the first sampled sum of a family), a
    # size-4 sign sum of Poisson products on the README grid allocates its
    # class-summed pair products and its Gram matrices, not an (M, 4, modes)
    # product stack
    tg, ng = make_grids()
    stack = ng.M * 4 * tg.shape[0] * np.dtype(complex).itemsize
    mults = np.stack([_radial_profile(heat_kernel, mu, tg, ng) for mu in (1.0, 2.0, 4.0, 8.0)])
    spec = np.exp(2j * math.pi * np.random.default_rng(0).random((19, tg.shape[0])))
    outs = _Products(_StackNorm(NormSpec("Mixed", p=1.5, q=2.0, weak=True), tg, ng, radial=True), mults, spec)
    eps = np.random.default_rng(1).choice([-1.0, 1.0], (32, 4))
    outs.of_sums(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]), eps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norms = outs.of_sums(np.array([3, 1, 1, 0]), np.array([4, 9, 12, 0]), eps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert norms.shape == (32,) and np.all(norms > 0.0)
    assert peak < stack
