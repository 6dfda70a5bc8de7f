"""Randomized signs, sign-sum norms, lower bounds, and decay-rate fits."""
from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norm_reference import RELAYOUTS, is_hilbert, ref_field_norm
from poissonops.cli import main
from poissonops.core import BoundaryField, HalfSpaceField, bracket, make_grids
from poissonops.norms import NormSpec, _Products, _spectra, _StackNorm, field_norm, lp_norm, opnorm_hilbert
from poissonops.rbound import (
    RademacherSampler,
    RBoundEstimate,
    ScanResult,
    eps_p_norm,
    probe_dictionary,
    rbound_lower,
)
from poissonops.symbols import heat_kernel, kpp_kernel
from poissonops.transforms import _itfft, _radial_profile, _tfft

L2 = NormSpec("Lp", p=2.0)


def test_sampler_unit_modulus_and_determinism():
    s = RademacherSampler(seed=42)
    draws = s.unit(1000)
    np.testing.assert_allclose(np.abs(draws), 1.0, atol=1e-12)
    np.testing.assert_array_equal(draws, RademacherSampler(seed=42).unit(1000))
    assert not np.array_equal(draws, RademacherSampler(seed=43).unit(1000))
    # children differ from each other and from their parent; the same (seed, key) agrees
    kids = [s.child(i).unit(1000) for i in range(3)]
    assert all(not np.array_equal(draws, k) for k in kids)
    assert not np.array_equal(kids[0], kids[1]) and not np.array_equal(kids[1], kids[2])
    np.testing.assert_array_equal(kids[1], RademacherSampler(42, (1,)).unit(1000))
    np.testing.assert_array_equal(s.child(1).child(2).unit(50), RademacherSampler(42, (1, 2)).unit(50))
    assert not np.array_equal(s.child(1).child(2).unit(50), s.child(2).child(1).unit(50))


def test_sampler_continues_one_stream_and_children_match_spawn():
    # unit and integers continue one generator; child i is SeedSequence.spawn's i-th child
    s = RademacherSampler(seed=3)
    first, second = s.unit(10), s.unit(10)
    np.testing.assert_array_equal(np.concatenate([first, second]), RademacherSampler(seed=3).unit(20))
    spawned = np.random.SeedSequence(3).spawn(3)[2]
    gen = np.random.Generator(np.random.Philox(spawned))
    np.testing.assert_array_equal(s.child(2).unit(10), np.exp(2j * math.pi * gen.random(10)))


def test_sampler_mean_vanishes():
    draws = RademacherSampler(seed=7).unit(100_000)
    assert abs(np.mean(draws)) <= 0.02


def test_sampler_integers_range():
    vals = RademacherSampler(seed=1).integers(2, 9, 500)
    assert vals.min() >= 2 and vals.max() <= 8


def test_eps_p_norm_single_field_is_exact():
    tg, _ = make_grids(N=32)
    rng = np.random.default_rng(0)
    g = BoundaryField(tg, rng.standard_normal(tg.shape))
    assert eps_p_norm([g], 1.5, L2) == pytest.approx(lp_norm(g, 2.0), rel=1e-12)


def test_eps_p_norm_hilbert_square_sum():
    tg, _ = make_grids(N=32)
    rng = np.random.default_rng(1)
    g = BoundaryField(tg, rng.standard_normal(tg.shape))
    h = BoundaryField(tg, rng.standard_normal(tg.shape))
    want = math.hypot(lp_norm(g, 2.0), lp_norm(h, 2.0))
    assert eps_p_norm([g, h], 2.0, L2) == pytest.approx(want, rel=1e-12)
    assert eps_p_norm([g, g], 2.0, L2) == pytest.approx(math.sqrt(2.0) * lp_norm(g, 2.0), rel=1e-12)
    # Besov with p = q = 2 is a weighted L^2 norm: the l^2 sum over blocks keeps it Hilbert
    besov = NormSpec("Besov", p=2.0, q=2.0, s=0.5)
    want = math.hypot(field_norm(g, besov), field_norm(h, besov))
    assert eps_p_norm([g, h], 2.0, besov) == pytest.approx(want, rel=1e-12)


def test_eps_p_norm_exact_vs_monte_carlo():
    tg, _ = make_grids(N=16)
    rng = np.random.default_rng(2)
    fields = [BoundaryField(tg, rng.standard_normal(tg.shape)) for _ in range(4)]
    exact = eps_p_norm(fields, 2.0, L2)
    # hand-rolled Monte-Carlo of the same expectation with the same sampler
    trials = 4000
    eps = RademacherSampler(seed=5).unit(trials * 4).reshape(trials, 4)
    stack = np.stack([f.samples for f in fields])
    draws = np.array(
        [lp_norm(BoundaryField(tg, np.tensordot(e, stack, axes=(0, 0))), 2.0) ** 2 for e in eps]
    )
    mc = math.sqrt(float(np.mean(draws)))
    stderr_sq = float(np.std(draws, ddof=1) / math.sqrt(trials))
    stderr = stderr_sq / (2.0 * mc)
    assert abs(mc - exact) <= 3.0 * stderr


_EXPONENT, _INNER = st.floats(1.1, 4.0), st.floats(1.0, 4.0)
_NORMS = st.one_of(  # norms only: the weak quasinorms fail the triangle inequality
    st.builds(NormSpec, st.just("Lp"), p=st.floats(1.0, 4.0)),
    st.builds(NormSpec, st.just("Besov"), p=_EXPONENT, q=_INNER, s=st.sampled_from([-1.0, 0.5])),
    st.builds(NormSpec, st.just("Bessel2"), s=st.sampled_from([-1.0, 0.0, 0.5])),
    st.builds(NormSpec, st.just("Mixed"), p=_EXPONENT, q=_INNER, m=st.integers(0, 2)),
    st.builds(NormSpec, st.just("TotChar"), p=_EXPONENT, q=_INNER, s=st.sampled_from([0.0, 1.0])),
)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 2),
    M=st.integers(3, 8),
    p=st.floats(1.0, 4.0),
    norm=_NORMS,
    half=st.booleans(),
    scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_an_exact_rademacher_average_bounds_every_summand(dim, M, p, norm, half, scales, seed):
    # contraction principle: (||x + y|| + ||x - y||) / 2 >= ||x|| for a norm, and t^p is convex, so
    # the exact average (E ||sum_k eps_k x_k||^p)^(1/p) is at least max_k ||x_k||: no restart's
    # denominator falls below its largest singleton
    grid, normal = make_grids(dim=dim, N=8, M=M, X_max=4.0, r=1.2)
    half = norm.family in ("Mixed", "TotChar") or (half and norm.family == "Lp")
    rng = np.random.default_rng(seed)
    shape = grid.shape + ((M,) if half else ())

    def field(scale):
        data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return HalfSpaceField(grid, normal, data) if half else BoundaryField(grid, data)

    fields = [field(scale) for scale in scales]
    trials = 2 ** (len(fields) - 1)
    average = eps_p_norm(fields, p, norm, trials=trials)
    # exact: no sign is drawn, so another seed gives the same bits
    assert eps_p_norm(fields, p, norm, trials=trials, sampler=RademacherSampler(seed + 1)) == average
    assert average >= max(field_norm(f, norm) for f in fields) * (1.0 - 1e-12)


def test_eps_p_norm_kahane_band():
    tg, _ = make_grids(N=16)
    rng = np.random.default_rng(3)
    fields = [BoundaryField(tg, rng.standard_normal(tg.shape)) for _ in range(5)]
    p1 = eps_p_norm(fields, 1.0, L2, trials=2000, sampler=RademacherSampler(seed=11))
    p2 = eps_p_norm(fields, 2.0, L2)
    assert 0.95 <= p2 / p1 <= 2.0


def test_eps_p_norm_grid_mismatch():
    tg1, _ = make_grids(N=16)
    tg2, _ = make_grids(N=32)
    a = BoundaryField(tg1, np.ones(tg1.shape))
    b = BoundaryField(tg2, np.ones(tg2.shape))
    with pytest.raises(ValueError):
        eps_p_norm([a, b], 2.0, L2)


def test_probe_dictionary_contents():
    tg, _ = make_grids(N=64)
    fields = probe_dictionary(tg)
    assert len(fields) == 19
    for f in fields:
        assert f.grid is tg
        assert lp_norm(f, 2.0) > 0.0


def test_probe_dictionary_two_dimensional():
    tg, _ = make_grids(dim=2, N=16)
    fields = probe_dictionary(tg)
    assert all(f.samples.shape == (16, 16) for f in fields)


def test_rbound_lower_scaled_identities():
    tg, _ = make_grids(N=64)
    inputs = probe_dictionary(tg)
    ops = [np.full(len(tg.radial[0]), c) for c in (1.0, 2.0, 3.0)]
    est = rbound_lower(ops, inputs, p=2.0, in_norm=L2, out_norm=L2, trials=8, restarts=4)
    assert est.value == pytest.approx(3.0, rel=1e-9)


def test_rbound_estimate_is_a_value_and_its_error():
    # the arguments of rbound_lower are the caller's; the estimate echoes none of them
    assert [f.name for f in dataclasses.fields(RBoundEstimate)] == ["value", "stderr"]


def test_rbound_lower_contraction_multiplier():
    tg, _ = make_grids(N=64)
    ops = [(1.0 + np.sum(tg.radial[0] ** 2, axis=-1)) ** -0.5]
    est = rbound_lower(ops, probe_dictionary(tg), p=2.0, in_norm=L2, out_norm=L2, trials=8, restarts=4)
    # the constant probe is untouched by the symbol, so the bound is sharp
    assert est.value == pytest.approx(1.0, rel=1e-6)


def test_rbound_lower_monotone_in_restarts():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [np.exp(-np.sum(tg.radial[0] ** 2, axis=-1)), np.full(len(tg.radial[0]), 2.0)]
    vals = [
        rbound_lower(ops, inputs, p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=r).value
        for r in (0, 2, 6)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_rbound_lower_restartless_floor():
    tg, _ = make_grids(N=16)
    inputs = probe_dictionary(tg)[:3]
    ops = [np.full(len(tg.radial[0]), 1.5), np.full(len(tg.radial[0]), 0.5)]
    est = rbound_lower(ops, inputs, p=2.0, in_norm=L2, out_norm=L2, trials=4, restarts=0)
    assert est.value == pytest.approx(1.5, rel=1e-12)


def test_rbound_lower_deterministic():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [np.full(len(tg.radial[0]), 0.7)]
    kw = dict(p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=8, sampler=RademacherSampler(seed=9))
    assert rbound_lower(ops, inputs, **kw).value == rbound_lower(ops, inputs, **kw).value


def test_one_sampler_object_gives_equal_repeated_calls():
    # the functions draw only from children of the sampler, so the object they
    # are handed is never advanced, even though it holds a generator
    tg, _ = make_grids(N=16)
    rng = np.random.default_rng(4)
    fields = [BoundaryField(tg, rng.standard_normal(tg.shape)) for _ in range(3)]
    sampler = RademacherSampler(seed=13)
    first = eps_p_norm(fields, 1.5, L2, trials=16, sampler=sampler)
    assert eps_p_norm(fields, 1.5, L2, trials=16, sampler=sampler) == first
    ops = [np.full(len(tg.radial[0]), 0.7), np.linspace(0.1, 1.0, len(tg.radial[0]))]
    kw = dict(p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=6, sampler=sampler)
    first = rbound_lower(ops, fields, **kw)
    assert rbound_lower(ops, fields, **kw) == first
    sampler.unit(5)  # advancing the caller's own stream does not reach the children
    assert rbound_lower(ops, fields, **kw) == first


@pytest.mark.parametrize("relayout", RELAYOUTS)
@pytest.mark.parametrize("q", [2.0, 1.5])
@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2])
def test_estimates_do_not_follow_the_layout(dim, p, q, relayout):
    # samples and (K, M) multipliers with equal values in another memory
    # layout give the same bits: q = 2 measures through class sums, q != 2
    # gathers the products to the modes
    tg, ng = make_grids(dim=dim, N=8, M=12, X_max=4.0)
    rng = np.random.default_rng(dim)
    shape = tg.shape + (ng.M,)
    fields = [HalfSpaceField(tg, ng, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(3)]
    relaid = [HalfSpaceField(tg, ng, relayout(f.samples)) for f in fields]
    norm = NormSpec("Mixed", p=p, q=q, m=1)
    assert eps_p_norm(relaid, p, norm, trials=16) == eps_p_norm(fields, p, norm, trials=16)

    ops = [_radial_profile(heat_kernel, mu, tg, ng) for mu in (0.5, 1.0 + 1.0j, 4.0)]
    inputs = probe_dictionary(tg)
    kw = dict(p=p, out_norm=NormSpec("Mixed", p=p, q=q), trials=8, restarts=6)
    want = rbound_lower(ops, inputs, ng, **kw)
    relaid_inputs = [BoundaryField(tg, relayout(g.samples)) for g in inputs]
    assert rbound_lower([relayout(m) for m in ops], relaid_inputs, ng, **kw) == want


def test_rbound_lower_empty_errors():
    tg, _ = make_grids(N=16)
    inputs = probe_dictionary(tg)
    with pytest.raises(ValueError):
        rbound_lower([], inputs)
    with pytest.raises(ValueError):
        rbound_lower([np.ones(tg.shape)], [])


@pytest.mark.parametrize("p", [math.inf, 0.0, -1.0, 0.5])
def test_eps_p_norm_rejects_exponents_outside_one_to_inf(p):
    # mean ** (1 / inf) is 1 whatever the fields are, and p = 0 would divide by zero
    tg, _ = make_grids(N=16)
    fields = [BoundaryField(tg, np.ones(tg.shape)), BoundaryField(tg, np.arange(16.0))]
    with pytest.raises(ValueError):
        eps_p_norm(fields, p, L2)


def test_eps_p_norm_rejects_zero_trials():
    tg, _ = make_grids(N=16)
    with pytest.raises(ValueError):
        eps_p_norm([BoundaryField(tg, np.ones(tg.shape))], 1.5, L2, trials=0)


@pytest.mark.parametrize(
    "kw", [{"p": math.inf}, {"p": 0.0}, {"p": -1.0}, {"restarts": -5}, {"trials": 0}],
    ids=["p-inf", "p-0", "p-neg", "restarts-neg", "trials-0"],
)
def test_rbound_lower_rejects_invalid_exponent_and_counts(kw):
    # refused before any work, also where no restart would reach a sampled sum
    tg, _ = make_grids(N=16)
    with pytest.raises(ValueError):
        rbound_lower([np.full(len(tg.radial[0]), 1.0)], probe_dictionary(tg), **kw)


@pytest.mark.parametrize("dim", [1, 2])
def test_rbound_lower_refuses_per_mode_multipliers(dim):
    # the family is given on the radial classes: a multiplier on every mode,
    # or a boundary multiplier where a Poisson operator is expected, is refused
    tg, ng = make_grids(dim=dim, N=16, M=8)
    K = len(tg.radial[0])
    for mult in (np.ones(tg.shape + (ng.M,)), np.ones(K)):
        with pytest.raises(ValueError, match=re.escape(str((K, ng.M)))):
            rbound_lower([mult], probe_dictionary(tg), ng)
    with pytest.raises(ValueError, match=re.escape(str((K,)))):
        rbound_lower([np.ones(tg.shape)], probe_dictionary(tg))
    rbound_lower([np.ones((K, ng.M))], probe_dictionary(tg), ng, restarts=0)


# ---------------------------------------------------------------------------
# the per-trial physical algorithm the spectral engine replaces


def _ref_sign_sum(fields, p, norm, trials, sampler):
    """One tensordot and one physical reference norm per Rademacher sign vector.

    Every sign vector with ``eps_0 = +1`` when there are at most ``trials``
    of them, else ``trials`` vectors of ``+-1`` signs drawn by ``integers``.
    """
    n = len(fields)
    if n == 1:
        return ref_field_norm(fields[0], norm)
    if p == 2 and is_hilbert(norm):
        return math.sqrt(sum(ref_field_norm(f, norm) ** 2 for f in fields))
    if 2 ** (n - 1) <= trials:
        eps = np.array([(1.0, *signs) for signs in itertools.product((1.0, -1.0), repeat=n - 1)])
    else:
        eps = np.where(sampler.integers(0, 2, trials * n) == 0, 1.0, -1.0).reshape(trials, n)
    stack = np.stack([f.samples for f in fields])
    first = fields[0]
    draws = []
    for e in eps:
        combo = np.tensordot(e, stack, axes=(0, 0))
        if isinstance(first, BoundaryField):
            fld = BoundaryField(first.grid, combo)
        else:
            fld = HalfSpaceField(first.tangential, first.normal, combo)
        draws.append(ref_field_norm(fld, norm) ** p)
    return float(np.mean(draws)) ** (1.0 / p)


def _ref_rbound(mults, inputs, normal, p, in_norm, out_norm, trials, restarts, sampler):
    grid = inputs[0].grid
    outs = {}
    for j, m in enumerate(mults):
        for i, g in enumerate(inputs):
            u = _itfft(m * _tfft(g.samples, grid.dim)[..., None], grid.dim)
            outs[j, i] = HalfSpaceField(grid, normal, u)
    in_norms = [ref_field_norm(g, in_norm) for g in inputs]
    best = 0.0
    for (j, i), u in outs.items():
        if in_norms[i] != 0.0:
            best = max(best, ref_field_norm(u, out_norm) / in_norms[i])
    n_ops, n_in = len(mults), len(inputs)
    for r in range(restarts):
        # restart r replays child r of the seed tree: size, selections, then the Monte-Carlo sign batches
        sub = RademacherSampler(sampler.seed, (*sampler.key, r))
        size = int(sub.integers(1, n_ops + 1, 1)[0])
        sel_ops = sub.integers(0, n_ops, size)
        sel_in = sub.integers(0, n_in, size)
        den = _ref_sign_sum([inputs[i] for i in sel_in], p, in_norm, trials, sub)
        if den == 0.0:
            continue
        chosen = [outs[j, i] for j, i in zip(sel_ops, sel_in)]
        num = _ref_sign_sum(chosen, p, out_norm, trials, sub)
        best = max(best, num / den)
    return best, outs


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 2),
    M=st.integers(3, 12),
    p=st.one_of(st.just(2.0), st.floats(1.0, 4.0)),
    r=st.one_of(st.just(2.0), st.floats(1.0, 4.0, exclude_min=True)),
    family=st.sampled_from(["Lp", "WeakLp", "Mixed", "TotChar"]),
    weak=st.booleans(),
    q=st.sampled_from([2.0, 3.0]),
    m=st.integers(0, 1),
    in_family=st.sampled_from(["Lp", "Besov", "Bessel2"]),
    in_p=st.sampled_from([2.0, 3.0]),
    in_s=st.sampled_from([0.0, 0.5, -1.0]),
    n_ops=st.integers(1, 4),
    n_in=st.integers(1, 5),
    zero_input=st.booleans(),
    trials=st.integers(1, 6),
    restarts=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_rbound_engine_matches_per_trial_physical_reference(
    dim, M, p, r, family, weak, q, m, in_family, in_p, in_s, n_ops, n_in, zero_input, trials, restarts, seed
):
    grid, normal = make_grids(dim=dim, N=8, M=M, X_max=4.0, r=1.2)
    rng = np.random.default_rng(seed)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mults = [noise((len(grid.radial[0]), M)) for _ in range(n_ops)]
    inputs = [BoundaryField(grid, noise(grid.shape)) for _ in range(n_in)]
    if zero_input:
        inputs[0] = BoundaryField.zero(grid)
    in_norm = {
        "Lp": NormSpec("Lp", p=in_p),
        "Besov": NormSpec("Besov", p=in_p, q=q, s=in_s),
        "Bessel2": NormSpec("Bessel2", s=in_s),
    }[in_family]
    out_norm = {
        "Lp": NormSpec("Lp", p=r),
        "WeakLp": NormSpec("WeakLp", p=r, q=q),
        "Mixed": NormSpec("Mixed", p=r, q=q, m=m, weak=weak),
        "TotChar": NormSpec("TotChar", p=r, q=q, s=m, weak=weak),
    }[family]
    kw = dict(p=p, in_norm=in_norm, out_norm=out_norm, trials=trials, restarts=restarts)

    per_mode = [m[grid.radial[1]] for m in mults]
    want, outs = _ref_rbound(per_mode, inputs, normal, sampler=RademacherSampler(seed), **kw)
    got = rbound_lower(mults, inputs, normal, sampler=RademacherSampler(seed), **kw).value
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    for fields, norm in ((list(outs.values())[: 1 + seed % 4], out_norm), (inputs, in_norm)):
        want = _ref_sign_sum(fields, p, norm, trials, RademacherSampler(seed, (5, 0)))
        got = eps_p_norm(fields, p, norm, trials, RademacherSampler(seed, (5,)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2),
    N=st.sampled_from([4, 8, 16, 32]),
    M=st.integers(3, 64),
    X_max=st.floats(2.0, 16.0),
    d=st.one_of(st.none(), st.floats(0.2, 5.0)),
    mus=st.lists(
        st.tuples(st.floats(0.1, 50.0), st.floats(-0.44 * math.pi, 0.44 * math.pi)), min_size=1, max_size=4
    ),
)
def test_rbound_hilbert_case_is_the_largest_operator_norm(dim, N, M, X_max, d, mus):
    # with Rademacher signs E|sum eps_k x_k|^2 = sum |x_k|^2, so for p = 2 between
    # L^2 spaces the randomized bound of a family is the sup of its operator norms
    kernel = heat_kernel if d is None else kpp_kernel(d)
    grid, normal = make_grids(dim=dim, N=N, M=M, X_max=X_max, r=1.1)
    mu_values = [abs_mu * complex(math.cos(arg), math.sin(arg)) for abs_mu, arg in mus]
    mults = [_radial_profile(kernel, kernel.sector.require(mu), grid, normal) for mu in mu_values]
    want = max(opnorm_hilbert(kernel, mu, 0.0, 0.0, grid, normal) for mu in mu_values)
    kw = dict(p=2.0, in_norm=L2, out_norm=NormSpec("Mixed", p=2.0, q=2.0), trials=4, restarts=6)
    inputs = probe_dictionary(grid)
    assert rbound_lower(mults, inputs, normal, **kw).value == pytest.approx(want, rel=1e-12, abs=0.0)
    # the constant probe, lattice mode 0, attains the sup; the others stay below it
    assert rbound_lower(mults, inputs[1:], normal, **kw).value <= want * (1.0 + 1e-12)


def _readme_family(kernel, mus, grid, normal) -> np.ndarray:
    """One batch of the README rbound scan: ``<mu>^(1/2)`` times the class profile, stacked."""
    return np.stack([bracket(0.0, mu) ** 0.5 * _radial_profile(kernel, mu, grid, normal) for mu in mus])


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 2),
    N=st.sampled_from([4, 8, 16]),
    M=st.integers(3, 32),
    kpp=st.booleans(),
    p=st.sampled_from([1.5, 2.0]),
    weak=st.booleans(),
    mus=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=4),
    n_in=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_a_real_family_bounds_as_its_complex_cast(dim, N, M, kpp, p, weak, mus, n_in, seed):
    # on the real axis the family and its pair tables stay real: the estimate is the complex
    # family's within rounding, and exactly it where the bound is a square sum (p = 2, strong).
    # Random inputs: the probe dictionary's class sums conj(g_i) g_i' are all real
    grid, normal = make_grids(dim=dim, N=N, M=M, X_max=8.0, r=1.1)
    family = _readme_family(kpp_kernel(2.0) if kpp else heat_kernel, mus, grid, normal)
    assert family.dtype == np.float64
    kw = dict(p=p, out_norm=NormSpec("Mixed", p=p, q=2.0, weak=weak), trials=8, restarts=6)
    rng = np.random.default_rng(seed)
    inputs = [BoundaryField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
              for _ in range(n_in)]
    real = rbound_lower(family, inputs, normal, sampler=RademacherSampler(seed), **kw)
    want = rbound_lower(family.astype(complex), inputs, normal, sampler=RademacherSampler(seed), **kw)
    if p == 2.0 and not weak:
        assert real == want
    assert real.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
    assert real.stderr == pytest.approx(want.stderr, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu", [1.0, 1.0 + 0.5j])
def test_pair_tables_are_real_and_give_the_real_gram_entry(mu):
    # a real family's table is Q = m_j m_j' itself, (K, M); a complex family's interleaves the rows
    # Re Q and -Im Q, (2K, M), so a complex class row's float view meets it in one real product Re(h @ Q)
    grid, normal = make_grids(N=16, M=12)
    family = _readme_family(heat_kernel, [mu, 2.0 * mu], grid, normal)
    assert family.dtype == (np.float64 if mu.imag == 0 else np.complex128)
    form = _StackNorm(NormSpec("Mixed", weak=True), grid, normal, radial=True)
    products = _Products(form, family, _spectra(probe_dictionary(grid), grid)[..., 0])
    [(interleaved, tables)] = products._pairs
    K = len(grid.radial[0])
    assert interleaved == (family.dtype == np.complex128)
    assert sorted(tables) == [(0, 0), (0, 1), (1, 1)]
    assert {(t.dtype, t.shape) for t in tables.values()} == {(np.dtype(float), ((1 + interleaved) * K, normal.M))}
    rng = np.random.default_rng(0)
    h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    rows = h.view(float) if interleaved else h.real
    for (j, jj), table in tables.items():
        want = np.real(h @ (family[j].conj() * family[jj]))
        np.testing.assert_allclose(rows @ table, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("p, weak, mu", [(2.0, True, 1.0), (1.5, False, 1.0), (2.0, True, complex(0.8, 0.6))])
def test_readme_size_families_are_exact_whatever_the_trial_count(p, weak, mu):
    # batches of 4 operators have sums of at most 4 terms, at most 8 sign patterns: from 8 trials on every
    # sum is averaged exactly, so the estimate has no error and more trials give the same bits
    grid, normal = make_grids(N=16, M=24)
    family = _readme_family(heat_kernel, [mu * m for m in (1.0, 2.0, 4.0, 8.0)], grid, normal)
    kw = dict(p=p, out_norm=NormSpec("Mixed", p=p, q=2.0, weak=weak), restarts=8, sampler=RademacherSampler(5))
    estimate = rbound_lower(family, probe_dictionary(grid), normal, trials=8, **kw)
    assert estimate.stderr == 0.0
    assert rbound_lower(family, probe_dictionary(grid), normal, trials=64, **kw) == estimate


def test_readme_rbound_batch_keeps_its_family_real():
    # one batch of the README p = 2 weak scan, profiles to estimate: with real profiles and pair
    # tables it peaks at 5.2 MB traced (4.9 family bytes), with a complex family at 8.9 MB (8.4)
    grid, normal = make_grids()
    inputs = probe_dictionary(grid)
    mus = np.geomspace(1.0, 1000.0, 20)[:4]
    kw = dict(p=2.0, out_norm=NormSpec("Mixed", p=2.0, q=2.0, weak=True), trials=24, restarts=8)
    tracemalloc.start()
    try:
        rbound_lower(_readme_family(heat_kernel, mus, grid, normal), inputs, normal, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    family_bytes = len(mus) * len(grid.radial[0]) * normal.M * np.dtype(float).itemsize
    assert peak <= 6 * family_bytes


def _cli_scan(tmp_path, monkeypatch, norm) -> bytes:
    """The CSV of a five-point opnorm scan through the CLI at ``--seed 3``, with ``norm(|mu|)`` as operator norm."""
    monkeypatch.setattr("poissonops.cli.opnorm_hilbert", lambda kern, mu, *rest: norm(abs(mu)))
    argv = ["scan", "--mode", "opnorm", "--mu-min", "1", "--mu-max", "16", "--mu-points", "5", "--seed", "3",
            "--grid-N", "8", "--grid-M", "8", "--out", str(tmp_path)]
    assert main(argv) == 0
    return (tmp_path / "scan_opnorm.csv").read_bytes()


def test_scan_result_round_trip(tmp_path, monkeypatch):
    mags = [float(m) for m in np.geomspace(1.0, 16.0, 5)]
    rows = [(m, 0.0, 2.0 * m**-0.5) for m in mags]
    text = _cli_scan(tmp_path, monkeypatch, lambda m: 2.0 * m**-0.5).decode()
    recs = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    assert [r["abs_mu"] for r in recs] == [repr(m) for m, _, _ in rows]
    assert float(recs[0]["slope"]) == pytest.approx(ScanResult.from_rows(rows).slope, rel=1e-12)
    assert recs[2]["norm"] == repr(rows[2][2])
    assert recs[2]["seed"] == "3"


def test_scan_result_rows_are_plain_floats(tmp_path, monkeypatch):
    # numpy scalars in the rows write the same CSV as floats: repr of a numpy
    # scalar is not a number a CSV reader can parse
    rows = [(float(m), 0.0, 2.0 * m**-0.5) for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
    np_rows = [tuple(np.float64(v) for v in r) for r in rows]
    assert all(type(v) is float for r in ScanResult.from_rows(np_rows).rows for v in r)
    plain = _cli_scan(tmp_path, monkeypatch, lambda m: 2.0 * m**-0.5)
    numpy = _cli_scan(tmp_path, monkeypatch, lambda m: np.float64(2.0 * m**-0.5))
    assert numpy == plain
    assert b"float64" not in plain


def test_scan_result_validation():
    bad = [(2.0, 0.0, 1.0), (1.0, 0.0, 1.0), (3.0, 0.0, 1.0), (4.0, 0.0, 1.0), (5.0, 0.0, 1.0)]
    with pytest.raises(ValueError):
        ScanResult.from_rows(bad)
    with pytest.raises(ValueError):
        ScanResult.from_rows([(1.0, 0.0, 1.0)] * 3)
    with pytest.raises(ValueError):
        ScanResult.from_rows([(float(m), 0.0, 0.0) for m in (1, 2, 4, 8, 16)])


def test_scan_result_checks_the_ordering_before_the_fit():
    # equal moduli on one ray are refused before polyfit could warn about a rank-deficient fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="modulus must increase strictly"):
            ScanResult.from_rows([(5.0, 0.0, 1.0)] * 5)


def test_decay_fit_exact_bracket_power_law():
    mags = np.geomspace(1.0, 1000.0, 12)
    rows = [(float(m), 0.0, 7.0 * (1.0 + m * m) ** -0.25) for m in mags]
    scan = ScanResult.from_rows(rows)
    slope, residual = scan.slope, scan.residual
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert residual < 1e-10


def test_decay_fit_plain_power_law_close():
    # |mu|-power data against the bracket abscissa: log<mu> = log|mu| + O(mu^-2),
    # so away from mu ~ 1 the fitted slope lands near the modulus exponent
    mags = np.geomspace(4.0, 1000.0, 12)
    rows = [(float(m), 0.0, float(m) ** -0.5) for m in mags]
    slope = ScanResult.from_rows(rows).slope
    assert slope == pytest.approx(-0.5, abs=1e-2)


def test_decay_fit_flat_rows():
    rows = [(float(m), 0.0, 4.2) for m in (1, 3, 9, 27, 81)]
    scan = ScanResult.from_rows(rows)
    slope, residual = scan.slope, scan.residual
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert residual < 1e-12


def test_decay_fit_heat_opnorm_scan():
    tg, ng = make_grids(N=64, M=256)
    rows = [
        (float(m), 0.0, opnorm_hilbert(heat_kernel, float(m), 0.0, 0.0, tg, ng))
        for m in np.geomspace(1.0, 1000.0, 8)
    ]
    slope = ScanResult.from_rows(rows).slope
    assert slope == pytest.approx(-0.5, abs=0.03)
