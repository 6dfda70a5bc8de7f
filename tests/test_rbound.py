"""Randomized signs, sign-sum norms, lower bounds, and decay-rate fits."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norm_reference import is_hilbert, ref_field_norm
from poissonops.core import BoundaryField, HalfSpaceField, make_grids
from poissonops.norms import NormSpec, field_norm, lp_norm, opnorm_hilbert
from poissonops.rbound import (
    RademacherSampler,
    ScanResult,
    eps_p_norm,
    probe_dictionary,
    rbound_lower,
)
from poissonops.symbols import MultiplierSymbol, heat_kernel, kpp_kernel
from poissonops.transforms import _itfft, _profile, _tfft

from poissonops.core import Sector

L2 = NormSpec("Lp", p=2.0)


def test_sampler_unit_modulus_and_determinism():
    s = RademacherSampler(seed=42)
    draws = s.unit(1000)
    np.testing.assert_allclose(np.abs(draws), 1.0, atol=1e-12)
    np.testing.assert_array_equal(draws, RademacherSampler(seed=42).unit(1000))
    assert not np.array_equal(draws, RademacherSampler(seed=43).unit(1000))
    assert not np.array_equal(draws, s.with_stream(1).unit(1000))


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
    ops = [c * np.ones(tg.shape) for c in (1.0, 2.0, 3.0)]
    est = rbound_lower(ops, inputs, p=2.0, in_norm=L2, out_norm=L2, trials=8, restarts=4)
    assert est.value == pytest.approx(3.0, rel=1e-9)
    assert est.config["n_ops"] == 3


def test_rbound_lower_contraction_multiplier():
    tg, _ = make_grids(N=64)
    a = MultiplierSymbol(
        "bracket-inverse",
        lambda xi, mu: (1.0 + np.sum(np.asarray(xi) ** 2, axis=-1)) ** -0.5,
        Sector.empty(),
    )
    ops = [a.func(tg.freq_vectors, None)]
    est = rbound_lower(ops, probe_dictionary(tg), p=2.0, in_norm=L2, out_norm=L2, trials=8, restarts=4)
    # the constant probe is untouched by the symbol, so the bound is sharp
    assert est.value == pytest.approx(1.0, rel=1e-6)


def test_rbound_lower_monotone_in_restarts():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [
        MultiplierSymbol("m", lambda xi, mu: np.exp(-np.sum(np.asarray(xi) ** 2, axis=-1)), Sector.empty()).func(
            tg.freq_vectors, None
        ),
        2.0 * np.ones(tg.shape),
    ]
    vals = [
        rbound_lower(ops, inputs, p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=r).value
        for r in (0, 2, 6)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_rbound_lower_restartless_floor():
    tg, _ = make_grids(N=16)
    inputs = probe_dictionary(tg)[:3]
    ops = [1.5 * np.ones(tg.shape), 0.5 * np.ones(tg.shape)]
    est = rbound_lower(ops, inputs, p=2.0, in_norm=L2, out_norm=L2, trials=4, restarts=0)
    assert est.value == pytest.approx(1.5, rel=1e-12)


def test_rbound_lower_deterministic():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [0.7 * np.ones(tg.shape)]
    kw = dict(p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=8, sampler=RademacherSampler(seed=9))
    assert rbound_lower(ops, inputs, **kw).value == rbound_lower(ops, inputs, **kw).value


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
        rbound_lower([np.ones(tg.shape)], probe_dictionary(tg), **kw)


def test_rbound_lower_rejects_multipliers_off_the_grid():
    tg, ng = make_grids(N=16, M=8)
    with pytest.raises(ValueError):
        rbound_lower([np.ones(tg.shape)], probe_dictionary(tg), ng)


# ---------------------------------------------------------------------------
# the per-trial physical algorithm the spectral engine replaces


def _ref_sign_sum(fields, p, norm, trials, sampler):
    """One tensordot and one physical reference norm per trial."""
    if len(fields) == 1:
        return ref_field_norm(fields[0], norm)
    if p == 2 and is_hilbert(norm):
        return math.sqrt(sum(ref_field_norm(f, norm) ** 2 for f in fields))
    eps = sampler.unit(trials * len(fields)).reshape(trials, len(fields))
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
        sub = sampler.with_stream(1 + 3 * r)
        size = 1 + int(sub.integers(0, max(n_ops, 2), 1)[0] % n_ops)
        sel_ops = sub.with_stream(2 + 3 * r).integers(0, n_ops, size)
        sel_in = sub.with_stream(3 + 3 * r).integers(0, n_in, size)
        den = _ref_sign_sum([inputs[i] for i in sel_in], p, in_norm, trials, sub.with_stream(10_000 + r))
        if den == 0.0:
            continue
        chosen = [outs[j, i] for j, i in zip(sel_ops, sel_in)]
        num = _ref_sign_sum(chosen, p, out_norm, trials, sub.with_stream(20_000 + r))
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

    mults = [noise(grid.shape + (M,)) for _ in range(n_ops)]
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

    want, outs = _ref_rbound(mults, inputs, normal, sampler=RademacherSampler(seed), **kw)
    got = rbound_lower(mults, inputs, normal, sampler=RademacherSampler(seed), **kw).value
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    for fields, norm in ((list(outs.values())[: 1 + seed % 4], out_norm), (inputs, in_norm)):
        want = _ref_sign_sum(fields, p, norm, trials, RademacherSampler(seed, 5))
        got = eps_p_norm(fields, p, norm, trials, RademacherSampler(seed, 5))
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
    # with Steinhaus signs E|sum eps_k x_k|^2 = sum |x_k|^2, so for p = 2 between
    # L^2 spaces the randomized bound of a family is the sup of its operator norms
    kernel = heat_kernel if d is None else kpp_kernel(d)
    grid, normal = make_grids(dim=dim, N=N, M=M, X_max=X_max, r=1.1)
    mu_values = [abs_mu * complex(math.cos(arg), math.sin(arg)) for abs_mu, arg in mus]
    mults = [_profile(kernel, kernel.sector.require(mu), grid, normal) for mu in mu_values]
    want = max(opnorm_hilbert(kernel, mu, 0.0, 0.0, grid, normal) for mu in mu_values)
    kw = dict(p=2.0, in_norm=L2, out_norm=NormSpec("Mixed", p=2.0, q=2.0), trials=4, restarts=6)
    inputs = probe_dictionary(grid)
    assert rbound_lower(mults, inputs, normal, **kw).value == pytest.approx(want, rel=1e-12, abs=0.0)
    # the constant probe, lattice mode 0, attains the sup; the others stay below it
    assert rbound_lower(mults, inputs[1:], normal, **kw).value <= want * (1.0 + 1e-12)


def test_scan_result_round_trip(tmp_path):
    rows = [(float(m), 0.0, 2.0 * m**-0.5) for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
    scan = ScanResult.from_rows(rows, metadata={"seed": 3})
    csv_path = tmp_path / "scan.csv"
    scan.to_csv(csv_path)
    with open(csv_path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert [r["abs_mu"] for r in recs] == [repr(m) for m, _, _ in rows]
    assert float(recs[0]["slope"]) == pytest.approx(scan.slope, rel=1e-12)
    assert recs[2]["norm"] == repr(rows[2][2])
    assert recs[2]["seed"] == "3"


def test_scan_result_rows_are_plain_floats(tmp_path):
    # numpy scalars in the rows write the same CSV as floats: repr of a numpy
    # scalar is not a number a CSV reader can parse
    rows = [(float(m), 0.0, 2.0 * m**-0.5) for m in (1.0, 2.0, 4.0, 8.0, 16.0)]
    np_rows = [tuple(np.float64(v) for v in r) for r in rows]
    scan = ScanResult.from_rows(np_rows)
    assert all(type(v) is float for r in scan.rows for v in r)
    ScanResult.from_rows(rows).to_csv(tmp_path / "float.csv")
    scan.to_csv(tmp_path / "numpy.csv")
    assert (tmp_path / "numpy.csv").read_text() == (tmp_path / "float.csv").read_text()


def test_scan_result_validation():
    bad = [(2.0, 0.0, 1.0), (1.0, 0.0, 1.0), (3.0, 0.0, 1.0), (4.0, 0.0, 1.0), (5.0, 0.0, 1.0)]
    with pytest.raises(ValueError):
        ScanResult.from_rows(bad)
    with pytest.raises(ValueError):
        ScanResult.from_rows([(1.0, 0.0, 1.0)] * 3)
    with pytest.raises(ValueError):
        ScanResult.from_rows([(float(m), 0.0, 0.0) for m in (1, 2, 4, 8, 16)])


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
