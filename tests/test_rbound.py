"""Randomized signs, sign-sum norms, lower bounds, and decay-rate fits."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from poissonops.core import BoundaryField, make_grids
from poissonops.norms import NormSpec, field_norm, lp_norm, opnorm_hilbert
from poissonops.rbound import (
    RademacherSampler,
    ScanResult,
    eps_p_norm,
    probe_dictionary,
    rbound_lower,
)
from poissonops.symbols import MultiplierSymbol, heat_kernel
from poissonops.transforms import apply_multiplier

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
    ops = [(f"c{c}", lambda g, c=c: BoundaryField(g.grid, c * g.samples)) for c in (1.0, 2.0, 3.0)]
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
    ops = [("a", lambda g: apply_multiplier(a, None, g))]
    est = rbound_lower(ops, probe_dictionary(tg), p=2.0, in_norm=L2, out_norm=L2, trials=8, restarts=4)
    # the constant probe is untouched by the symbol, so the bound is sharp
    assert est.value == pytest.approx(1.0, rel=1e-6)


def test_rbound_lower_monotone_in_restarts():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [
        ("heat1", lambda g: apply_multiplier(
            MultiplierSymbol("m", lambda xi, mu: np.exp(-np.sum(np.asarray(xi) ** 2, axis=-1)), Sector.empty()), None, g
        )),
        ("double", lambda g: BoundaryField(g.grid, 2.0 * g.samples)),
    ]
    vals = [
        rbound_lower(ops, inputs, p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=r).value
        for r in (0, 2, 6)
    ]
    assert vals[0] <= vals[1] <= vals[2]


def test_rbound_lower_restartless_floor():
    tg, _ = make_grids(N=16)
    inputs = probe_dictionary(tg)[:3]
    ops = [
        ("up", lambda g: BoundaryField(g.grid, 1.5 * g.samples)),
        ("down", lambda g: BoundaryField(g.grid, 0.5 * g.samples)),
    ]
    est = rbound_lower(ops, inputs, p=2.0, in_norm=L2, out_norm=L2, trials=4, restarts=0)
    assert est.value == pytest.approx(1.5, rel=1e-12)


def test_rbound_lower_deterministic():
    tg, _ = make_grids(N=32)
    inputs = probe_dictionary(tg)
    ops = [("c", lambda g: BoundaryField(g.grid, 0.7 * g.samples))]
    kw = dict(p=1.5, in_norm=L2, out_norm=L2, trials=8, restarts=8, sampler=RademacherSampler(seed=9))
    assert rbound_lower(ops, inputs, **kw).value == rbound_lower(ops, inputs, **kw).value


def test_rbound_lower_empty_errors():
    tg, _ = make_grids(N=16)
    inputs = probe_dictionary(tg)
    with pytest.raises(ValueError):
        rbound_lower([], inputs)
    with pytest.raises(ValueError):
        rbound_lower([("id", lambda g: g)], [])


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
