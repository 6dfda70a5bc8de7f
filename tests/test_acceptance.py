"""Acceptance gates: slope reproduction, randomized-bound flatness, resolvent
exactness, scan stability, time-stepping order, and infrastructure invariants.

Every test prints exactly one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and asserts the same condition, including the runtime budget where one
is part of the gate.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from poissonops.cli import main as cli_main, rbound_batch_scan
from poissonops.core import BoundaryField, HalfSpaceField, make_grids
from poissonops.dynbc import (
    DynBCProblem,
    boundary_symbol_gain,
    implicit_euler_evolve,
    road_symbol_scan,
)
from poissonops.norms import NormSpec, opnorm_hilbert, weak_lp_norm
from poissonops.rbound import (
    RademacherSampler,
    ScanResult,
    eps_p_norm,
)
from poissonops.symbols import heat_kernel, lemma_max_eval
from poissonops.transforms import forward_fft, lp_blocks

MUS_DECADE = np.geomspace(1.0, 1e3, 20)


def _gate(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def heat_scan_grids():
    # L = pi/4 pushes the tangential lattice out to |xi| = 1024 so the
    # frequency sup stays resolved across the whole mu range
    return make_grids(L=math.pi / 4, N=256, M=256)


@pytest.fixture(scope="module")
def anchor_values(heat_scan_grids):
    grid, ngrid = heat_scan_grids
    return [opnorm_hilbert(heat_kernel, float(m), 0.0, 0.0, grid, ngrid) for m in MUS_DECADE]


def test_example_slope(heat_scan_grids, anchor_values):
    # operator-norm decay <mu>^(s - r/2) for four (s, r) pairs; the target
    # space order r enters through the surrogate exponent t = (1 - r)/2 + s
    grid, ngrid = heat_scan_grids
    worst = 0.0
    slowest = 0.0
    for s, r in ((0.0, 0.0), (0.25, 0.0), (0.0, 1.0), (0.25, 0.5)):
        t = 0.5 * (1.0 - r) + s
        t0 = time.monotonic()
        if (s, t) == (0.0, 0.0):
            rows = [(float(m), 0.0, v) for m, v in zip(MUS_DECADE, anchor_values)]
        else:
            rows = [
                (float(m), 0.0, opnorm_hilbert(heat_kernel, float(m), s, t, grid, ngrid))
                for m in MUS_DECADE
            ]
        slowest = max(slowest, time.monotonic() - t0)
        scan = ScanResult.from_rows(rows, metadata={})
        worst = max(worst, abs(scan.slope - (s - r / 2.0)))
    ok = worst <= 0.05 and slowest <= 30.0
    _gate(ok, "example-slope", f"worst slope error {worst:.4f} (tol 0.05), slowest config {slowest:.1f}s")


def test_closed_form_anchor(anchor_values):
    # (2 sqrt(1 + mu^2))^(-1/2) at every scanned mu
    devs = [
        abs(v * math.sqrt(2.0 * math.sqrt(1.0 + m * m)) - 1.0)
        for m, v in zip(MUS_DECADE, anchor_values)
    ]
    worst = max(devs)
    _gate(worst <= 0.02, "closed-form-anchor", f"worst deviation {worst:.5f} (tol 0.02)")


@pytest.fixture(scope="module")
def rbound_grids():
    return make_grids(N=64, M=192)


def _rb_scan(p, weak, exponent, restarts, grids):
    grid, ngrid = grids
    return rbound_batch_scan(
        heat_kernel,
        p=p,
        q=2.0,
        weak=weak,
        exponent=exponent,
        mu_values=MUS_DECADE,
        rays=(0.0,),
        grid=grid,
        ngrid=ngrid,
        trials=24,
        restarts=restarts,
        seed=0,
        batch=4,
    )


def test_randomized_bound_flat(rbound_grids):
    # <mu>^(1/p)-normalized lower bounds stay flat, and doubling the restart
    # budget neither breaks flatness nor shows an upward trend
    t0 = time.monotonic()
    worst_slope = 0.0
    worst_drift = -math.inf
    monotone = True
    for p, weak in ((1.5, True), (2.0, True), (4.0, True), (2.0, False), (4.0, False)):
        base = _rb_scan(p, weak, 1.0 / p, 8, rbound_grids)
        fine = _rb_scan(p, weak, 1.0 / p, 16, rbound_grids)
        worst_slope = max(worst_slope, abs(base.slope), abs(fine.slope))
        worst_drift = max(worst_drift, fine.slope - base.slope)
        monotone = monotone and all(
            b[2] >= a[2] - 1e-12 for a, b in zip(base.rows, fine.rows)
        )
    elapsed = time.monotonic() - t0
    ok = worst_slope <= 0.1 and worst_drift <= 0.02 and monotone and elapsed <= 300.0
    _gate(
        ok,
        "randomized-bound-flat",
        f"worst |slope| {worst_slope:.4f} (tol 0.1), refinement drift {worst_drift:+.4f}, "
        f"rowwise monotone {monotone}, {elapsed:.0f}s (limit 300)",
    )


def test_eps_loss_variant(rbound_grids):
    # p = 1.5 strong normal direction with the smaller prefactor exponent
    t0 = time.monotonic()
    scan = _rb_scan(1.5, False, 1.0 / 1.5 - 0.05, 8, rbound_grids)
    elapsed = time.monotonic() - t0
    ok = scan.slope <= 0.1 and elapsed <= 120.0
    _gate(ok, "eps-loss-variant", f"slope {scan.slope:+.4f} (cap +0.1), {elapsed:.0f}s (limit 120)")


def test_envelope_max_lattice():
    # closed-form sup over s >= 1 of s^a <ts>^(-rho) vs dense brute force
    t0 = time.monotonic()
    svals = np.geomspace(1.0, 1e4, 100_000)
    worst = 0.0
    for rho in (1.5, 2.0, 3.0):
        for frac in (0.3, 0.7, 0.9):
            a = frac * rho
            for tv in (1e-3, 1.0, 1e3):
                closed = lemma_max_eval(a, rho, tv)
                brute = float(np.max(svals**a * (1.0 + (tv * svals) ** 2) ** (-0.5 * rho)))
                worst = max(worst, abs(closed - brute) / brute)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 5.0
    _gate(ok, "envelope-max", f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (limit 5)")


def test_weak_lp_equality():
    # t^(-1/p) on (0, 1e4] has weak-Lp norm exactly 1; sample it on a
    # million geometric cells reaching down to 1e-8
    edges = np.geomspace(1e-8, 1e4, 1_000_001)
    mids = np.sqrt(edges[:-1] * edges[1:])
    meas = np.diff(edges)
    worst = 0.0
    for p in (1.5, 2.0, 4.0):
        val = weak_lp_norm(mids ** (-1.0 / p), meas, p)
        worst = max(worst, abs(val - 1.0))
    _gate(worst <= 0.02, "weak-lp-equality", f"worst deviation {worst:.5f} (tol 0.02)")


def test_resolvent_exactness():
    tg, ng = make_grids(N=16, M=64)
    worst = 0.0
    for variant in ("HeatDynBC", "CahnHilliardBoundary", "KPPRoadField"):
        prob = DynBCProblem(variant, tg, ng)
        g = BoundaryField(tg, np.exp(1j * 2.0 * tg.points_1d))
        out = prob.solve(None, g, 1.0)
        worst = max(worst, max(out.diagnostics.values()))
    # road-field worked point: unit parameters at mu = 1 on the zero mode
    wp = DynBCProblem("KPPRoadField", tg, ng).solve(None, BoundaryField(tg, np.ones(tg.shape, dtype=complex)), 1.0)
    wp_err = max(
        float(np.max(np.abs(wp.u.trace().samples - 1.0 / 3.0))),
        float(np.max(np.abs(wp.v.samples - 2.0 / 3.0))),
    )
    ok = worst <= 1e-8 and wp_err <= 1e-10
    _gate(ok, "resolvent-exactness", f"worst residual {worst:.2e} (tol 1e-8), worked point {wp_err:.2e} (tol 1e-10)")


def test_sectoriality_scan():
    # bracket-squared times the boundary-resolvent gain stays flat and
    # bounded along three rays; the invertibility shift is 0.25 for the two
    # variants whose generator is not already invertible at the origin
    tg, ng = make_grids(N=64, M=16)
    mus = np.geomspace(0.1, 1e3, 21)
    rays = (0.0, 0.7 * math.pi / 4.0, -0.7 * math.pi / 4.0)
    worst_slope = 0.0
    vmax = 0.0
    slowest = 0.0
    for variant, shift in (
        ("HeatDynBC", 0.0),
        ("CahnHilliardBoundary", 0.25),
        ("KPPRoadField", 0.25),
    ):
        t0 = time.monotonic()
        prob = DynBCProblem(variant, tg, ng)
        for ray in rays:
            phase = complex(math.cos(ray), math.sin(ray))
            rows = []
            for m in mus:
                val = (1.0 + m * m) * boundary_symbol_gain(prob, m * phase, shift)
                rows.append((float(m), float(ray), float(val)))
                vmax = max(vmax, val)
            scan = ScanResult.from_rows(rows, metadata={})
            worst_slope = max(worst_slope, abs(scan.slope))
        slowest = max(slowest, time.monotonic() - t0)
    ok = worst_slope <= 0.1 and 0.0 < vmax <= 2.5 and slowest <= 120.0
    _gate(
        ok,
        "sectoriality-scan",
        f"worst per-ray |slope| {worst_slope:.4f} (tol 0.1), max value {vmax:.3f} (cap 2.5), "
        f"slowest problem {slowest:.1f}s (limit 120)",
    )


def test_road_multiplier_scan():
    base = road_symbol_scan(n=120)
    fine = road_symbol_scan(n=240)
    drift = max(
        abs(fine["sup_m1"] - base["sup_m1"]) / base["sup_m1"],
        abs(fine["sup_m2"] - base["sup_m2"]) / base["sup_m2"],
    )
    shell = max(base["inner_max_m1"], base["outer_max_m1"]) / base["sup_m1"]
    finite = math.isfinite(base["sup_m1"]) and math.isfinite(base["sup_m2"])
    ok = finite and drift < 0.10 and base["min_f_minus_k"] > 0.0 and shell <= 0.01
    _gate(
        ok,
        "road-multipliers",
        f"sups ({base['sup_m1']:.4f}, {base['sup_m2']:.4f}), doubling drift {drift:.4f} (tol 0.10), "
        f"denominator clearance {base['min_f_minus_k']:.2e}, shell ratio {shell:.4f} (tol 0.01)",
    )


def test_euler_convergence():
    # manufactured zero-mode solution u = exp(-3t) exp(-8 x), v = exp(-3t);
    # the normal grid is nearly uniform so the per-step Green quadrature
    # error stays far below the O(dt) truncation error
    lam, a = 8.0, 3.0
    tg, ng = make_grids(N=8, M=1024, X_max=2.0, r=1.0005)
    prob = DynBCProblem("HeatDynBC", tg, ng)
    prof = np.exp(-lam * ng.nodes)
    ones = np.ones(tg.shape, dtype=complex)

    def f_of_t(t):
        smp = ones[..., None] * ((1.0 - a - lam * lam) * math.exp(-a * t) * prof)[None, :]
        return HalfSpaceField(tg, ng, smp)

    def g_of_t(t):
        return BoundaryField(tg, (lam - a) * math.exp(-a * t) * ones)

    u0 = HalfSpaceField(tg, ng, ones[..., None] * prof[None, :])
    v0 = BoundaryField(tg, ones.copy())
    errs = []
    for dt in (0.02, 0.01, 0.005):
        recs = list(implicit_euler_evolve(prob, f_of_t, g_of_t, dt, 1.0, u0=u0, v0=v0))
        errs.append(float(np.max(np.abs(recs[-1].v.samples - math.exp(-a)))))
    ratios = [x / y for x, y in zip(errs, errs[1:])]
    ok = all(1.8 <= q <= 2.2 for q in ratios)
    _gate(ok, "euler-convergence", f"halving ratios {[f'{q:.3f}' for q in ratios]} (band 2.0 +/- 0.2)")


def test_infrastructure_invariants(tmp_path):
    grid, _ = make_grids(N=64)
    rng = np.random.default_rng(3)
    g = BoundaryField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))

    phys = float(np.sum(np.abs(g.samples) ** 2) * grid.cell)
    spec = float(np.sum(np.abs(forward_fft(g)) ** 2))
    plancherel = abs(spec - phys) / phys

    blocks = lp_blocks(g)
    recon = sum(b.samples for b in blocks)
    partition = float(np.max(np.abs(recon - g.samples))) / float(np.max(np.abs(g.samples)))

    # Monte-Carlo cross-check of the exact p=2 collapse on correlated fields
    fields = [
        BoundaryField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        for _ in range(5)
    ]
    exact = eps_p_norm(fields, 2.0, NormSpec("Lp", p=2.0))
    trials = 512
    eps = RademacherSampler(seed=11).unit(trials * len(fields)).reshape(trials, len(fields))
    stack = np.stack([f.samples for f in fields])
    draws = np.array(
        [float(np.sum(np.abs(np.tensordot(e, stack, axes=(0, 0))) ** 2) * grid.cell) for e in eps]
    )
    sem = float(np.std(draws, ddof=1) / math.sqrt(trials))
    zscore = abs(float(np.mean(draws)) - exact**2) / sem

    argv = [
        "scan", "--mode", "opnorm", "--kernel", "heat", "--mu-points", "6",
        "--grid-N", "16", "--grid-M", "64", "--out", str(tmp_path),
    ]
    assert cli_main(argv) == 0
    first = (tmp_path / "scan_opnorm.csv").read_bytes()
    assert cli_main(argv) == 0
    identical = (tmp_path / "scan_opnorm.csv").read_bytes() == first

    ok = plancherel <= 1e-12 and partition <= 1e-12 and zscore <= 3.0 and identical
    _gate(
        ok,
        "infrastructure",
        f"plancherel {plancherel:.2e} (tol 1e-12), partition {partition:.2e} (tol 1e-12), "
        f"mc z-score {zscore:.2f} (cap 3), rerun byte-identical {identical}",
    )
