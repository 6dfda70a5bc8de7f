"""Argument checks across the package: each refusal is reached once, with its message."""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from poissonops.cli import main
from poissonops.core import NormalGrid, TangentialGrid, make_grids
from poissonops.dynbc import DynBCProblem, road_symbol_scan
from poissonops.norms import NormSpec, normal_derivative, weak_lp_norm
from poissonops.rbound import RademacherSampler, ScanResult, eps_p_norm
from poissonops.symbols import char_lp_bound, heat_kernel, kpp_kernel, kpp_m2

# a road-field parameter must be positive and finite: NaN fails both comparisons
NOT_POSITIVE_AND_FINITE = [0.0, -1.0, math.nan, math.inf]


def _road_problem(**params) -> DynBCProblem:
    tg, ng = make_grids(N=8, M=8)
    return DynBCProblem("KPPRoadField", tg, ng, **params)


REFUSALS = [
    pytest.param(lambda: TangentialGrid(0, 8, 1.0), "dim must be >= 1", id="grid-dim"),
    pytest.param(lambda: TangentialGrid(1, 8, 0.0), "L must be positive", id="grid-side"),
    pytest.param(lambda: TangentialGrid(1, 8, math.inf), "L must be positive and finite", id="grid-side-inf"),
    pytest.param(lambda: NormalGrid(8, X_max=math.inf), "X_max must be positive and finite", id="normal-extent-inf"),
    pytest.param(lambda: NormalGrid(8, r=math.inf), "grading ratio must exceed 1 and be finite", id="grading-inf"),
    # at r = 1.05 the first spacings reach the subnormals from M = 14,492, where two nodes coincide
    pytest.param(lambda: NormalGrid(14_492), "not strictly increasing at M=14492", id="normal-nodes-collapse"),
    pytest.param(lambda: NormalGrid(3, r=1e300), "overflow", id="normal-nodes-overflow"),
    pytest.param(lambda: TangentialGrid(3, 2, 1e-300), "got 0.0 at L=1e-300", id="grid-cell-underflow"),
    pytest.param(lambda: TangentialGrid(1, 8, 1e-263), re.escape("|xi|^2 must be finite, got inf at L=1e-263"),
                 id="grid-frequency-overflow"),
    pytest.param(lambda: weak_lp_norm([1.0], [1.0], 0.5), "need p >= 1", id="weak-lp-exponent"),
    pytest.param(lambda: normal_derivative(np.ones(4), NormalGrid(4), -1), "nonnegative", id="derivative-order"),
    pytest.param(lambda: RademacherSampler(seed=0).unit(0), "at least 1", id="sampler-count"),
    pytest.param(lambda: RademacherSampler(seed=-1), "seed=-1", id="sampler-seed"),
    pytest.param(lambda: ScanResult(rows=(), slope=math.nan, residual=0.0), "slope must be finite", id="scan-slope"),
    pytest.param(lambda: eps_p_norm([], 2.0, NormSpec("Lp")), "at least one field", id="sign-sum-empty"),
    pytest.param(lambda: replace(heat_kernel, kind="mild"), "kind must be", id="kernel-kind"),
    pytest.param(lambda: kpp_kernel(5e-324), "so must 1/d, got d=5e-324", id="kpp-kernel-reciprocal"),
    pytest.param(lambda: char_lp_bound(heat_kernel, 2.0, -1, 0, 0), "nonnegative", id="char-weight-order"),
    pytest.param(lambda: char_lp_bound(heat_kernel, 2.0, 0, -1, 0), "nonnegative", id="char-normal-order"),
    # |alpha| = 1, but no derivative of order -1 exists
    pytest.param(lambda: char_lp_bound(heat_kernel, 2.0, 0, 0, (2, -1)), "nonnegative", id="char-alpha-component"),
    *(
        pytest.param(call, "positive and finite", id=f"{name}-{bad}")
        for bad in NOT_POSITIVE_AND_FINITE
        for name, call in (
            ("kpp_m2-d", lambda bad=bad: kpp_m2(d=bad)),
            ("kpp_m2-dprime", lambda bad=bad: kpp_m2(dprime=bad)),
            ("kpp_m2-kcoef", lambda bad=bad: kpp_m2(kcoef=bad)),
            ("kpp_kernel", lambda bad=bad: kpp_kernel(bad)),
            ("road_symbol_scan-d", lambda bad=bad: road_symbol_scan(d=bad, n=4)),
            ("road_symbol_scan-kcoef", lambda bad=bad: road_symbol_scan(kcoef=bad, n=4)),
            ("DynBCProblem-d", lambda bad=bad: _road_problem(d=bad)),
            ("DynBCProblem-dprime", lambda bad=bad: _road_problem(dprime=bad)),
        )
    ),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_argument_checks_refuse(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("mode", ["opnorm", "rbound"])
@pytest.mark.parametrize("kernel", ["zero", "constant-one"])
def test_a_scan_of_a_kernel_without_spectral_parameter_names_the_empty_sector(tmp_path, capsys, mode, kernel):
    # the zero and constant-one kernels live on the empty sector: the first row's mu is refused as such
    argv = ["scan", "--mode", mode, "--kernel", kernel, "--grid-N", "8", "--grid-M", "16", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "mu=(1+0j) given to the empty sector, which admits no spectral parameter" in capsys.readouterr().err


@pytest.mark.parametrize("mode, points, row", [("opnorm", 6, 3), ("rbound", 20, 11)])
def test_a_nonfinite_scan_row_is_refused_before_the_fit(tmp_path, capsys, mode, points, row):
    # mu^2 overflows in tau above |mu| ~ 1.3e154: the first row past it is named (rbound's batches of
    # four end at mu 3, 7, 11, ...), not handed to the least squares, whose LAPACK failure names neither,
    # and without a numpy RuntimeWarning, which the suite makes an error
    mu = float(np.geomspace(1.0, 1e300, points)[row])
    argv = ["scan", "--mode", mode, "--mu-max", "1e300", "--mu-points", str(points), "--grid-N", "8", "--grid-M", "16"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"not finite in the scan row at |mu|={mu!r}, arg=0.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--problem", "kpp", "--dprime", "1.7e308", "--grid-N", "2", "--grid-M", "8"],
         "the road symbol overflows at mu=(1+0j), d=1.0, dprime=1.7e+308, k=1.0 and |xi|^2 up to 1.0"),
        (["solve", "--problem", "ch", "--mu", "4.5e86", "--k", "4.5e86", "--grid-N", "2", "--grid-M", "24"],
         "nonfinite residual for boundary_dynamics"),
        (["solve", "--problem", "heat-dynbc", "--mu", "1e200", "--grid-N", "2", "--grid-M", "8"],
         "the heat decay rate overflows at mu=(1e+200+0j)"),
        (["scan", "--mode", "opnorm", "--prefactor-exponent", "200", "--grid-N", "8", "--grid-M", "16"],
         "not finite in the scan row at |mu|=37.926901907322495, arg=0.0"),
        (["scan", "--mode", "rbound", "--prefactor-exponent", "200", "--grid-N", "8", "--grid-M", "16",
          "--trials", "4", "--restarts", "1"],
         "not finite in the scan row at |mu|=12.742749857031335, arg=0.0"),
        (["verify-symbol", "--kernel", "kpp", "--d", "5e-324", "--N", "1"],
         "diffusivity must be positive and finite, and so must 1/d, got d=5e-324"),
        (["verify-symbol", "--kernel", "kpp", "--d", "1e-307", "--N", "1"],
         "kernel 'kpp': non-finite seminorm lattice value at order 0"),
        (["scan", "--mode", "opnorm", "--mu-min", "1e308", "--mu-max", "1.7976931348623157e308", "--mu-points", "5",
          "--grid-N", "8", "--grid-M", "16"],
         "not finite in the scan row at |mu|=1e+308, arg=0.0"),
        (["scan", "--mode", "rbound", "--grid-L", "1e-263", "--grid-N", "8", "--grid-M", "16"],
         "|xi|^2 must be finite, got inf at L=1e-263, N=8, dim=1"),
        # rate * x_n passes the float range before exp takes it to 0
        (["solve", "--problem", "heat-dynbc", "--mu", "5663358057880019.0", "--grid-N", "2", "--grid-M", "2",
          "--grid-L", "1", "--grid-X-max", "3.1742530076497608e+292", "--grid-r", "2"],
         "the decay profile overflows: a rate component of 5663358057880019.0 times x_n up to 3.1742530076497608e+292"),
        # every |mu|^2 but the last underflows, and the last one's square in polyfit's column norm
        (["scan", "--mode", "opnorm", "--mu-min", "5e-324", "--mu-max", "1e-81", "--mu-points", "6", "--grid-N", "2",
          "--grid-M", "2", "--grid-L", "1", "--grid-X-max", "1", "--grid-r", "2"],
         "log <mu> has no spread to fit a slope over the scan's |mu| from 5e-324 to 1e-81"),
    ],
    ids=["kpp-road-symbol", "ch-residual", "heat-rate", "opnorm-prefactor", "rbound-prefactor", "kpp-rate-reciprocal",
         "kpp-rate-lattice", "mu-grid-near-float-max", "grid-frequency-overflow", "decay-profile-overflow",
         "fit-without-spread"],
)
def test_an_overflow_is_refused_without_a_warning(tmp_path, capsys, argv, message):
    # in process, under the suite's error::RuntimeWarning filter: an overflow in a plan, a step or a
    # scan row is refused by name with exit 2, not raised out of main as a numpy warning
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["0", "-1e-7", "1e-200"])
def test_a_resolvent_at_a_small_mu_is_refused_by_its_value(tmp_path, capsys, mu):
    # the message names the value given, not mu = 0
    argv = ["solve", "--problem", "heat-dynbc", f"--mu={mu}", "--grid-N", "2", "--grid-M", "24"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"need |mu| >= 1e-6, got mu={float(mu)!r}" in capsys.readouterr().err
