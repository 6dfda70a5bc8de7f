"""End-to-end runs of the console entry point, in process."""
from __future__ import annotations

import json
import math

import pytest
from jsonschema import Draft202012Validator

from poissonops.cli import CONFIG_SCHEMA, main

SMALL_GRID = ["--grid-N", "8", "--grid-M", "32"]


def _read_csv(path):
    rows, footer = [], []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.startswith("#"):
                footer.append(line.rstrip("\n"))
            else:
                rows.append(line.strip().split(","))
    return header, rows, footer


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_verify_symbol_heat(capsys):
    assert main(["verify-symbol", "--kernel", "heat", "--N", "2"]) == 0
    out = capsys.readouterr().out
    assert "RESULT PASS" in out
    # one table row per seminorm order 0..N
    assert sum(1 for ln in out.splitlines() if ln.strip().startswith(("0 ", "1 ", "2 "))) == 3


def test_verify_symbol_flags_divergence(capsys):
    # the constant kernel has no decay, so the order-1 seminorm grows
    # under probe refinement and the gate must report failure
    assert main(["verify-symbol", "--kernel", "constant-one", "--N", "1"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGENT" in out
    assert "RESULT FAIL" in out


def test_verify_symbol_unknown_kernel(capsys):
    assert main(["verify-symbol", "--kernel", "nosuch"]) == 2


def test_solve_kpp_worked_point(tmp_path):
    code = main(
        ["solve", "--problem", "kpp", "--mu", "1", "--out", str(tmp_path)] + SMALL_GRID
    )
    assert code == 0
    records = _read_jsonl(tmp_path / "solve.jsonl")
    header, body = records[0], records[1]
    assert header["record"] == "header"
    assert header["schema_version"] == 1
    assert header["config"]["problem"] == "kpp"
    assert body["record"] == "resolvent"
    assert body["boundary_max"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert body["boundary_norm"] == pytest.approx((2.0 / 3.0) * math.sqrt(2.0 * math.pi), rel=1e-9)
    assert all(v <= 1e-8 for v in body["diagnostics"].values())


def test_solve_mode_data(tmp_path):
    code = main(
        ["solve", "--problem", "heat-dynbc", "--g", "mode2", "--out", str(tmp_path)]
        + SMALL_GRID
    )
    assert code == 0
    body = _read_jsonl(tmp_path / "solve.jsonl")[1]
    assert all(v <= 1e-8 for v in body["diagnostics"].values())


def test_solve_rejects_mu_zero(tmp_path, capsys):
    code = main(["solve", "--problem", "ch", "--mu", "0", "--out", str(tmp_path)] + SMALL_GRID)
    assert code == 2
    assert "mu" in capsys.readouterr().err


def test_grid_dim_flag_is_bounded(tmp_path):
    # the config schema caps grid_dim at 3; the flag route must agree
    argv = ["solve", "--problem", "ch", "--grid-dim", "4", "--grid-N", "8", "--grid-M", "16"]
    assert main(argv + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "--road-n", "4"],
        ["solve", "--problem", "ch", "--seed", "-3"] + SMALL_GRID,
        ["verify-symbol", "--kernel", "heat", "--d", "-1"],
    ],
    ids=["road-n", "seed", "verify-d"],
)
def test_flags_pass_the_config_schema(tmp_path, capsys, argv):
    # a flag value outside CONFIG_SCHEMA is rejected as its config twin is
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "config rejected" in capsys.readouterr().err


def test_config_schema_is_valid():
    # the validator is built once, so nothing re-checks the schema per call
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_solve_rejects_unknown_data(tmp_path):
    code = main(["solve", "--problem", "ch", "--g", "wiggle", "--out", str(tmp_path)] + SMALL_GRID)
    assert code == 2


def test_solve_evolve_trajectory(tmp_path):
    code = main(
        [
            "solve", "--problem", "heat-dynbc", "--evolve",
            "--dt", "0.25", "--T", "1.0", "--g", "const", "--out", str(tmp_path),
        ]
        + SMALL_GRID
    )
    assert code == 0
    records = _read_jsonl(tmp_path / "evolve.jsonl")
    steps = [r for r in records if r["record"] == "step"]
    assert len(steps) == 4
    assert [s["t"] for s in steps] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    deltas = [s["delta"] for s in steps]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_evolve_rejects_nondivisible_horizon(tmp_path):
    code = main(
        ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.3", "--T", "1.0",
         "--out", str(tmp_path)] + SMALL_GRID
    )
    assert code == 2


def test_scan_opnorm_slope_and_csv(tmp_path):
    code = main(
        [
            "scan", "--mode", "opnorm", "--kernel", "heat", "--s", "0", "--t", "0",
            "--mu-points", "8", "--grid-N", "16", "--grid-M", "256", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, rows, footer = _read_csv(tmp_path / "scan_opnorm.csv")
    assert header == ["abs_mu", "arg_mu", "norm", "slope", "residual", "seed"]
    assert len(rows) == 8
    # heat at s=t=0 peaks on the zero mode, norm (2 sqrt(1+mu^2))^{-1/2}
    slope = float(rows[0][3])
    assert slope == pytest.approx(-0.5, abs=0.01)
    tags = {ln.split("=")[0] for ln in footer}
    assert tags == {"# slope", "# residual", "# version", "# config"}


def test_scan_rbound_structure(tmp_path):
    code = main(
        [
            "scan", "--mode", "rbound", "--p", "2", "--mu-points", "10",
            "--mu-max", "100", "--batch-size", "2", "--trials", "4", "--restarts", "2",
            "--grid-N", "16", "--grid-M", "64", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    header, rows, footer = _read_csv(tmp_path / "scan_rbound.csv")
    assert len(rows) == 5
    norms = [float(r[2]) for r in rows]
    assert all(v > 0 and math.isfinite(v) for v in norms)
    assert any(ln.startswith("# slope=") for ln in footer)


def test_scan_rays_parsing(tmp_path):
    code = main(
        [
            "scan", "--mode", "opnorm", "--rays", "0.0, 0.5", "--mu-points", "4",
            "--grid-N", "8", "--grid-M", "64", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    _, rows, _ = _read_csv(tmp_path / "scan_opnorm.csv")
    assert len(rows) == 8
    assert {r[1] for r in rows} == {"0.0", "0.5"}


def test_config_overlay_wins(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "heat", "N": 1}))
    # the flag names a bogus kernel; the config entry must override it
    assert main(["verify-symbol", "--kernel", "nosuch", "--config", str(cfg)]) == 0


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "heat", "bogus": 1}))
    assert main(["verify-symbol", "--kernel", "heat", "--config", str(cfg)]) == 2
    assert "config rejected" in capsys.readouterr().err


def test_config_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["verify-symbol", "--kernel", "heat", "--config", str(cfg)]) == 2


def test_config_missing_file(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["verify-symbol", "--kernel", "heat", "--config", str(missing)]) == 3


def test_scan_rerun_is_byte_identical(tmp_path):
    argv = [
        "scan", "--mode", "rbound", "--p", "2", "--mu-points", "5", "--mu-max", "50",
        "--batch-size", "1", "--trials", "4", "--restarts", "2",
        "--grid-N", "8", "--grid-M", "32", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    first = (tmp_path / "scan_rbound.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "scan_rbound.csv").read_bytes() == first


def test_lemma_report(tmp_path, capsys):
    assert main(["lemma", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    report = json.loads((tmp_path / "lemma.json").read_text())
    assert report["envelope_worst_rel_err"] <= 1e-6
    assert report["road_drift"] < 0.10
    assert report["road_base"]["min_f_minus_k"] > 0.0
