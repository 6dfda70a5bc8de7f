"""End-to-end runs of the console entry point, in process (one in a subprocess)."""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import poissonops
from poissonops import cli
from poissonops.cli import (
    CONFIG_SCHEMA,
    _boundary_data,
    _check,
    _ConfigError,
    _echo,
    build_parser,
    main,
    rbound_batch_scan,
)
from poissonops.core import TangentialGrid, _xi_sq, make_grids
from poissonops.rbound import RademacherSampler
from poissonops.symbols import _KERNELS, heat_kernel
from poissonops.transforms import forward_fft

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


def _run_cli(argv, **env):
    """``python -m poissonops.cli argv`` in a subprocess of this checkout, ``env`` added to the environment."""
    src = str(Path(poissonops.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env}
    return subprocess.run([sys.executable, "-m", "poissonops.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


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


def test_kernel_enum_is_the_catalog():
    assert CONFIG_SCHEMA["properties"]["kernel"]["enum"] == list(_KERNELS)


def test_unknown_kernel_is_refused_by_the_schema(capsys):
    assert main(["verify-symbol", "--kernel", "nosuch"]) == 2
    assert "config rejected: 'nosuch' is not one of" in capsys.readouterr().err


def test_solve_kpp_worked_point(tmp_path):
    code = main(
        ["solve", "--problem", "kpp", "--mu", "1", "--out", str(tmp_path)] + SMALL_GRID
    )
    assert code == 0
    records = _read_jsonl(tmp_path / "solve.jsonl")
    header, body = records[0], records[1]
    assert header["record"] == "header"
    assert header["schema_version"] == 2
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


def test_mode_data_is_a_lattice_mode():
    # mode<m> is exp(2 pi i m x / L): one spectral coefficient on any box
    grid = TangentialGrid(dim=1, N=16, L=4.0)
    spec = forward_fft(_boundary_data("mode1", grid))
    assert np.count_nonzero(np.abs(spec) > 1e-12 * np.max(np.abs(spec))) == 1
    # at the default L = 2 pi the frequency is exactly m
    grid = TangentialGrid(dim=2, N=16, L=2.0 * math.pi)
    want = np.exp(1j * -3 * grid.points_1d)[:, None] * np.ones(16)
    assert np.array_equal(_boundary_data("mode-3", grid).samples, want)
    # the lattice is -N/2 <= m < N/2: any other m would alias to one of its modes
    for name in ("mode-8", "mode7"):
        spec = forward_fft(_boundary_data(name, grid))
        assert np.count_nonzero(np.abs(spec) > 1e-12 * np.max(np.abs(spec))) == 1
    for name in ("mode8", "mode16"):
        with pytest.raises(ValueError, match="-8 <= m < 8"):
            _boundary_data(name, grid)


def test_off_lattice_mode_data_is_a_usage_error(tmp_path, capsys):
    # mode256 on 256 modes would alias to const while the config echoed mode256
    argv = ["solve", "--problem", "heat-dynbc", "--mu", "1", "--g", "mode8", "--out", str(tmp_path)]
    assert main(argv + SMALL_GRID) == 2
    assert "-4 <= m < 4" in capsys.readouterr().err
    assert not (tmp_path / "solve.jsonl").exists()


@pytest.mark.parametrize(
    "g", ["mode", "modex", "mode 1", "mode\uff11", "mode+1", "mode1.0", "mode-00", "mode007", "mode-0"]
)
def test_malformed_mode_data_is_a_usage_error(tmp_path, capsys, g):
    # only mode<m> with an ASCII integer m names a lattice mode; a bare int() took " 1" and full-width digits,
    # and m is spelled canonically (no leading zero, no -0) so equal configs echo alike
    argv = ["solve", "--problem", "heat-dynbc", "--mu", "1", "--g", g, "--out", str(tmp_path)]
    assert main(argv + SMALL_GRID) == 2
    assert f"unknown boundary data {g!r}; use const, zero, or mode<m>" in capsys.readouterr().err
    assert not (tmp_path / "solve.jsonl").exists()


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
        ["scan", "--mode", "rbound", "--seed", "-3"] + SMALL_GRID,
        ["verify-symbol", "--kernel", "heat", "--d", "-1"],
    ],
    ids=["road-n", "seed", "verify-d"],
)
def test_flags_pass_the_config_schema(tmp_path, capsys, argv):
    # a flag value outside CONFIG_SCHEMA is rejected as its config twin is
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "config rejected" in capsys.readouterr().err


# the least argv each subcommand parses: its required flags
REQUIRED = {
    "verify-symbol": ["--kernel", "heat"],
    "scan": [],
    "solve": ["--problem", "ch"],
    "lemma": [],
}


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(parser: argparse.ArgumentParser) -> dict:
    """Destination -> option string of every flag but ``--config`` and ``-h``."""
    return {
        a.dest: a.option_strings[0]
        for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


def _out_of_range(prop: dict):
    """Flag values just outside each bound and enum of a schema property."""
    if "enum" in prop:
        yield "bogus"
    if "minimum" in prop:
        yield str(prop["minimum"] - 1)
    if "exclusiveMinimum" in prop:
        yield str(prop["exclusiveMinimum"])
    if "maximum" in prop:
        yield str(prop["maximum"] + 1)
    if "minItems" in prop:
        yield ",".join(["0"] * (prop["minItems"] - 1))


OUT_OF_RANGE = [
    (command, key, value)
    for command, parser in _subparsers().items()
    for key in _flags(parser)
    for value in _out_of_range(CONFIG_SCHEMA["properties"][key])
]


@pytest.mark.parametrize(
    "argv",
    [["verify-symbol", "--kernel", "heat", "--grid-N", "3"], ["lemma", "--grid-r", "0.5"]],
    ids=["verify-symbol", "lemma"],
)
def test_commands_refuse_grid_flags_they_ignore(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [["verify-symbol", "--kernel", "heat"], ["lemma"], ["solve", "--problem", "ch"] + SMALL_GRID],
    ids=["verify-symbol", "lemma", "solve"],
)
def test_commands_refuse_the_seed_they_ignore(tmp_path, capsys, argv):
    # none of these commands draws a random number, so none takes a seed
    assert main(argv + ["--seed", "3", "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_config_seed_is_ignored_where_unused(tmp_path, capsys):
    # a config file may carry keys of other commands; they are not echoed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "heat", "N": 0, "seed": 5}))
    assert main(["verify-symbol", "--kernel", "heat", "--config", str(cfg)]) == 0
    config_line = capsys.readouterr().out.splitlines()[0]
    assert "seed" not in json.loads(config_line.removeprefix("config "))


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_flags_are_the_echoed_schema_keys(command):
    # every flag a command accepts is echoed, and is spelled after its schema key
    flags = _flags(_subparsers()[command])
    assert set(flags) == set(_echo(build_parser().parse_args([command, *REQUIRED[command]])))
    for key, flag in flags.items():
        assert key in CONFIG_SCHEMA["properties"]
        assert flag == "--" + key.replace("_", "-")


def test_schema_constraints_are_all_generated():
    # _out_of_range must know every constraint keyword the schema uses
    known = {"type", "default", "description", "items", "enum", "minimum", "exclusiveMinimum",
             "maximum", "minItems"}
    for prop in CONFIG_SCHEMA["properties"].values():
        assert set(prop) <= known


@pytest.mark.parametrize(
    "command, key, value", OUT_OF_RANGE, ids=[f"{c}-{k}={v}" for c, k, v in OUT_OF_RANGE]
)
def test_out_of_range_flags_are_rejected(tmp_path, capsys, command, key, value):
    flag = "--" + key.replace("_", "-")
    argv = [command, *REQUIRED[command], "--out", str(tmp_path), flag, value]
    assert main(argv) == 2
    assert "config rejected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-symbol", "solve"])
def test_required_flags(tmp_path, command):
    assert main([command, "--out", str(tmp_path)]) == 2


def _readme_command_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("poissonops ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert {line.split()[1] for line in lines} == set(REQUIRED)
    for line in lines:
        _echo(build_parser().parse_args(shlex.split(line)[1:]))


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_subcommand_help(capsys, command):
    assert main([command, "--help"]) == 0
    assert f"usage: poissonops {command}" in capsys.readouterr().out


def test_config_schema_is_valid():
    # cli._check reads the schema with draft 2020-12 semantics, so the schema
    # itself must be a valid draft 2020-12 schema
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


@pytest.mark.parametrize(
    "problem, keys",
    [
        ("heat-dynbc", {"interior", "dynamic_bc", "trace"}),
        ("ch", {"boundary_dynamics"}),
        ("kpp", {"bulk_row", "road_row", "robin"}),
    ],
)
def test_evolve_writes_one_step_line_per_step_with_its_diagnostics(tmp_path, problem, keys):
    argv = ["solve", "--problem", problem, "--evolve", "--dt", "0.125", "--T", "1.0",
            "--g", "mode1", "--out", str(tmp_path)] + SMALL_GRID
    assert main(argv) == 0
    header, *steps = _read_jsonl(tmp_path / "evolve.jsonl")
    assert header["record"] == "header"
    assert [s["record"] for s in steps] == ["step"] * 8
    assert [s["t"] for s in steps] == pytest.approx([0.125 * m for m in range(1, 9)])
    for step in steps:
        assert set(step["diagnostics"]) == keys
        assert all(math.isfinite(v) and v >= 0.0 for v in step["diagnostics"].values())


def test_evolve_streams_its_steps(tmp_path):
    # 100 steps of a 64 x 256 bulk: a trajectory kept until the end would
    # hold at least 100 fields (25 MiB); a streamed one holds a few at a time
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.01", "--T", "1",
            "--g", "const", "--grid-N", "64", "--grid-M", "256", "--out", str(tmp_path)]
    field_bytes = 64 * 256 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * field_bytes
    assert len(_read_jsonl(tmp_path / "evolve.jsonl")) == 101


def test_evolve_on_two_normal_nodes_is_a_usage_error(tmp_path, capsys):
    # from step 2 the heat step has interior data, whose residual check takes
    # second normal differences: two nodes are refused, not an uncaught IndexError
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.5", "--T", "1",
            "--grid-N", "8", "--grid-M", "2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "at least three normal nodes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, values",
    [
        # r^(M - 1) overflows at the default grading r = 1.05
        (["--problem", "ch", "--grid-M", "20000", "--grid-N", "2"], "M=20000, r=1.05"),
        # the cell (L/N)^dim overflows
        (["--problem", "kpp", "--grid-dim", "2", "--grid-L", "1e300", "--grid-N", "2"], "L=1e+300, N=2, dim=2"),
    ],
    ids=["normal-nodes", "tangential-cell"],
)
def test_grids_that_overflow_are_usage_errors(tmp_path, capsys, argv, values):
    assert main(["solve", *argv, "--out", str(tmp_path)]) == 2
    assert values in capsys.readouterr().err


def test_evolve_overflow_is_a_usage_error_with_warnings_as_errors(tmp_path, capsys):
    # in process, under the suite's error::RuntimeWarning filter: the overflow of
    # a squared norm is left to the record, which refuses it with exit 2
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.01", "--T", "4",
            "--g", "const", "--grid-N", "2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "nonfinite norm" in capsys.readouterr().err


def test_evolve_refuses_a_nonfinite_step_and_keeps_the_finite_ones(tmp_path):
    # the heat step map on the default normal grid amplifies (see the strict
    # xfail in test_dynbc.py), and by t = 3.68 a squared norm overflows; the run
    # is a subprocess so that numpy's overflow warning stays a warning, and the
    # step the record refuses ends it with exit 2 instead of an Infinity line
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.01", "--T", "4",
            "--g", "const", "--grid-N", "2", "--out", str(tmp_path)]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert "nonfinite" in proc.stderr

    def refuse(constant):
        raise ValueError(f"{constant} in evolve.jsonl")

    text = (tmp_path / "evolve.jsonl").read_text()
    header, *steps = [json.loads(line, parse_constant=refuse) for line in text.splitlines()]
    assert header["record"] == "header"
    assert 1 <= len(steps) < 400
    assert [s["t"] for s in steps] == pytest.approx([0.01 * m for m in range(1, len(steps) + 1)])


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
    # the layout as written: csv.writer's CRLF ends the header and data rows,
    # and the footer follows in a fixed order, one LF-terminated line each
    lines = (tmp_path / "scan_opnorm.csv").read_bytes().decode().splitlines(keepends=True)
    assert len(lines) == 1 + 8 + 4
    assert all(ln.endswith("\r\n") for ln in lines[:9])
    footer_lines = lines[9:]
    assert [ln.split("=")[0] for ln in footer_lines] == ["# slope", "# residual", "# version", "# config"]
    assert all(ln.endswith("\n") and not ln.endswith("\r\n") for ln in footer_lines)


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


FIT_ROWS = "decay fit needs at least 5 rows"
INCREASING = "modulus must increase strictly within each ray"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--mode", "opnorm", "--mu-points", "4"), FIT_ROWS),
        (("--mode", "rbound", "--mu-points", "16"), FIT_ROWS),
        (("--mode", "rbound", "--rays", "0,0.5", "--mu-points", "3", "--batch-size", "2"), FIT_ROWS),
        (("--mu-min", "1000", "--mu-max", "1"), INCREASING),
        (("--mu-min", "5", "--mu-max", "5"), INCREASING),
        (("--rays", "0,0"), INCREASING),
    ],
    ids=[
        "opnorm-4-rows", "rbound-4-batches", "rbound-2-rays-of-2-batches",
        "mu-decreasing", "mu-constant", "ray-repeated",
    ],
)
def test_scan_too_short_for_the_fit_is_refused_before_any_row(tmp_path, monkeypatch, capsys, argv, message):
    # the decay fit needs five rows, each modulus above the last on its ray:
    # any other scan is refused up front, not after every row has been computed
    def no_row(*args, **kwargs):
        raise AssertionError("a scan row was computed")

    monkeypatch.setattr("poissonops.cli.opnorm_hilbert", no_row)
    monkeypatch.setattr("poissonops.cli.rbound_lower", no_row)
    assert main(["scan", *argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_readme_rbound_scan_evaluates_each_kernel_once():
    # one multiplier per mu serves every probe input: 20 evaluations, not 20 * 19,
    # each at the N/2 + 1 distinct |xi|^2 of the grid, not at its N modes; the
    # profile of a decay kernel reads its rate
    seen, sizes = [], set()

    def rate(xi, mu):
        seen.append(mu)
        sizes.add(np.size(_xi_sq(xi)))
        return heat_kernel.rate(xi, mu)

    grid, ngrid = make_grids()
    rbound_batch_scan(
        replace(heat_kernel, rate=rate), p=2.0, q=2.0, weak=True, exponent=0.5,
        mu_values=np.geomspace(1.0, 1000.0, 20), rays=(0.0,), grid=grid, ngrid=ngrid,
        trials=24, restarts=8, seed=0, batch=4,
    )
    assert len(seen) == 20 and len(set(seen)) == 20
    assert sizes == {grid.N // 2 + 1}


RBOUND_JOB = ("scan", "--mode", "rbound", "--prefactor-exponent", "0.5")
RBOUND_JOB_ARGS = (
    ("--p", "2", "--normal-class", "weak"),
    ("--p", "2", "--normal-class", "strong"),
    ("--p", "1.5", "--normal-class", "strong"),
    ("--rays", "0.6", "--grid-N", "64", "--grid-M", "192"),
)


def _record_draws(mp: pytest.MonkeyPatch) -> list[tuple]:
    """Every draw of every sampler in order, ``(method, low, high, count, draws)``; ``unit`` has no bounds."""
    calls = []
    unit, integers = RademacherSampler.unit, RademacherSampler.integers

    def recorded_unit(self, count):
        draws = unit(self, count)
        calls.append(("unit", None, None, count, draws))
        return draws

    def recorded_integers(self, low, high, count):
        draws = integers(self, low, high, count)
        calls.append(("integers", low, high, count, draws))
        return draws

    mp.setattr(RademacherSampler, "unit", recorded_unit)
    mp.setattr(RademacherSampler, "integers", recorded_integers)
    return calls


@pytest.mark.parametrize("seed, batches", [(0, 28), (1, 28)])
def test_rbound_scans_draw_one_sign_batch_per_sampled_sum(tmp_path, monkeypatch, seed, batches):
    # the README jobs (batches of 4 operators, 24 trials) average every sign sum exactly over its
    # 2^(n-1) <= 8 patterns: they draw sizes and selections only, and no sign
    calls = _record_draws(monkeypatch)
    for args in RBOUND_JOB_ARGS:
        calls.clear()
        assert main([*RBOUND_JOB, *args, "--seed", str(seed), "--out", str(tmp_path)]) == 0
        assert calls and all(kind == "integers" and high != 2 for kind, _, high, _, _ in calls)
    # with batches of 8, a sum of n >= 6 terms has 2^(n-1) > 24 patterns and draws one batch of 24 n
    # signs; at p = 1.5 both the denominator and the numerator of such a restart are sampled.  The
    # streams, draw counts and restart order are part of the output
    calls.clear()
    argv = [*RBOUND_JOB, "--p", "1.5", "--normal-class", "strong", *SMALL_GRID, "--mu-points", "40",
            "--batch-size", "8", "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == 0
    sizes = [int(draws[0]) for _, low, _, _, draws in calls if low == 1]
    assert len(sizes) == 5 * 8  # 5 rows of 8 restarts
    want = []
    for n in sizes:  # 8 operators and the 12 probe inputs of the 8-point grid
        want += [(1, 9, 1), (0, 8, n), (0, 12, n)] + [(0, 2, 24 * n)] * (2 if 2 ** (n - 1) > 24 else 0)
    assert [(low, high, count) for _, low, high, count, _ in calls] == want
    assert sum(high == 2 for _, _, high, _, _ in calls) == batches


def _draws_by_batch(tmp_path, monkeypatch, seed):
    """The selections and the Monte-Carlo signs a small rbound scan draws, one pair of arrays per batch."""
    batches = []
    with monkeypatch.context() as mp:
        calls = _record_draws(mp)
        lower = cli.rbound_lower

        def per_batch(*args, **kwargs):
            calls.clear()
            estimate = lower(*args, **kwargs)
            picks = [draws for _, low, high, _, draws in calls if low == 0 and high != 2]
            signs = [draws for _, low, high, _, draws in calls if high == 2]
            batches.append((np.concatenate(picks), np.concatenate(signs)))
            return estimate

        mp.setattr(cli, "rbound_lower", per_batch)
        # batches of 4 operators at 3 trials: a sum of 3 or 4 terms draws its signs
        argv = [*RBOUND_JOB, "--p", "1.5", *SMALL_GRID, "--trials", "3"]
        assert main([*argv, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    return batches


def test_rbound_batches_of_different_seeds_draw_different_signs(tmp_path, monkeypatch):
    # batch samplers keyed seed + stride * idx would give --seed <stride> batch 0
    # the draws of --seed 0 batch 1; children of one seed tree never coincide,
    # in their selections nor in their Monte-Carlo signs
    base = _draws_by_batch(tmp_path, monkeypatch, 0)[1]
    for stride in (1, 7919):
        shifted = _draws_by_batch(tmp_path, monkeypatch, stride)[0]
        for got, other in zip(shifted, base):
            assert got.size and other.size
            assert not np.array_equal(got, other)


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


@pytest.mark.parametrize("g", ["const", "mode1"], ids=["sparse", "dense"])
def test_evolve_rerun_is_byte_identical(tmp_path, g):
    # const data reach one mode, so the heat step runs on a gathered plan; mode1 is dense to roundoff
    argv = [
        "solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.05", "--T", "0.5", "--g", g,
        "--grid-N", "8", "--grid-M", "32", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    first = (tmp_path / "evolve.jsonl").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "evolve.jsonl").read_bytes() == first


def test_evolve_norms_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 elements across its threads, and the split moves the
    # last bits of the sum: the 30,000-node trapezoid sums of this trajectory's norms must not go through BLAS
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "1", "--T", "2", "--g", "const",
            "--grid-N", "2", "--grid-M", "30000", "--grid-r", "1.0001"]
    steps = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = _run_cli([*argv, "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        header, *records = _read_jsonl(out / "evolve.jsonl")
        assert header["record"] == "header" and len(records) == 2
        steps.append(records)
    assert steps[0] == steps[1]


def test_lemma_report(tmp_path, capsys):
    assert main(["lemma", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    report = json.loads((tmp_path / "lemma.json").read_text())
    assert report["envelope_worst_rel_err"] <= 1e-6
    assert report["road_drift"] < 0.10
    assert report["road_base"]["min_f_minus_k"] > 0.0


def test_lemma_envelope_maxima_in_blocks_are_the_one_pass_maxima():
    # the blocks of s-values only bound the working set: each value is formed as over the whole lattice, and
    # a max is exact
    svals = np.geomspace(1.0, 1e4, 100_000)
    maxima = cli._envelope_maxima()
    assert list(maxima) == list(itertools.product((1.5, 2.0, 3.0), (0.3, 0.7, 0.9), (1e-3, 1.0, 1e3)))
    for (rho, frac, t), top in maxima.items():
        assert top == float(np.max(svals ** (frac * rho) * (1.0 + (t * svals) ** 2) ** (-0.5 * rho)))


def _near_bounds(prop: dict) -> list:
    """Numbers inside, on and beyond each bound of a property, as ints and as floats."""
    bounds = [prop[k] for k in ("minimum", "maximum", "exclusiveMinimum") if k in prop] or [0]
    near = [b + step for b in bounds for step in (-1, -0.5, 0, 0.5, 1)]
    return near + [float(v) for v in near]


def _entries(prop: dict):
    """Values for one config entry: of its own type, inside, on and beyond each bound, or of a wrong type."""
    numbers = st.one_of(st.sampled_from(_near_bounds(prop)), st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6))
    items = st.one_of(st.sampled_from(_near_bounds(prop.get("items", {}))), st.booleans(), st.text(max_size=1))
    own = {
        "integer": numbers,
        "number": numbers,
        "string": st.sampled_from([*prop.get("enum", ["const"]), "bogus"]),
        "boolean": st.booleans(),
        "array": st.lists(items, max_size=3),
    }.get(prop.get("type"), st.nothing())
    wrong = st.one_of(
        numbers, st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
    )
    return st.one_of(own, wrong)


_PROPERTIES = CONFIG_SCHEMA["properties"]
_ENTRIES = {key: _entries(_PROPERTIES.get(key, {})) for key in [*_PROPERTIES, "bogus", "Seed"]}
_DEFAULTS = {key: prop["default"] for key, prop in _PROPERTIES.items() if "default" in prop}
_DRAWN = st.lists(st.sampled_from(list(_ENTRIES)), unique=True, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({key: _ENTRIES[key] for key in keys})
)
# a few drawn entries alone, or over every default
CONFIGS = _DRAWN | _DRAWN.map(lambda drawn: {**_DEFAULTS, **drawn})


ORACLE = Draft202012Validator(CONFIG_SCHEMA)


def _agrees_with_the_oracle(cfg) -> bool:
    """The checker accepts ``cfg`` exactly when the validator does, or refuses it with the validator's first message."""
    first = next(ORACLE.iter_errors(cfg), None)
    try:
        _check(cfg, CONFIG_SCHEMA)
    except _ConfigError as exc:
        return first is not None and exc.message == first.message
    return first is None


def test_config_check_agrees_with_the_validator_on_every_bound():
    # each entry over the defaults, at, beside and beyond each of its bounds, and of each wrong type
    for key, prop in _PROPERTIES.items():
        near = _near_bounds(prop) + _near_bounds(prop.get("items", {}))
        for value in [*near, *([v] for v in near), *prop.get("enum", []), True, False, None, "bogus", [], {}]:
            assert _agrees_with_the_oracle({**_DEFAULTS, key: value}), (key, value)


@settings(max_examples=200, deadline=None)
@given(cfg=CONFIGS)
def test_config_check_agrees_with_the_validator(cfg):
    # jsonschema is the oracle of the CLI's checker on finite configs
    assert _agrees_with_the_oracle(cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_check_refuses_nonfinite_numbers(bad):
    # the one deliberate difference from the validator: RFC 8259 JSON has no NaN
    # or infinity (Python's json reads them), so no number entry or item takes one;
    # the validator lets a NaN pass every bound
    for key, prop in _PROPERTIES.items():
        if prop["type"] == "number":
            cfg = {**_DEFAULTS, key: bad}
        elif prop.get("items", {}).get("type") == "number":
            cfg = {**_DEFAULTS, key: [0.0, bad]}
        else:
            continue
        with pytest.raises(_ConfigError, match="is not a finite number"):
            _check(cfg, CONFIG_SCHEMA)
        assert ORACLE.is_valid(cfg) or not math.isnan(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.01", "--T", "inf"],
        ["solve", "--problem", "heat-dynbc", "--evolve", "--dt", "nan"],
        ["scan", "--s", "nan"],
        ["scan", "--rays", "0,-inf"],
    ],
    ids=["T-inf", "dt-nan", "s-nan", "rays-inf"],
)
def test_nonfinite_flags_are_rejected(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)] + SMALL_GRID) == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("entry", ['"T": Infinity', '"dt": NaN', '"rays": [0.0, -Infinity]'])
def test_nonfinite_config_entries_are_rejected(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{" + entry + "}")
    argv = ["solve", "--problem", "heat-dynbc", "--evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv + SMALL_GRID) == 2
    assert "config rejected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_float_config_entries_are_integers(tmp_path, capsys):
    # JSON Schema counts 2.0 as an integer, so the overlay hands the command an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "heat", "N": 1.0}))
    assert main(["verify-symbol", "--kernel", "heat", "--config", str(cfg)]) == 0
    config_line = capsys.readouterr().out.splitlines()[0]
    assert json.loads(config_line.removeprefix("config "))["N"] == 1
    cfg.write_text(json.dumps({"grid_N": 8.0, "grid_M": 16.0, "grid_L": 6, "mu": 2}))
    assert main(["solve", "--problem", "ch", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header = _read_jsonl(tmp_path / "solve.jsonl")[0]
    assert header["config"]["grid_N"] == 8 and isinstance(header["config"]["grid_N"], int)
    # and a number entry is a float, as its flag is: the config run and the
    # flag run echo 2.0 and write the same artifact
    echoed = json.loads(capsys.readouterr().out.splitlines()[0].removeprefix("config "))
    assert echoed["mu"] == 2.0 and isinstance(echoed["mu"], float)
    from_config = (tmp_path / "solve.jsonl").read_bytes()
    argv = ["solve", "--problem", "ch", "--grid-N", "8", "--grid-M", "16", "--grid-L", "6", "--mu", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "solve.jsonl").read_bytes() == from_config


def test_a_number_entry_beyond_the_float_range_is_refused(tmp_path, capsys):
    # a number entry is taken as a float, so an integer no float holds is
    # refused by the check, also where the command does not take the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mu": 1' + "0" * 400 + "}")
    assert main(["verify-symbol", "--kernel", "heat", "--N", "1", "--config", str(cfg)]) == 2
    assert "is not a finite number" in capsys.readouterr().err


# the sizes of a drawn run: no run allocates more than a few MB
_CAPS = {"grid_N": 16, "grid_M": 32, "mu_points": 6, "batch_size": 8, "trials": 6, "restarts": 2, "road_n": 20}


def _finite_numbers(low=None, exclusive=False):
    """Finite floats from ``low`` (excluded if ``exclusive``): hypothesis's own, or a power of ten from 1e-323
    to 1e308, signed without ``low`` and past it otherwise."""
    if low is None:
        decades = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.integers(-323, 308))
    else:  # the powers from the first one past low: none is drawn to be rejected
        first = next(e for e in range(-323, 309) if (10.0**e > low if exclusive else 10.0**e >= low))
        decades = st.integers(first, 308).map(lambda e: 10.0**e)
    return st.floats(min_value=low, exclude_min=exclusive, allow_nan=False, allow_infinity=False) | decades


def _valid_entry(key: str):
    """Values of one key within ``CONFIG_SCHEMA``, the sizes under ``_CAPS``."""
    prop = _PROPERTIES[key]
    if "enum" in prop:
        return st.sampled_from(prop["enum"])
    if key == "grid_N":  # mostly powers of two, which the grid takes
        return st.sampled_from([2, 4, 8, 16]) | st.integers(2, _CAPS[key])
    if key in ("mu_points", "batch_size"):  # at the caps and at one now and then, so that scans fit their rows
        return st.sampled_from([_CAPS[key], 1]) | st.integers(1, _CAPS[key])
    kind = prop["type"]
    if kind == "integer":
        return st.integers(prop.get("minimum", 0), _CAPS.get(key, prop.get("maximum", 2**70)))
    if kind == "number":
        return _finite_numbers(prop.get("minimum", prop.get("exclusiveMinimum")), "exclusiveMinimum" in prop)
    if kind == "array":
        return st.lists(_finite_numbers(), min_size=1, max_size=3)
    if kind == "boolean":
        return st.booleans()
    return st.sampled_from(["const", "zero", "mode1", "mode-1", "mode3", "mode-8", "sin"])  # g, the one free string


@st.composite
def _valid_runs(draw):
    """A command and a value for every key it takes but ``out``, with at most ten Euler steps."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    keys = cli._COMMANDS[command].keys
    cfg = {key: draw(_valid_entry(key)) for key in keys if key not in ("out", "T")}
    if "T" in keys:  # T <= 10 dt, a whole multiple of dt now and then
        cfg["T"] = cfg["dt"] * draw(st.integers(1, 10) | st.floats(0.0, 10.0, exclude_min=True))
    return command, cfg


def _argv_flags(cfg: dict) -> list[str]:
    """Each entry as its flag, ``--key=value``, so that a value may begin with a minus sign."""
    argv = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(repr, value))}")
        else:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


def _artifacts(out: str) -> dict:
    return {path.name: path.read_bytes() for path in Path(out).iterdir()}


# 60 derandomized draws, or the whole-cli profile's seeded ones (tests/conftest.py)
@settings(max_examples=settings.default.max_examples if settings.get_current_profile_name() == "whole-cli" else 60,
          deadline=None)
@given(run=_valid_runs(), rerun=st.sampled_from([False, False, False, True]))
# the grid overflows that once escaped main as OverflowError tracebacks
@example(run=("solve", {"problem": "ch", "grid_N": 2, "grid_M": 3, "grid_r": 1e300}), rerun=False)
@example(run=("solve", {"problem": "kpp", "grid_dim": 2, "grid_N": 2, "grid_L": 1e300}), rerun=False)
# the numpy warnings that once escaped main: a decay profile's product and a fit without spread
@example(run=("solve", {"problem": "heat-dynbc", "mu": 5663358057880019.0, "grid_N": 2, "grid_M": 2, "grid_L": 1.0,
                        "grid_X_max": 3.1742530076497608e+292, "grid_r": 2.0}), rerun=False)
@example(run=("scan", {"mode": "opnorm", "mu_min": 5e-324, "mu_max": 1e-81, "mu_points": 6, "grid_N": 2, "grid_M": 2,
                       "grid_L": 1.0, "grid_X_max": 1.0, "grid_r": 2.0}), rerun=False)
# and a derivative stencil on a grading so steep that its weights overflow, and the probe bumps on a huge side
@example(run=("solve", {"problem": "heat-dynbc", "evolve": True, "dt": 1.0, "T": 2.0, "grid_N": 2, "grid_M": 11,
                        "grid_X_max": 1.0, "grid_r": 1e18}), rerun=False)
@example(run=("scan", {"mode": "rbound", "grid_N": 16, "grid_M": 2, "grid_L": 7.62964662868541e+306}), rerun=False)
def test_every_schema_valid_run_exits_0_1_or_2(run, rerun):
    # a drawn run ends in exit 0, 1 or 2 and raises nothing, not even a numpy RuntimeWarning (the suite makes
    # them errors); one that completes writes finite artifacts, and a rerun writes the same bytes.  The runs'
    # own output is dropped
    command, cfg = run
    with (
        tempfile.TemporaryDirectory() as out,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        argv = [command, *_argv_flags(cfg), f"--out={out}"]
        code = main(argv)
        first = _artifacts(out)
        if rerun:
            for path in Path(out).iterdir():
                path.unlink()
            assert main(argv) == code
            assert _artifacts(out) == first
    assert code in (0, 1, 2)
    if code != 2:
        assert not re.findall(rb"\b(?:nan|inf|NaN|Infinity)\b", b"".join(first.values()))
