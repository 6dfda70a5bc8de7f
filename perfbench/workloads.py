"""Job lists and output checks for the three benchmark workloads.

A job is one README command, given to ``poissonops.cli.main`` as an argv
list with an ``--out`` directory appended by the runner.  Each job states the
exit code it must return and how its output is checked:

* ``extract`` pulls the deterministic numbers out of the artifacts; they are
  compared with ``reference.json`` at relative tolerance ``RTOL``.
* ``gate`` checks a condition that holds whatever the random draws are (the
  acceptance gates' own conditions for Monte-Carlo rows, residual caps,
  PASS/FAIL verdicts) and returns a problem description or ``None``.

Only the rbound jobs take the workload seed; every other job runs the same
inputs whatever the seed is.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Deterministic values may move in their last digits (a reordered sum, one
# shared FFT helper) but not more.  ATOL covers residual-sized values that
# sit at roundoff, where a relative comparison means nothing.
RTOL = 1e-8
ATOL = 1e-12
RESIDUAL_MAX = 1e-8
SLOPE_BAND = 0.1
RBOUND_ROWS = 5  # one ray, the default 20 mu points in batches of 4

WORKLOADS = ("evolve", "rbound", "certify")

# the Euler gate's deep normal grid: few modes, many nearly uniform nodes
DEEP_GRID = ("--grid-N", "8", "--grid-M", "1024", "--grid-X-max", "2", "--grid-r", "1.0005")
RBOUND = ("scan", "--mode", "rbound", "--prefactor-exponent", "0.5")
OPNORM_RAYS = ("--rays", "0,0.6,-0.6", "--mu-points", "40")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    expect_rc: Optional[int] = 0  # None: the outcome is recorded, not gated
    extract: Optional[Callable[[Path], object]] = None
    gate: Optional[Callable[[Path, str], Optional[str]]] = None


# ---------------------------------------------------------------------------
# artifact readers


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _scan_csv(path: Path) -> tuple[list, dict]:
    """Rows ``[abs_mu, arg_mu, norm]`` and the ``# key=value`` footer."""
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    footer = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    rows = [[float(r["abs_mu"]), float(r["arg_mu"]), float(r["norm"])] for r in csv.DictReader(body)]
    return rows, footer


def evolve_values(out: Path) -> list:
    steps = _jsonl(out / "evolve.jsonl")[1:]
    return [[s["t"], s["boundary_norm"], s["interior_norm"], s["delta"]] for s in steps]


def resolvent_values(out: Path) -> dict:
    rec = _jsonl(out / "solve.jsonl")[1]
    keys = ("boundary_norm", "boundary_max", "interior_norm", "diagnostics")
    return {k: rec[k] for k in keys}


def opnorm_values(out: Path) -> dict:
    rows, footer = _scan_csv(out / "scan_opnorm.csv")
    return {"rows": rows, "slope": float(footer["slope"]), "residual": float(footer["residual"])}


def lemma_values(out: Path) -> dict:
    report = json.loads((out / "lemma.json").read_text())
    for key in ("config", "record", "schema_version", "version"):
        report.pop(key)
    return report


# ---------------------------------------------------------------------------
# gates


def residual_gate(out: Path, stdout: str) -> Optional[str]:
    diags = resolvent_values(out)["diagnostics"]
    worst = max(diags.values())
    return None if worst <= RESIDUAL_MAX else f"residual {worst!r} above {RESIDUAL_MAX}"


def verdict_gate(word: str) -> Callable[[Path, str], Optional[str]]:
    def gate(out: Path, stdout: str) -> Optional[str]:
        if f"RESULT {word} " not in stdout:
            return f"verify-symbol did not report RESULT {word}"
        return None

    return gate


def rbound_gate(two_sided: bool) -> Callable[[Path, str], Optional[str]]:
    """Finite positive rows and the slope condition of the acceptance gates.

    ``randomized-bound-flat`` asks ``|slope| <= 0.1``; ``eps-loss-variant``
    (p = 1.5) only caps the slope from above.
    """

    def gate(out: Path, stdout: str) -> Optional[str]:
        rows, footer = _scan_csv(out / "scan_rbound.csv")
        if len(rows) != RBOUND_ROWS:
            return f"{len(rows)} rows, expected {RBOUND_ROWS}"
        if not all(math.isfinite(r[2]) and r[2] > 0.0 for r in rows):
            return "non-finite or non-positive row"
        slope = float(footer["slope"])
        ok = abs(slope) <= SLOPE_BAND if two_sided else slope <= SLOPE_BAND
        return None if ok else f"slope {slope!r} outside the gate band"

    return gate


# ---------------------------------------------------------------------------
# job lists


def workload_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "evolve":
        # Three (grid, mu) keys in a fixed cycle against the two-entry Green
        # tensor cache: no job reuses a tensor built by an earlier job, also
        # when the list repeats, as for separate CLI invocations.
        return [
            Job("heat-default", ("solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.01",
                                 "--T", "1", "--g", "const"), extract=evolve_values),
            Job("heat-deep-dt04", ("solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.04",
                                   "--T", "1", "--g", "const", *DEEP_GRID), extract=evolve_values),
            Job("heat-deep-dt02", ("solve", "--problem", "heat-dynbc", "--evolve", "--dt", "0.02",
                                   "--T", "1", "--g", "mode1", *DEEP_GRID), extract=evolve_values),
            Job("kpp-default", ("solve", "--problem", "kpp", "--evolve", "--dt", "0.01",
                                "--T", "1", "--g", "const"), extract=evolve_values),
            Job("ch-default", ("solve", "--problem", "ch", "--evolve", "--dt", "0.01",
                               "--T", "1", "--g", "const"), extract=evolve_values),
        ]
    if workload == "rbound":
        s = ("--seed", str(seed))
        return [
            Job("p2-weak", (*RBOUND, "--p", "2", "--normal-class", "weak", *s),
                gate=rbound_gate(two_sided=True)),
            Job("p2-strong", (*RBOUND, "--p", "2", "--normal-class", "strong", *s),
                gate=rbound_gate(two_sided=True)),
            Job("p1.5-strong", (*RBOUND, "--p", "1.5", "--normal-class", "strong", *s),
                gate=rbound_gate(two_sided=False)),
            Job("ray0.6", (*RBOUND, "--rays", "0.6", "--grid-N", "64", "--grid-M", "192", *s),
                gate=rbound_gate(two_sided=True)),
        ]
    if workload == "certify":
        return [
            Job("symbol-heat", ("verify-symbol", "--kernel", "heat", "--N", "4"),
                gate=verdict_gate("PASS")),
            Job("symbol-heat-weak", ("verify-symbol", "--kernel", "heat", "--class", "weak", "--N", "4"),
                gate=verdict_gate("PASS")),
            # reports DIVERGENT today (refinement ratio 1.17): recorded, not gated
            Job("symbol-kpp", ("verify-symbol", "--kernel", "kpp", "--N", "2"), expect_rc=None),
            Job("symbol-constant-one", ("verify-symbol", "--kernel", "constant-one", "--N", "2"),
                expect_rc=1, gate=verdict_gate("FAIL")),
            Job("opnorm-heat", ("scan", "--mode", "opnorm", "--kernel", "heat", "--s", "0.25",
                                "--t", "0.75", *OPNORM_RAYS), extract=opnorm_values),
            Job("opnorm-kpp", ("scan", "--mode", "opnorm", "--kernel", "kpp", "--s", "0.5",
                               "--t", "1.5", *OPNORM_RAYS), extract=opnorm_values),
            Job("opnorm-2d", ("scan", "--mode", "opnorm", "--grid-dim", "2", "--grid-N", "64",
                              "--grid-M", "128"), extract=opnorm_values),
            Job("resolvent-heat", ("solve", "--problem", "heat-dynbc", "--mu", "1"),
                extract=resolvent_values, gate=residual_gate),
            Job("resolvent-ch", ("solve", "--problem", "ch", "--mu", "1"),
                extract=resolvent_values, gate=residual_gate),
            Job("resolvent-kpp", ("solve", "--problem", "kpp", "--mu", "1"),
                extract=resolvent_values, gate=residual_gate),
            Job("lemma", ("lemma", "--road-n", "240"), extract=lemma_values),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# checking


def mismatch(got, want, where: str = "") -> Optional[str]:
    """First place where ``got`` differs from ``want`` beyond the tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{where or 'value'}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where or 'value'}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
        return None
    return f"{where or 'value'}: {got!r} vs reference {want!r}"


def check(job: Job, rc: Optional[int], out: Path, stdout: str, reference: dict) -> Optional[str]:
    """Problem with one finished job, or ``None`` if its output is right."""
    if job.expect_rc is None:
        return None
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}"
    if job.extract is not None:
        found = mismatch(job.extract(out), reference[job.name])
        if found:
            return found
    if job.gate is not None:
        return job.gate(out, stdout)
    return None
