"""Benchmark for poissonops: README CLI jobs run in-process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload evolve --seed 0 --seconds 30 --trace 0

One client calls ``poissonops.cli.main(argv)`` for each job of the workload,
one after the other; a pass is the whole job list, and passes repeat until
``--seconds`` have gone by (at least one pass).  Artifacts go to a scratch
directory under ``.perfbench_out/`` and are checked after each pass.

``--trace 0`` reports the end-to-end metrics: the median pass wall time, the
process's peak RSS, the median set-up time (import ``poissonops`` and build
the job list, once in this process and again in fresh processes) and the
share of jobs that passed their checks.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of ``spans.py``, each the
median over the traced passes, plus the tracing overhead.  Spans, the pinned
environment and per-job outcomes are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # fresh processes that repeat the set-up, besides this one


def pin_environment() -> dict:
    """Fix the settings that change the load, re-executing if any differ.

    They must be in the environment before the interpreter starts: BLAS reads
    its thread count when numpy loads, and glibc its arena limit at start-up.
    One malloc arena keeps peak RSS repeatable; with per-thread arenas the
    CLI's scan pool thread sometimes adds a 64 MB heap.
    """
    nproc = len(os.sched_getaffinity(0))
    pinned = {
        # the CLI reads this on every scan; a stray value would change the rbound load
        "POISSONOPS_WORKERS": "1",
        "MALLOC_ARENA_MAX": "1",
        **{var: str(nproc) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **pinned})
    return {"nproc": nproc, **pinned}


def set_up(workload: str, seed: int):
    """Import poissonops from this checkout and build the job list, timed."""
    if not (SRC / "poissonops" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'poissonops'} not found; run from a poissonops checkout")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import poissonops.cli as cli

    jobs = workloads.workload_jobs(workload, seed)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported poissonops from {cli.__file__}, not from {SRC}")
    return elapsed, cli, jobs


def setup_probe(args) -> float:
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, jobs, reference, workdir: Path, tracer=None, label="") -> tuple[float, list]:
    """Run every job once; return the wall time and one outcome per job."""
    runs = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{label}/{job.name}"
        buf = io.StringIO()
        error = None
        job_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main([*job.argv, "--out", str(workdir / job.name)])
        except Exception:  # a job that raises is a failed job, not a failed benchmark
            rc, error = None, traceback.format_exc()
        runs.append((job, rc, buf.getvalue(), error, time.perf_counter() - job_start))
    wall = time.perf_counter() - start

    outcomes = []
    for job, rc, text, error, seconds in runs:
        problem = error
        if problem is None:
            try:
                problem = workloads.check(job, rc, workdir / job.name, text, reference)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        verdict = [ln for ln in text.splitlines() if ln.startswith("RESULT ")]
        outcomes.append({"job": job.name, "rc": rc, "gated": job.expect_rc is not None,
                         "problem": problem, "verdict": verdict[-1] if verdict else None,
                         "seconds": seconds})
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, outcomes


def environment(pinned: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {**pinned, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


def median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, int]]:
    """Median over passes of each value, with the samples of all passes."""
    return {name: (statistics.median(p[name][0] for p in per_pass), sum(p[name][1] for p in per_pass))
            for name in per_pass[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pinned = pin_environment()
    setup_s, cli, jobs = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    env = environment(pinned)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"

    tracer = spans.Tracer() if args.trace else None
    walls, traced_walls, outcomes = [], [], []
    deadline = time.perf_counter() + args.seconds
    if tracer is not None:
        # the overhead compares warm passes; this pass takes the first-call costs
        outcomes += run_pass(cli, jobs, reference, workdir)[1]
    while True:
        wall, done = run_pass(cli, jobs, reference, workdir)
        walls.append(wall)
        outcomes += done
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, done = run_pass(cli, jobs, reference, workdir, tracer, f"pass{len(walls)}")
            finally:
                tracer.uninstall()
            traced_walls.append((wall, first, len(tracer.spans)))
            outcomes += done
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o["problem"])
    if tracer is None:
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": (statistics.median(walls), len(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, 1, "MB"),
            "setup_s": (statistics.median(setups), len(setups), "s"),
            "pass_ratio": ((attempted - failed) / attempted, attempted, "ratio"),
        }
    else:
        selfs = spans.self_times(tracer.spans)
        per_pass = [spans.layer_metrics(tracer.spans[lo:hi], selfs[lo:hi])
                    for _, lo, hi in traced_walls]
        units = dict(spans.PER_LAYER)
        metrics = {name: (value, n, units[name]) for name, (value, n) in median_metrics(per_pass).items()}
        overhead = statistics.median(w for w, _, _ in traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, len(traced_walls), "s")
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} passes={len(walls)} "
          f"traced_passes={len(traced_walls)} jobs/pass={len(jobs)}")
    for o in outcomes[: len(jobs)]:
        if not o["gated"]:
            print(f"ungated {o['job']}: exit {o['rc']} {o['verdict'] or ''}".rstrip())
    for o in outcomes:
        if o["problem"]:
            print(f"FAILED {o['job']}: {o['problem'].strip().splitlines()[-1]}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} ratio  samples={attempted}")
    for name, (value, n, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} samples={n}")
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "env": env, "args": vars(args), "pass_walls_s": walls,
        "traced_pass_walls_s": [w for w, _, _ in traced_walls],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, n, u) in metrics.items()},
        "outcomes": outcomes,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
