"""Rewrite reference.json from the current checkout.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs each job that has deterministic output once and stores the numbers its
``extract`` function reads.  Regenerate only when a change is meant to alter
those numbers, and say so with the change.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    run.pin_environment()
    workdir = run.OUT / "reference"
    reference = {}
    for workload in workloads.WORKLOADS:
        _, cli, jobs = run.set_up(workload, 0)
        for job in jobs:
            if job.extract is None:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([*job.argv, "--out", str(workdir / job.name)])
            if rc != job.expect_rc:
                sys.exit(f"error: {job.name} exited {rc}, expected {job.expect_rc}")
            reference[job.name] = job.extract(workdir / job.name)
    shutil.rmtree(workdir)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(reference)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
