"""Command line front end: config handling, scans, solves, and reports.

Four subcommands cover the reproduction surface: ``verify-symbol`` prints a
seminorm refinement table and fails on divergence, ``scan`` sweeps operator
norms or randomized-bound batches over a log grid of spectral parameters and
writes a CSV with a fitted slope footer, ``solve`` runs one resolvent or an
implicit Euler trajectory and writes JSON lines, and ``lemma`` checks the
closed-form envelope maximum against brute force and reports the road-field
symbol lattice scan.  Outputs are byte-identical for identical configs and
seeds: floats are serialized via repr, JSON keys are sorted, and no
timestamps are written.  Exit codes: 0 pass, 1 numerical-claim failure,
2 usage or domain error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
from jsonschema import Draft202012Validator, ValidationError

from . import __version__
from .core import BoundaryField, HalfSpaceField, SectorError, TangentialGrid, make_grids
from .dynbc import DynBCProblem, implicit_euler_evolve, road_symbol_scan
from .norms import NormSpec, lp_norm, opnorm_hilbert
from .rbound import RademacherSampler, ScanResult, probe_dictionary, rbound_lower
from .symbols import ProbeSpec, SymbolKernel, kernel_catalog, lemma_max_eval, seminorm
from .transforms import apply_poisson

__all__ = ["CONFIG_SCHEMA", "main", "rbound_batch_scan"]

SCHEMA_VERSION = 1

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "grid_dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "grid_N": {"type": "integer", "minimum": 2},
        "grid_M": {"type": "integer", "minimum": 2},
        "grid_L": {"type": "number", "exclusiveMinimum": 0},
        "grid_X_max": {"type": "number", "exclusiveMinimum": 0},
        "grid_r": {"type": "number", "exclusiveMinimum": 1},
        "kernel": {"type": "string"},
        "class": {"type": "string", "enum": ["strong", "weak"]},
        "N": {"type": "integer", "minimum": 0, "maximum": 4},
        "mode": {"type": "string", "enum": ["opnorm", "rbound"]},
        "s": {"type": "number"},
        "t": {"type": "number"},
        "p": {"type": "number", "minimum": 1},
        "q": {"type": "number", "minimum": 1},
        "normal_class": {"type": "string", "enum": ["weak", "strong"]},
        "prefactor_exponent": {"type": "number"},
        "mu_min": {"type": "number", "exclusiveMinimum": 0},
        "mu_max": {"type": "number", "exclusiveMinimum": 0},
        "mu_points": {"type": "integer", "minimum": 1},
        "rays": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "restarts": {"type": "integer", "minimum": 0},
        "problem": {"type": "string", "enum": ["heat-dynbc", "ch", "kpp"]},
        "mu": {"type": "number"},
        "d": {"type": "number", "exclusiveMinimum": 0},
        "dprime": {"type": "number", "exclusiveMinimum": 0},
        "k": {"type": "number", "exclusiveMinimum": 0},
        "g": {"type": "string"},
        "evolve": {"type": "boolean"},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "road_n": {"type": "integer", "minimum": 8},
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)

# config keys whose argparse destination differs from the key itself
_CONFIG_DEST = {"class": "symbol_class", "k": "kcoef"}

_GRID_KEYS = ("grid_dim", "grid_N", "grid_M", "grid_L", "grid_X_max", "grid_r")

_VARIANT_BY_NAME = {
    "heat-dynbc": "HeatDynBC",
    "ch": "CahnHilliardBoundary",
    "kpp": "KPPRoadField",
}


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the JSON config on top of the parsed flags; config wins."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    _VALIDATOR.validate(cfg)
    for key, value in cfg.items():
        setattr(args, _CONFIG_DEST.get(key, key), value)


def _normalize_rays(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        rays = tuple(float(p) for p in parts)
    else:
        rays = tuple(float(v) for v in value)
    if not rays:
        raise ValueError("at least one scan ray is required")
    return rays


def _grids(args: argparse.Namespace):
    return make_grids(
        dim=args.grid_dim,
        L=args.grid_L,
        N=args.grid_N,
        M=args.grid_M,
        X_max=args.grid_X_max,
        r=args.grid_r,
    )


def _echo(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    """The run's config after the overlay, checked against ``CONFIG_SCHEMA``.

    Flags and config entries pass the same bounds; unset (``None``) entries
    are echoed but not checked.
    """
    cfg = {}
    for key in keys:
        val = getattr(args, _CONFIG_DEST.get(key, key))
        if isinstance(val, tuple):
            val = list(val)
        cfg[key] = val
    _VALIDATOR.validate({k: v for k, v in cfg.items() if v is not None})
    return cfg


def _boundary_data(name: str, grid: TangentialGrid) -> BoundaryField:
    """Named boundary data: const, zero, or mode<m> (tangential exponential)."""
    if name == "const":
        return BoundaryField(grid, np.ones(grid.shape, dtype=complex))
    if name == "zero":
        return BoundaryField(grid, np.zeros(grid.shape, dtype=complex))
    if name.startswith("mode"):
        m = int(name[4:])
        phase = np.exp(1j * m * grid.points_1d)
        samples = phase
        for _ in range(grid.dim - 1):
            samples = samples[..., None] * np.ones(grid.N)
        return BoundaryField(grid, samples)
    raise ValueError(f"unknown boundary data {name!r}; use const, zero, or mode<m>")


def _scaled_poisson_op(kern: SymbolKernel, mu: complex, exponent: float, ngrid) -> Callable:
    fac = (1.0 + abs(mu) ** 2) ** (0.5 * exponent)

    def op(g: BoundaryField) -> HalfSpaceField:
        out = apply_poisson(kern, mu, g, ngrid)
        return replace(out, samples=fac * out.samples)

    return op


def rbound_batch_scan(
    kern: SymbolKernel,
    p: float,
    q: float,
    weak: bool,
    exponent: float,
    mu_values: Sequence[float],
    rays: Sequence[float],
    grid: TangentialGrid,
    ngrid,
    trials: int = 24,
    restarts: int = 8,
    seed: int = 0,
    batch: int = 4,
) -> ScanResult:
    """Randomized-bound scan: batch the parameter family, one row per batch.

    Each batch of consecutive |mu| values on a ray forms one operator family
    scaled by <mu>^exponent; the row magnitude is the batch's largest |mu|,
    so per-ray rows stay strictly increasing.
    """
    inputs = probe_dictionary(grid)
    in_norm = NormSpec("Lp", p=2.0)
    out_norm = NormSpec("Mixed", p=p, q=q, m=0, weak=weak)
    jobs = []
    for ray in rays:
        phase = complex(math.cos(ray), math.sin(ray))
        mus = [float(m) * phase for m in mu_values]
        for lo in range(0, len(mus), batch):
            jobs.append((float(ray), mus[lo : lo + batch]))

    def one(idx, ray, mus):
        ops = [(f"mu{j}", _scaled_poisson_op(kern, mu, exponent, ngrid)) for j, mu in enumerate(mus)]
        est = rbound_lower(
            ops,
            inputs,
            p=p,
            in_norm=in_norm,
            out_norm=out_norm,
            trials=trials,
            restarts=restarts,
            sampler=RademacherSampler(seed=seed + 7919 * idx),
        )
        return (abs(mus[-1]), ray, est.value)

    rows = [one(idx, ray, mus) for idx, (ray, mus) in enumerate(jobs)]
    meta = {"seed": seed, "trials": trials, "restarts": restarts, "batch": batch}
    return ScanResult.from_rows(rows, metadata=meta)


def cmd_verify_symbol(args: argparse.Namespace) -> int:
    cfg = _echo(args, ("kernel", "class", "N", "d", "seed"))
    kern = kernel_catalog(args.kernel, d=args.d)
    if args.symbol_class:
        kern = replace(kern, kind=args.symbol_class)
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    probe = ProbeSpec()
    refined = probe.refined()
    print(f"kernel={args.kernel} class={kern.kind} order={kern.order}")
    print("   n         base      refined    ratio")
    all_ok = True
    for n in range(args.N + 1):
        base = seminorm(kern, n, probe)
        fine = seminorm(kern, n, refined)
        if base == 0.0:
            ratio = 1.0 if fine == 0.0 else math.inf
        else:
            ratio = fine / base
        ok = ratio < 1.10
        all_ok = all_ok and ok
        tag = "ok" if ok else "DIVERGENT"
        print(f"   {n} {base:>12.6g} {fine:>12.6g} {ratio:>8.4f}  {tag}")
    print(f"RESULT {'PASS' if all_ok else 'FAIL'} kernel={args.kernel} N<={args.N}")
    return 0 if all_ok else 1


def cmd_scan(args: argparse.Namespace) -> int:
    rays = _normalize_rays(args.rays)
    args.rays = [float(r) for r in rays]
    cfg = _echo(
        args,
        (
            "mode", "kernel", "s", "t", "p", "q", "normal_class", "prefactor_exponent",
            "mu_min", "mu_max", "mu_points", "rays", "batch_size", "trials", "restarts",
            "d", "seed", "out",
        ) + _GRID_KEYS,
    )
    grid, ngrid = _grids(args)
    kern = kernel_catalog(args.kernel, d=args.d)
    mus = np.geomspace(args.mu_min, args.mu_max, args.mu_points)
    print(f"config {json.dumps(cfg, sort_keys=True)}")

    if args.mode == "opnorm":
        def one(ray, m):
            mu = m * complex(math.cos(ray), math.sin(ray))
            val = opnorm_hilbert(kern, mu, args.s, args.t, grid, ngrid)
            pref = (1.0 + m * m) ** (0.5 * args.prefactor_exponent)
            return (m, ray, pref * val)

        rows = [one(ray, float(m)) for ray in rays for m in mus]
        scan = ScanResult.from_rows(rows, metadata={"seed": args.seed})
    else:
        scan = rbound_batch_scan(
            kern,
            p=args.p,
            q=args.q,
            weak=(args.normal_class == "weak"),
            exponent=args.prefactor_exponent,
            mu_values=mus,
            rays=rays,
            grid=grid,
            ngrid=ngrid,
            trials=args.trials,
            restarts=args.restarts,
            seed=args.seed,
            batch=args.batch_size,
        )

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"scan_{args.mode}.csv")
    scan.to_csv(path)
    with open(path, "a", newline="") as fh:
        fh.write(f"# slope={scan.slope!r}\n")
        fh.write(f"# residual={scan.residual!r}\n")
        fh.write(f"# version={__version__}\n")
        fh.write(f"# config={json.dumps(cfg, sort_keys=True)}\n")
    print(f"wrote {path} slope={scan.slope!r} residual={scan.residual!r}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _echo(
        args,
        ("problem", "mu", "d", "dprime", "k", "g", "evolve", "dt", "T", "seed", "out")
        + _GRID_KEYS,
    )
    grid, ngrid = _grids(args)
    problem = DynBCProblem(
        _VARIANT_BY_NAME[args.problem],
        grid,
        ngrid,
        d=args.d,
        dprime=args.dprime,
        kcoef=args.kcoef,
    )
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    records: list[dict] = [
        {
            "record": "header",
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": cfg,
        }
    ]

    if args.evolve:
        def g_of_t(t: float) -> BoundaryField:
            return _boundary_data(args.g, grid)

        for rec in implicit_euler_evolve(problem, None, g_of_t, args.dt, args.T):
            records.append(
                {
                    "record": "step",
                    "t": rec.t,
                    "boundary_norm": lp_norm(rec.output.v, 2.0),
                    "interior_norm": lp_norm(rec.output.u, 2.0),
                    "delta": rec.delta,
                }
            )
        path = os.path.join(args.out, "evolve.jsonl")
    else:
        if abs(args.mu) < 1e-6:
            raise ValueError("the resolvent formulas divide by mu^2; mu=0 is excluded")
        g = _boundary_data(args.g, grid)
        out = problem.solve(None, g, complex(args.mu))
        records.append(
            {
                "record": "resolvent",
                "mu_re": float(args.mu),
                "mu_im": 0.0,
                "boundary_norm": lp_norm(out.v, 2.0),
                "boundary_max": float(np.max(np.abs(out.v.samples))),
                "interior_norm": lp_norm(out.u, 2.0),
                "diagnostics": out.diagnostics,
            }
        )
        path = os.path.join(args.out, "solve.jsonl")

    os.makedirs(args.out, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_lemma(args: argparse.Namespace) -> int:
    cfg = _echo(args, ("road_n", "seed", "out"))
    print(f"config {json.dumps(cfg, sort_keys=True)}")

    # closed form vs brute force on the full acceptance lattice
    svals = np.geomspace(1.0, 1e4, 100_000)
    worst = 0.0
    for rho in (1.5, 2.0, 3.0):
        for frac in (0.3, 0.7, 0.9):
            a = frac * rho
            for t in (1e-3, 1.0, 1e3):
                closed = lemma_max_eval(a, rho, t)
                brute = float(np.max(svals**a * (1.0 + (t * svals) ** 2) ** (-0.5 * rho)))
                worst = max(worst, abs(closed - brute) / brute)
    ok_closed = worst <= 1e-6
    print(f"envelope max: worst rel err {worst!r} {'PASS' if ok_closed else 'FAIL'}")

    base = road_symbol_scan(n=args.road_n)
    fine = road_symbol_scan(n=2 * args.road_n)
    drift = max(
        abs(fine["sup_m1"] - base["sup_m1"]) / base["sup_m1"],
        abs(fine["sup_m2"] - base["sup_m2"]) / base["sup_m2"],
    )
    shell = max(base["inner_max_m1"], base["outer_max_m1"]) / base["sup_m1"]
    ok_road = drift < 0.10 and base["min_f_minus_k"] > 0.0 and shell <= 0.01
    print(
        f"road lattice n={args.road_n}: sup_m1={base['sup_m1']!r} sup_m2={base['sup_m2']!r} "
        f"drift={drift!r} min_gap={base['min_f_minus_k']!r} shell={shell!r} "
        f"{'PASS' if ok_road else 'FAIL'}"
    )

    if args.out != ".":
        os.makedirs(args.out, exist_ok=True)
    report = {
        "record": "lemma",
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": cfg,
        "envelope_worst_rel_err": worst,
        "road_base": base,
        "road_refined": fine,
        "road_drift": drift,
        "road_shell_ratio": shell,
    }
    path = os.path.join(args.out, "lemma.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if (ok_closed and ok_road) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; entries override flags")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=".")
    common.add_argument("--grid-dim", type=int, choices=(1, 2, 3), default=1)
    common.add_argument("--grid-N", type=int, default=256)
    common.add_argument("--grid-M", type=int, default=256)
    common.add_argument("--grid-L", type=float, default=2.0 * math.pi)
    common.add_argument("--grid-X-max", type=float, default=16.0)
    common.add_argument("--grid-r", type=float, default=1.05)

    parser = argparse.ArgumentParser(
        prog="poissonops",
        description="Poisson operator calculus: symbol checks, norm scans, model solves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("verify-symbol", parents=[common], help="seminorm refinement table")
    ps.add_argument("--kernel", required=True)
    ps.add_argument("--class", dest="symbol_class", choices=("strong", "weak"), default=None)
    ps.add_argument("--N", type=int, default=2)
    ps.add_argument("--d", type=float, default=1.0)
    ps.set_defaults(func=cmd_verify_symbol)

    ps = sub.add_parser("scan", parents=[common], help="norm or randomized-bound scan")
    ps.add_argument("--mode", choices=("opnorm", "rbound"), default="opnorm")
    ps.add_argument("--kernel", default="heat")
    ps.add_argument("--s", type=float, default=0.0)
    ps.add_argument("--t", type=float, default=0.0)
    ps.add_argument("--p", type=float, default=2.0)
    ps.add_argument("--q", type=float, default=2.0)
    ps.add_argument("--normal-class", choices=("weak", "strong"), default="weak")
    ps.add_argument("--prefactor-exponent", type=float, default=0.0)
    ps.add_argument("--mu-min", type=float, default=1.0)
    ps.add_argument("--mu-max", type=float, default=1000.0)
    ps.add_argument("--mu-points", type=int, default=20)
    ps.add_argument("--rays", default="0.0", help="comma-separated arg(mu) values in radians")
    ps.add_argument("--batch-size", type=int, default=4)
    ps.add_argument("--trials", type=int, default=24)
    ps.add_argument("--restarts", type=int, default=8)
    ps.add_argument("--d", type=float, default=1.0)
    ps.set_defaults(func=cmd_scan)

    ps = sub.add_parser("solve", parents=[common], help="one resolvent or a trajectory")
    ps.add_argument("--problem", required=True, choices=tuple(_VARIANT_BY_NAME))
    ps.add_argument("--mu", type=float, default=1.0)
    ps.add_argument("--d", type=float, default=1.0)
    ps.add_argument("--dprime", type=float, default=1.0)
    ps.add_argument("--k", dest="kcoef", type=float, default=1.0)
    ps.add_argument("--g", default="const")
    ps.add_argument("--evolve", action="store_true")
    ps.add_argument("--dt", type=float, default=0.01)
    ps.add_argument("--T", type=float, default=1.0)
    ps.set_defaults(func=cmd_solve)

    ps = sub.add_parser("lemma", parents=[common], help="envelope max check and road lattice scan")
    ps.add_argument("--road-n", type=int, default=120)
    ps.set_defaults(func=cmd_lemma)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        _apply_config(args)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: config rejected: {exc.message}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, SectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
