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
from typing import Callable, NamedTuple, Sequence

import numpy as np
from jsonschema import Draft202012Validator, ValidationError

from . import __version__
from .core import TWO_PI, BoundaryField, SectorError, TangentialGrid, _replicate, bracket, make_grids
from .dynbc import DynBCProblem, implicit_euler_evolve, road_symbol_scan
from .norms import NormSpec, lp_norm, opnorm_hilbert
from .rbound import RademacherSampler, ScanResult, _require_fit_rows, probe_dictionary, rbound_lower
from .symbols import _KERNELS, ProbeSpec, SymbolKernel, kernel_catalog, lemma_max_eval, seminorm_table
from .transforms import _profile

__all__ = ["CONFIG_SCHEMA", "main", "rbound_batch_scan"]

SCHEMA_VERSION = 2

_VARIANT_BY_NAME = {
    "heat-dynbc": "HeatDynBC",
    "ch": "CahnHilliardBoundary",
    "kpp": "KPPRoadField",
}

# The one declaration of every option: its flag is ``--`` plus the key with
# ``_`` spelled ``-``, its flag type follows the schema type, and its default
# and help text are the ``default`` and ``description`` annotations.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "out": {"type": "string", "default": "."},
        "grid_dim": {"type": "integer", "minimum": 1, "maximum": 3, "default": 1},
        "grid_N": {"type": "integer", "minimum": 2, "default": 256},
        "grid_M": {"type": "integer", "minimum": 2, "default": 256},
        "grid_L": {"type": "number", "exclusiveMinimum": 0, "default": TWO_PI},
        "grid_X_max": {"type": "number", "exclusiveMinimum": 0, "default": 16.0},
        "grid_r": {"type": "number", "exclusiveMinimum": 1, "default": 1.05},
        "kernel": {"type": "string", "enum": list(_KERNELS), "default": "heat"},
        "class": {"type": "string", "enum": ["strong", "weak"]},
        "N": {"type": "integer", "minimum": 0, "maximum": 4, "default": 2},
        "mode": {"type": "string", "enum": ["opnorm", "rbound"], "default": "opnorm"},
        "s": {"type": "number", "default": 0.0},
        "t": {"type": "number", "default": 0.0},
        "p": {"type": "number", "minimum": 1, "default": 2.0},
        "q": {"type": "number", "minimum": 1, "default": 2.0},
        "normal_class": {"type": "string", "enum": ["weak", "strong"], "default": "weak"},
        "prefactor_exponent": {"type": "number", "default": 0.0},
        "mu_min": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "mu_max": {"type": "number", "exclusiveMinimum": 0, "default": 1000.0},
        "mu_points": {"type": "integer", "minimum": 1, "default": 20},
        "rays": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
            "default": [0.0],
            "description": "comma-separated arg(mu) values in radians",
        },
        "batch_size": {"type": "integer", "minimum": 1, "default": 4},
        "trials": {"type": "integer", "minimum": 1, "default": 24},
        "restarts": {"type": "integer", "minimum": 0, "default": 8},
        "problem": {"type": "string", "enum": list(_VARIANT_BY_NAME)},
        "mu": {"type": "number", "default": 1.0},
        "d": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "dprime": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "k": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "g": {"type": "string", "default": "const"},
        "evolve": {"type": "boolean", "default": False},
        "dt": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
        "T": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "road_n": {"type": "integer", "minimum": 8, "default": 120},
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the JSON config on top of the parsed flags; config wins."""
    if not args.config:
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    _VALIDATOR.validate(cfg)
    for key, value in cfg.items():
        setattr(args, key, value)


# the arguments of make_grids, each key prefixed with grid_
_GRID = ("grid_dim", "grid_N", "grid_M", "grid_L", "grid_X_max", "grid_r")


def _grids(args: argparse.Namespace):
    return make_grids(**{key.removeprefix("grid_"): getattr(args, key) for key in _GRID})


def _echo(args: argparse.Namespace) -> dict:
    """The keys the command takes after the overlay, checked against ``CONFIG_SCHEMA``.

    Flags and config entries pass the same bounds; unset (``None``) entries
    are echoed but not checked.
    """
    cfg = {key: getattr(args, key) for key in _COMMANDS[args.command].keys}
    _VALIDATOR.validate({k: v for k, v in cfg.items() if v is not None})
    return cfg


def _boundary_data(name: str, grid: TangentialGrid) -> BoundaryField:
    """Named boundary data: const, zero, or mode<m> (the lattice mode ``exp(2 pi i m x / L)``)."""
    if name == "const":
        return BoundaryField(grid, np.ones(grid.shape, dtype=complex))
    if name == "zero":
        return BoundaryField(grid, np.zeros(grid.shape, dtype=complex))
    if name.startswith("mode"):
        freq = int(name[4:]) * (TWO_PI / grid.L)  # exactly m at L = 2 pi
        return BoundaryField(grid, _replicate(np.exp(1j * freq * grid.points_1d), grid))
    raise ValueError(f"unknown boundary data {name!r}; use const, zero, or mode<m>")


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
    *,
    trials: int,
    restarts: int,
    seed: int,
    batch: int,
) -> ScanResult:
    """Randomized-bound scan: batch the parameter family, one row per batch.

    Each batch of consecutive |mu| values on a ray forms one operator family,
    the multipliers ``<mu>^exponent k(xi, mu; x)``, each evaluated once; the
    row magnitude is the batch's largest |mu|, so per-ray rows stay strictly
    increasing.
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

    def multiplier(mu):
        kern.sector.require(mu)
        return bracket(0.0, mu) ** exponent * _profile(kern, mu, grid, ngrid)

    def one(idx, ray, mus):
        est = rbound_lower(
            [multiplier(mu) for mu in mus],
            inputs,
            ngrid,
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
    cfg = _echo(args)
    kern = kernel_catalog(args.kernel, d=args.d)
    if cfg["class"]:
        kern = replace(kern, kind=cfg["class"])
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    probe = ProbeSpec()
    refined = probe.refined()
    print(f"kernel={args.kernel} class={kern.kind} order={kern.order}")
    print("   n         base      refined    ratio")
    all_ok = True
    table = zip(seminorm_table(kern, args.N, probe), seminorm_table(kern, args.N, refined))
    for n, (base, fine) in enumerate(table):
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
    rays = args.rays = [float(r) for r in args.rays]
    cfg = _echo(args)
    # one row per mu (opnorm) or per batch of mu (rbound) on each ray
    per_ray = args.mu_points if args.mode == "opnorm" else math.ceil(args.mu_points / args.batch_size)
    _require_fit_rows(len(rays) * per_ray)
    grid, ngrid = _grids(args)
    kern = kernel_catalog(args.kernel, d=args.d)
    mus = np.geomspace(args.mu_min, args.mu_max, args.mu_points)
    print(f"config {json.dumps(cfg, sort_keys=True)}")

    if args.mode == "opnorm":
        def one(ray, m):
            mu = m * complex(math.cos(ray), math.sin(ray))
            val = opnorm_hilbert(kern, mu, args.s, args.t, grid, ngrid)
            return (m, ray, bracket(0.0, m) ** args.prefactor_exponent * val)

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
    cfg = _echo(args)
    grid, ngrid = _grids(args)
    problem = DynBCProblem(
        _VARIANT_BY_NAME[args.problem],
        grid,
        ngrid,
        d=args.d,
        dprime=args.dprime,
        kcoef=args.k,
    )
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    header = {"record": "header", "schema_version": SCHEMA_VERSION, "version": __version__, "config": cfg}

    g = _boundary_data(args.g, grid)
    if args.evolve:
        # checked and planned before the file is opened; each step is written as it completes
        steps = implicit_euler_evolve(problem, None, lambda t: g, args.dt, args.T)
        records = (
            {
                "record": "step",
                "t": rec.t,
                "boundary_norm": rec.boundary_norm,
                "interior_norm": rec.interior_norm,
                "delta": rec.delta,
                "diagnostics": rec.diagnostics,
            }
            for rec in steps
        )
        path = os.path.join(args.out, "evolve.jsonl")
    else:
        if abs(args.mu) < 1e-6:
            raise ValueError("the resolvent formulas divide by mu^2; mu=0 is excluded")
        out = problem.solve(None, g, complex(args.mu))
        records = [
            {
                "record": "resolvent",
                "mu_re": float(args.mu),
                "mu_im": 0.0,
                "boundary_norm": lp_norm(out.v, 2.0),
                "boundary_max": float(np.max(np.abs(out.v.samples))),
                "interior_norm": lp_norm(out.u, 2.0),
                "diagnostics": out.diagnostics,
            }
        ]
        path = os.path.join(args.out, "solve.jsonl")

    os.makedirs(args.out, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_lemma(args: argparse.Namespace) -> int:
    cfg = _echo(args)
    print(f"config {json.dumps(cfg, sort_keys=True)}")

    # closed form vs brute force on the full acceptance lattice
    svals = np.geomspace(1.0, 1e4, 100_000)
    worst = 0.0
    for rho in (1.5, 2.0, 3.0):
        for frac in (0.3, 0.7, 0.9):
            a = frac * rho
            for t in (1e-3, 1.0, 1e3):
                closed = lemma_max_eval(a, rho, t)
                # <s t>^(-rho) as one power of 1 + (s t)^2, as lemma_max_eval writes it
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


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    keys: tuple[str, ...]  # the CONFIG_SCHEMA keys it takes, one flag each
    required: tuple[str, ...] = ()


_COMMANDS = {
    "verify-symbol": _Command(
        cmd_verify_symbol,
        "seminorm refinement table",
        # --out is taken though unused, so every command accepts one (perfbench appends it)
        ("kernel", "class", "N", "d", "out"),
        required=("kernel",),
    ),
    "scan": _Command(
        cmd_scan,
        "norm or randomized-bound scan",
        (
            "mode", "kernel", "s", "t", "p", "q", "normal_class", "prefactor_exponent",
            "mu_min", "mu_max", "mu_points", "rays", "batch_size", "trials", "restarts",
            "d", "seed", "out", *_GRID,
        ),
    ),
    "solve": _Command(
        cmd_solve,
        "one resolvent or a trajectory",
        ("problem", "mu", "d", "dprime", "k", "g", "evolve", "dt", "T", "out", *_GRID),
        required=("problem",),
    ),
    "lemma": _Command(
        cmd_lemma, "envelope max check and road lattice scan", ("road_n", "out")
    ),
}


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


_FLAG_TYPE = {"integer": int, "number": float, "string": str, "array": _float_list}


def build_parser() -> argparse.ArgumentParser:
    """One flag per key a command takes, typed and defaulted by ``CONFIG_SCHEMA``.

    Values are not range-checked here: ``_echo`` checks every one against
    the schema, flags and config entries alike.
    """
    parser = argparse.ArgumentParser(
        prog="poissonops",
        description="Poisson operator calculus: symbol checks, norm scans, model solves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        ps = sub.add_parser(name, help=command.help)
        ps.add_argument("--config", help="JSON config file; entries override flags")
        for key in command.keys:
            prop = CONFIG_SCHEMA["properties"][key]
            if prop["type"] == "boolean":
                kind = {"action": "store_true"}
            else:
                kind = {"type": _FLAG_TYPE[prop["type"]]}
            if "enum" in prop:
                kind["metavar"] = "{" + ",".join(prop["enum"]) + "}"
            ps.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=prop.get("default"),
                required=key in command.required,
                help=prop.get("description"),
                **kind,
            )
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
        return _COMMANDS[args.command].handler(args)
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
