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
import re
import sys
from dataclasses import replace
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .core import TWO_PI, BoundaryField, SectorError, TangentialGrid, _replicate, bracket, make_grids
from .dynbc import DynBCProblem, implicit_euler_evolve, road_symbol_scan
from .norms import NormSpec, opnorm_hilbert
from .rbound import (RademacherSampler, ScanResult, _require_fit_rows, _require_increasing, probe_dictionary,
                     rbound_lower)
from .symbols import _KERNELS, ProbeSpec, SymbolKernel, kernel_catalog, lemma_max_eval, seminorm_table
from .transforms import _radial_profile

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


class _ConfigError(ValueError):
    """A config that ``CONFIG_SCHEMA`` refuses; ``message`` says why."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


# bound keyword -> (the test that fails a number, the wording of the failure)
_BOUNDS = {
    "minimum": (lambda v, b: v < b, "less than the minimum of"),
    "maximum": (lambda v, b: v > b, "greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b, "less than or equal to the minimum of"),
}


def _is_type(value, name: str) -> bool:
    """JSON Schema draft 2020-12 types: a bool is no number, an integral float is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"string": str, "boolean": bool, "array": list, "object": dict}[name])


def _check(value, schema: dict) -> None:
    """Raise ``_ConfigError`` for the first keyword of ``schema`` that ``value`` fails.

    Draft 2020-12 semantics and messages for the keywords ``CONFIG_SCHEMA``
    uses, read in the schema's order; one addition: a number must be a finite
    float, as RFC 8259 JSON has no NaN or infinity (Python's ``json`` reads
    them) and a number entry is taken as a float.
    """
    number = _is_type(value, "number")
    for key, arg in schema.items():
        if key == "type":
            if not _is_type(value, arg):
                raise _ConfigError(f"{value!r} is not of type {arg!r}")
            if arg == "number" and not abs(value) <= sys.float_info.max:
                raise _ConfigError(f"{value!r} is not a finite number")
        elif key == "enum":
            if value not in arg:
                raise _ConfigError(f"{value!r} is not one of {arg!r}")
        elif key in _BOUNDS:
            fails, wording = _BOUNDS[key]
            if number and fails(value, arg):
                raise _ConfigError(f"{value!r} is {wording} {arg!r}")
        elif key == "items":
            for item in value if isinstance(value, list) else ():
                _check(item, arg)
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                raise _ConfigError(f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short"))
        elif key == "additionalProperties":
            extras = sorted(set(value) - set(schema["properties"])) if isinstance(value, dict) else []
            if extras and arg is False:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(map(repr, extras))
                raise _ConfigError(f"Additional properties are not allowed ({listed} {verb} unexpected)")
        elif key == "properties":
            for name, sub in arg.items() if isinstance(value, dict) else ():
                if name in value:
                    _check(value[name], sub)
        elif key not in ("$schema", "default", "description"):
            raise NotImplementedError(f"CONFIG_SCHEMA keyword {key!r} is not checked")


# a checked entry as its flag parses it: 2.0 is an integer in JSON Schema, and a number 2 is 2.0
_FROM_JSON = {"integer": int, "number": float, "array": lambda items: [float(v) for v in items]}


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay the JSON config on top of the parsed flags; config wins."""
    if not args.config:
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    _check(cfg, CONFIG_SCHEMA)
    for key, value in cfg.items():
        kind = CONFIG_SCHEMA["properties"][key]["type"]
        setattr(args, key, _FROM_JSON[kind](value) if kind in _FROM_JSON else value)


# the arguments of make_grids, each key prefixed with grid_
_GRID = ("grid_dim", "grid_N", "grid_M", "grid_L", "grid_X_max", "grid_r")


def _grids(args: argparse.Namespace):
    return make_grids(**{key.removeprefix("grid_"): getattr(args, key) for key in _GRID})


def _echo(args: argparse.Namespace) -> dict:
    """Print and return the keys the command takes after the overlay, checked against ``CONFIG_SCHEMA``.

    Flags and config entries pass the same bounds; unset (``None``) entries
    are echoed but not checked.
    """
    cfg = {key: getattr(args, key) for key in _COMMANDS[args.command].keys}
    _check({k: v for k, v in cfg.items() if v is not None}, CONFIG_SCHEMA)
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    return cfg


def _write(args: argparse.Namespace, name: str, lines: Iterable[str]) -> str:
    """Create ``--out``, write ``lines`` to the artifact ``name`` in it, and return its path.

    Each line is written as ``lines`` yields it, so a run stopped by an error
    leaves the lines before the error.
    """
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    return path


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _stamp(cfg: dict) -> dict:
    """The schema version, package version and config echo every JSON artifact carries."""
    return {"schema_version": SCHEMA_VERSION, "version": __version__, "config": cfg}


def _row_plan(mu_values: Sequence[float], rays: Sequence[float], batch: int) -> list[tuple]:
    """The scan's rows in order, ``(ray, e^(i ray), moduli)``: consecutive batches of ``mu_values`` on each ray.

    Refuses the plan before any row is computed if its rows are too few for
    the decay fit or a row's largest modulus does not increase within its ray.
    """
    plan = [(ray, complex(math.cos(ray), math.sin(ray)), [float(m) for m in mu_values[lo : lo + batch]])
            for ray in rays for lo in range(0, len(mu_values), batch)]
    _require_fit_rows(len(plan))
    _require_increasing([(moduli[-1], ray) for ray, _, moduli in plan])
    return plan


def _boundary_data(name: str, grid: TangentialGrid) -> BoundaryField:
    """Named boundary data: const, zero, or mode<m> (the lattice mode ``exp(2 pi i m x / L)``)."""
    if name == "const":
        return BoundaryField(grid, np.ones(grid.shape, dtype=complex))
    if name == "zero":
        return BoundaryField(grid, np.zeros(grid.shape, dtype=complex))
    mode = re.fullmatch(r"mode(0|-?[1-9][0-9]*)", name)  # one spelling per mode: no leading zero, no -0
    if mode:
        m, half = int(mode[1]), grid.N // 2
        if not -half <= m < half:  # any other m aliases to a lattice mode
            raise ValueError(f"boundary data {name!r} is off the grid's lattice: need {-half} <= m < {half}")
        freq = m * (TWO_PI / grid.L)  # exactly m at L = 2 pi
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
    the multipliers ``<mu>^exponent k(xi, mu; x)``, each evaluated once at the
    grid's radial representatives, shape ``(K, M)``, stacked into one array
    (real on the real axis); the row magnitude is the batch's largest |mu|,
    so per-ray rows stay strictly increasing.  Batch ``idx``, counted over
    the rays in order, draws from child ``idx`` of ``seed``.
    """
    plan = _row_plan(mu_values, rays, batch)
    inputs = probe_dictionary(grid)
    out_norm = NormSpec("Mixed", p=p, q=q, m=0, weak=weak)

    def multiplier(mu):
        kern.sector.require(mu)
        return bracket(0.0, mu) ** exponent * _radial_profile(kern, mu, grid, ngrid)

    rows = []
    for idx, (ray, phase, moduli) in enumerate(plan):
        mus = [m * phase for m in moduli]
        with np.errstate(over="ignore", invalid="ignore"):  # the fit refuses a non-finite row by its |mu|
            est = rbound_lower(
                np.stack([multiplier(mu) for mu in mus]), inputs, ngrid, p=p, out_norm=out_norm, trials=trials,
                restarts=restarts, sampler=RademacherSampler(seed).child(idx),
            )
        rows.append((abs(mus[-1]), ray, est.value))
    return ScanResult.from_rows(rows, metadata={"seed": seed})


def cmd_verify_symbol(args: argparse.Namespace) -> int:
    cfg = _echo(args)
    kern = kernel_catalog(args.kernel, d=args.d)
    if cfg["class"]:
        kern = replace(kern, kind=cfg["class"])
    probe = ProbeSpec()
    refined = probe.refined()
    print(f"kernel={args.kernel} class={kern.kind} order={kern.order}")
    print("   n         base      refined    ratio")
    all_ok = True
    with np.errstate(over="ignore", invalid="ignore"):  # seminorm_table refuses a non-finite lattice value
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
    cfg = _echo(args)
    with np.errstate(over="ignore"):  # near the float limit an inner power overflows, and mu_max replaces it
        mus = np.geomspace(args.mu_min, args.mu_max, args.mu_points)
    # one row per mu (opnorm) or per batch of mu (rbound) on each ray
    plan = _row_plan(mus, args.rays, 1 if args.mode == "opnorm" else args.batch_size)
    grid, ngrid = _grids(args)
    kern = kernel_catalog(args.kernel, d=args.d)

    if args.mode == "opnorm":
        def one(ray, phase, m):
            val = opnorm_hilbert(kern, m * phase, args.s, args.t, grid, ngrid)
            return (m, ray, bracket(0.0, m) ** args.prefactor_exponent * val)

        with np.errstate(over="ignore", invalid="ignore"):  # the fit refuses a non-finite row by its |mu|
            rows = [one(ray, phase, m) for ray, phase, (m,) in plan]
        scan = ScanResult.from_rows(rows, metadata={"seed": args.seed})
    else:
        weak = args.normal_class == "weak"
        scan = rbound_batch_scan(kern, args.p, args.q, weak, args.prefactor_exponent, mus, args.rays, grid, ngrid,
                                 trials=args.trials, restarts=args.restarts, seed=args.seed, batch=args.batch_size)

    def lines():
        yield "abs_mu,arg_mu,norm,slope,residual,seed\r\n"  # the rows end as csv.writer ends them
        for row in scan.rows:
            yield ",".join(map(repr, (*row, scan.slope, scan.residual, scan.metadata["seed"]))) + "\r\n"
        yield f"# slope={scan.slope!r}\n"
        yield f"# residual={scan.residual!r}\n"
        yield f"# version={__version__}\n"
        yield "# config=" + _json_line(cfg)

    path = _write(args, f"scan_{args.mode}.csv", lines())
    print(f"wrote {path} slope={scan.slope!r} residual={scan.residual!r}")
    return 0


def _solution(out) -> dict:
    """The fields a resolvent record and an Euler step record share."""
    return {"boundary_norm": out.boundary_norm, "interior_norm": out.interior_norm, "diagnostics": out.diagnostics}


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
    header = {"record": "header", **_stamp(cfg)}

    g = _boundary_data(args.g, grid)
    if args.evolve:
        # checked and planned before the file is opened; each step is written as it completes
        steps = implicit_euler_evolve(problem, None, lambda t: g, args.dt, args.T)
        records = ({"record": "step", "t": rec.t, "delta": rec.delta, **_solution(rec)} for rec in steps)
        name = "evolve.jsonl"
    else:
        if abs(args.mu) < 1e-6:
            raise ValueError(f"the resolvent formulas divide by mu^2: need |mu| >= 1e-6, got mu={args.mu!r}")
        out = problem.solve(None, g, complex(args.mu))
        boundary_max = float(np.max(np.abs(out.v.samples)))
        records = [{"record": "resolvent", "mu_re": float(args.mu), "mu_im": 0.0, "boundary_max": boundary_max,
                    **_solution(out)}]
        name = "solve.jsonl"

    path = _write(args, name, map(_json_line, chain([header], records)))
    print(f"wrote {path}")
    return 0


def _envelope_maxima() -> dict[tuple[float, float, float], float]:
    """Brute maxima of ``s^(frac rho) <s t>^(-rho)`` over 100,000 log-spaced ``s`` in ``[1, 1e4]``.

    Keyed by ``(rho, frac, t)``.  The blocks of s-values are the outermost
    loop, with a running max per key, so no 100,000-array but the s-values is
    held.  Each value is formed as in one pass over all of them, and a max is
    exact, so the maxima are the one-pass ones.
    """
    svals = np.geomspace(1.0, 1e4, 100_000)
    maxima = {}
    for lo in range(0, svals.size, 10_000):
        s = svals[lo : lo + 10_000]
        for rho in (1.5, 2.0, 3.0):
            # <s t>^(-rho) as one power of 1 + (s t)^2, as lemma_max_eval writes it
            decay = {t: (1.0 + (t * s) ** 2) ** (-0.5 * rho) for t in (1e-3, 1.0, 1e3)}
            for frac in (0.3, 0.7, 0.9):
                growth = s ** (frac * rho)
                for t, envelope in decay.items():
                    top = float(np.max(growth * envelope))
                    maxima[rho, frac, t] = max(maxima.get((rho, frac, t), top), top)
    return maxima


def cmd_lemma(args: argparse.Namespace) -> int:
    cfg = _echo(args)

    # closed form vs brute force on the full acceptance lattice
    worst = 0.0
    for (rho, frac, t), brute in _envelope_maxima().items():
        closed = lemma_max_eval(frac * rho, rho, t)
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

    report = {
        "record": "lemma",
        **_stamp(cfg),
        "envelope_worst_rel_err": worst,
        "road_base": base,
        "road_refined": fine,
        "road_drift": drift,
        "road_shell_ratio": shell,
    }
    path = _write(args, "lemma.json", [_json_line(report)])
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
    except _ConfigError as exc:
        print(f"error: config rejected: {exc.message}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, SectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
