"""Package layout guards: public names resolve, one tangential FFT pair, one sector check,
one bracket weight, one central difference, one sweep per probe over the spectral samples,
one builder for the decay and constant kernels, one resolvent path, one solution norm, one
norm engine, one evaluator of a kernel's normal derivatives, radial kernels evaluated per
distinct |xi|^2, radial products gathered to the modes only for a tangential q other than 2,
sign sums without per-trial contractions, an Euler step loop that allocates no bulk, one
kernel rescaling, a kpp plan from one decay rate, a heat plan that is its decay rates, a
step's support found and its rows scattered in one place each, no threads, processes or
environment reads, a CLI that checks its configs without jsonschema, no public
pass-through, random draws from one seed tree, one artifact writer and one config echo
in the CLI, and one normal quadrature, whose bits follow neither the memory layout nor BLAS."""
from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonops
from poissonops.core import NormalGrid

PKG_DIR = Path(poissonops.__file__).parent
FFT_CALLS = {"fft", "ifft", "fftn", "ifftn"}
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def _call_sites(tree: ast.Module, is_target, kind: type = ast.Call) -> set[str]:
    """Innermost enclosing function of every ``kind`` node (a call by default) for which ``is_target`` holds."""
    defs, lines = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.append(node)
        elif isinstance(node, kind) and is_target(node):
            lines.append(node.lineno)
    sites = set()
    for line in lines:
        owners = [d for d in defs if d.lineno <= line <= d.end_lineno]
        sites.add(min(owners, key=lambda d: d.end_lineno - d.lineno).name if owners else "<module>")
    return sites


def _fft_call_sites(tree: ast.Module) -> set[str]:
    """Innermost enclosing function of every ``*.fft.<fft|ifft|fftn|ifftn>(...)`` call."""
    return _call_sites(
        tree,
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr in FFT_CALLS
        and isinstance(call.func.value, ast.Attribute)
        and call.func.value.attr == "fft",
    )


def test_every_all_entry_resolves():
    mods = [poissonops] + [
        importlib.import_module(f"poissonops.{info.name}") for info in pkgutil.iter_modules([str(PKG_DIR)])
    ]
    dangling = [f"{m.__name__}.{n}" for m in mods for n in getattr(m, "__all__", ()) if not hasattr(m, n)]
    assert dangling == []


def test_fft_calls_only_in_the_tangential_pair():
    sites = set()
    for path in sorted(PKG_DIR.glob("*.py")):
        sites.update((path.name, fn) for fn in _fft_call_sites(ast.parse(path.read_text())))
    assert sites == {("transforms.py", "_tfft"), ("transforms.py", "_itfft")}


def _is_sqrt_of_one_plus(call: ast.Call) -> bool:
    """``np.sqrt(1 + ...)`` or ``math.sqrt(1 + ...)``: the constant one is the leftmost addend."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "sqrt"):
        return False
    if getattr(func.value, "id", None) not in ("np", "math"):
        return False
    arg = call.args[0] if call.args else None
    if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)):
        return False
    while isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        arg = arg.left
    return isinstance(arg, ast.Constant) and arg.value == 1


def test_one_bracket_weight():
    # <xi, mu> = sqrt(1 + |xi|^2 + |mu|^2) is written once, in core.bracket, over
    # |xi|^2 from core._xi_sq; symbols._tau is the one other sqrt(1 + ...), as it
    # takes the complex mu^2
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}
    sites = {(name, fn) for name, tree in trees.items() for fn in _call_sites(tree, _is_sqrt_of_one_plus)}
    assert sites == {("core.py", "bracket"), ("symbols.py", "_tau")}
    definers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_xi_sq"
    }
    assert definers == {"core.py"}


def _raised_names(tree: ast.Module):
    """Name of the exception in every ``raise X`` / ``raise X(...)`` statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def test_sector_error_raised_only_in_core():
    raisers = {p.name for p in PKG_DIR.glob("*.py") if "SectorError" in _raised_names(ast.parse(p.read_text()))}
    assert raisers == {"core.py"}


def _run_inputs_outside_config(tree: ast.Module):
    """Imports of thread or process pools and reads of ``os.environ`` / ``os.getenv``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in CONCURRENCY_MODULES:
                    yield f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in CONCURRENCY_MODULES:
                yield f"from {node.module} import"
            elif node.module == "os" and {a.name for a in node.names} & {"environ", "getenv"}:
                yield "from os import environ/getenv"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield f"os.{node.attr}"


def test_scans_are_serial_and_read_no_environment():
    # every input of a run is in its config echo: no worker-count knob, no pool
    found = {
        (p.name, use)
        for p in PKG_DIR.glob("*.py")
        for use in _run_inputs_outside_config(ast.parse(p.read_text()))
    }
    assert found == set()


def _sten_readers(tree: ast.Module) -> set[str]:
    """Top-level function or assignment target reading the ``_STEN`` stencil table."""
    readers = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            owner = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            owner = ",".join(t.id for t in targets if isinstance(t, ast.Name))
        else:
            owner = "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "_STEN" and isinstance(node.ctx, ast.Load):
                readers.add(owner)
    return readers


def test_one_central_difference():
    # every finite-difference stencil is applied by symbols._central_difference
    readers = {
        (p.name, owner) for p in PKG_DIR.glob("*.py") for owner in _sten_readers(ast.parse(p.read_text()))
    }
    assert readers == {("symbols.py", "_central_difference"), ("symbols.py", "_STEN_RADIUS")}


def test_sign_sums_have_no_per_trial_contraction():
    # rbound_lower takes the family as spectral multipliers and sums every trial
    # at once: no tensordot call and no operator closure factory remain
    found = set()
    for p in PKG_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            call = node.func if isinstance(node, ast.Call) else None
            if isinstance(call, ast.Attribute) and call.attr == "tensordot":
                found.add((p.name, "tensordot"))
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "_scaled_poisson_op":
                found.add((p.name, name))
    assert found == set()


def _np_owners(tree: ast.Module, attr: str) -> list[str]:
    """Top-level definition holding each ``np.<attr>`` reference, in source order."""
    owners = []
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
            ):
                owners.append(getattr(top, "name", "<module>"))
    return owners


def test_catalog_kernels_come_from_one_builder_each():
    # every exponential profile exp(-rate x_n) and its normal derivatives are
    # built by _decay_kernel, and every constant kernel by _filled
    tree = ast.parse((PKG_DIR / "symbols.py").read_text())
    assert set(_np_owners(tree, "exp")) == {"_decay_kernel"}
    assert _np_owners(tree, "broadcast_shapes") == ["_filled"]


def _called_names(tree: ast.Module) -> set[str]:
    """Name of every function called as ``f(...)`` or ``mod.f(...)``."""
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return calls


def _call_count(tree: ast.AST, name: str) -> int:
    """Number of calls ``name(...)`` or ``mod.name(...)`` in ``tree``."""
    return sum(
        isinstance(n, ast.Call) and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == name
        for n in ast.walk(tree)
    )


def _callers(tree: ast.Module, names: set[str]) -> set[str]:
    """Top-level function or class holding a call of any function or method in ``names``."""
    return {getattr(top, "name", "<module>") for top in tree.body if _called_names(top) & names}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name the code binds, reads, defines, passes as a keyword or takes as a parameter."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_normal_derivatives_come_from_the_kernel_evaluator():
    # a kernel's d^n k / dx_n^n is func(xi, mu, xn, n): no second hook, no
    # finite-difference stand-in in the symbol calculus or the operator norm;
    # a decay profile exp(-r x_n) is built by transforms._decay_profile alone (and
    # by the kernel's func): the plans and opnorm_hilbert take no exp of their own
    # but the heat sweep's link table, and dynbc's others are the road lattice's rays
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}
    assert {name for name, tree in trees.items() if "xn_derivative" in _identifiers(tree)} == set()
    assert "normal_derivative" not in _called_names(trees["symbols.py"])
    assert "normal_derivative" not in _called_names(_function(trees["norms.py"], "opnorm_hilbert"))
    heat_plan = _function(trees["dynbc.py"], "_heat_plan")
    plan_class = next(n for n in trees["dynbc.py"].body if isinstance(n, ast.ClassDef) and n.name == "_HeatPlan")
    assert _called_names(heat_plan) & {"_profile", "func"} == set()
    assert _np_owners(trees["transforms.py"], "exp") == ["_decay_profile"]
    assert _np_owners(trees["norms.py"], "exp") == []
    assert _np_owners(trees["dynbc.py"], "exp") == ["_HeatPlan", "road_symbol_scan", "road_symbol_scan"]
    assert _call_count(_function(plan_class, "scratch"), "exp") == 1


def test_the_heat_plan_derives_each_table_once():
    # the plan is its decay rates, one per mode: _heat_plan and gather only construct one, and every
    # table is derived from rate on first use, none gathered from another table
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    plan_class = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_HeatPlan")
    fields = [n.target.id for n in plan_class.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["mu2", "ngrid", "block", "rate"]
    for builder in (_function(tree, "_heat_plan"), _function(tree, "gather")):
        assert _called_names(builder) & {"exp", "take", "ascontiguousarray"} == set()
    # every plan holds one row per mode: none keeps an index to representatives, and gather only selects rows
    plans = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name.endswith("Plan")]
    assert all(n.target.id != "index" for plan in plans for n in plan.body if isinstance(n, ast.AnnAssign))
    assert _called_names(_function(tree, "gather")) & {"bincount", "searchsorted"} == set()
    assert _called_names(tree) & {"bincount", "take"} == set()
    # the sweep reads its flux off the backward recursion, not from a second pass
    assert _call_count(_function(tree, "_green_sweep"), "sum") == 0
    # the block length is chosen in _heat_plan alone, from the grid, and a gathered plan inherits it; the
    # node recursion's loops, steps cur += factor * prev, run in _green_sweep alone
    assert _callers(tree, {"_HeatPlan"}) == {"_heat_plan"}
    assert not any(kw.arg == "block" for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords)
    recursions = {
        top.name
        for top in tree.body
        for loop in ast.walk(top)
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if isinstance(node, ast.AugAssign) and isinstance(node.value, ast.Call) and _call_count(node.value, "multiply")
    }
    assert recursions == {"_green_sweep"}


def test_the_kpp_plan_takes_its_decay_rate_once():
    # the profile and the Robin derivative both come from one call of kpp_kernel(d).rate,
    # not from the kernel evaluated again per order
    plan = _function(ast.parse((PKG_DIR / "dynbc.py").read_text()), "_kpp_plan")
    assert _called_names(plan) & {"_profile", "func"} == set()
    assert _call_count(plan, "rate") == 1


def test_the_plans_read_their_kernels_decay_rates():
    # tau and the road-field rate are written once, as the rates of heat_kernel and
    # kpp_kernel(d); dynbc.py reads them only through the kernels
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"_tau", "_kpp_rate"} == set()
    assert _call_count(_function(tree, "_heat_plan"), "rate") == 1


def test_one_kernel_rescaling():
    # the rescaled kernel k(xi, mu, t / <xi, mu>) is written once, in the seminorm lattice
    tree = ast.parse((PKG_DIR / "symbols.py").read_text())
    rescalings = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Call)
        and ast.unparse(node.right.func) == "bracket"
    ]
    lattice = _function(tree, "seminorm_table")
    assert len(rescalings) == 1
    assert lattice.lineno <= rescalings[0].lineno <= lattice.end_lineno


def test_one_sweep_per_probe():
    # the seminorm lattice stacks every spectral sample on one axis: only
    # _spectral_lattice reads ProbeSpec.mu_values, and no loop runs over
    # mu_values(...) or xi_values()
    tree = ast.parse((PKG_DIR / "symbols.py").read_text())
    readers = _call_sites(tree, lambda call: getattr(call.func, "attr", None) == "mu_values")
    assert readers == {"_spectral_lattice"}
    loops = [
        ast.unparse(node.iter)
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and _called_names(node.iter) & {"mu_values", "xi_values"}
    ]
    assert loops == []


def test_radial_kernels_are_evaluated_per_distinct_frequency():
    # opnorm_hilbert and the Poisson profile read the grid's radial
    # representatives, not every mode; only TangentialGrid.radial groups modes
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}
    assert "freq_vectors" not in _identifiers(_function(trees["norms.py"], "opnorm_hilbert"))
    assert "freq_vectors" not in _identifiers(_function(trees["transforms.py"], "_profile"))
    sites = {
        (name, fn)
        for name, tree in trees.items()
        for fn in _call_sites(tree, lambda call: ast.unparse(call.func) == "np.unique")
    }
    assert sites == {("core.py", "radial")}


def _radial_gathers(tree: ast.Module) -> list[ast.AST]:
    """Every read of a grid's ``radial[1]`` and every subscript by an ``inverse``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and (
            "inverse" in _identifiers(node.slice)
            or (ast.unparse(node.value).endswith(".radial") and ast.unparse(node.slice) == "1")
        )
    ]


def test_radial_products_reach_the_modes_only_for_q_other_than_two():
    # the q = 2 products are measured on the radial classes (class sums and
    # pair tables); only the q != 2 branches gather class profiles to the modes
    tree = ast.parse((PKG_DIR / "norms.py").read_text())
    branches = [node for node in ast.walk(tree) if isinstance(node, ast.If) and ast.unparse(node.test) == "form.q != 2"]
    inside = {id(n) for branch in branches for stmt in branch.body for n in ast.walk(stmt)}
    gathers = _radial_gathers(tree)
    assert gathers and all(id(n) in inside for n in gathers)


def test_one_resolvent_path():
    # dynbc transforms its data and checks its parameter only in DynBCProblem,
    # in the Euler loop that drives the same spectral steps, and in the gain
    # scan; a solution is transformed back only by its record, on first read
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    assert _callers(tree, {"_tfft"}) == {"DynBCProblem", "implicit_euler_evolve"}
    assert _callers(tree, {"_itfft"}) == {"ResolventOutput"}
    assert _callers(tree, {"require"}) == {"DynBCProblem", "implicit_euler_evolve", "boundary_symbol_gain"}


def test_the_euler_step_loop_allocates_no_bulk():
    # the heat forcing and the step change go to the trajectory's buffer, and
    # the interior residual to the plan's composed stencil: neither the step
    # loop nor the data transform it calls zero-fills a bulk, and no step
    # differentiates one
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    loop = next(n for n in ast.walk(_function(tree, "implicit_euler_evolve")) if isinstance(n, ast.For))
    assert _called_names(loop) & {"normal_derivative", "zeros"} == set()
    assert "zeros" not in _called_names(_function(tree, "_spectra"))
    assert "normal_derivative" not in _called_names(tree)


def test_the_support_is_found_and_scattered_in_one_place_each():
    # the modes the data reach are found only by the support helper, the support's rows are scattered
    # into full spectra only by their record, the heat step neither zero-fills spectra nor scans for
    # its modes, and the kpp step reads |xi|^2 from its plan, not from the grid
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    finds = lambda call: (getattr(call.func, "attr", None) or getattr(call.func, "id", None)) == "flatnonzero"
    assert _call_sites(tree, finds) == {"_support_step"}
    scatters = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Assign)
        and not isinstance(node.value, ast.Constant)
        and any(isinstance(t, ast.Subscript) and isinstance(t.slice, (ast.Name, ast.Attribute)) for t in node.targets)
    }
    assert scatters == {"ResolventOutput"}
    assert _called_names(_function(tree, "_heat_step")) & {"zeros", "_active_modes"} == set()
    assert "tangential" not in _identifiers(_function(tree, "_kpp_step"))


def _squared_moduli(tree: ast.Module) -> set[str]:
    """Top-level definition holding each ``np.abs(...) ** 2``."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Call)
        and ast.unparse(node.left.func) == "np.abs"
        and ast.unparse(node.right) == "2"
    }


def test_one_solution_norm():
    # a resolvent's and an Euler step's L^2 norms and changes are Plancherel
    # sums taken by dynbc._l2 alone, and the CLI measures no solution itself
    assert _squared_moduli(ast.parse((PKG_DIR / "dynbc.py").read_text())) == {"_l2"}
    assert "lp_norm" not in _called_names(ast.parse((PKG_DIR / "cli.py").read_text()))


def test_one_normal_quadrature():
    # the weighted sum over the normal nodes is NormalGrid.integrate, which never goes through BLAS; the
    # weights' only other reads are the Green sweep's products w_j f_j and the weak quasinorm's measures,
    # and dynbc.py takes no BLAS product at all
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}
    reads = {
        (name, fn)
        for name, tree in trees.items()
        for fn in _call_sites(tree, lambda node: node.attr == "weights", kind=ast.Attribute)
    }
    assert reads == {("core.py", "integrate"), ("dynbc.py", "_green_sweep"), ("norms.py", "_total")}
    blas = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
    dynbc = trees["dynbc.py"]
    assert not [n for n in ast.walk(dynbc) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]
    assert _called_names(dynbc) & blas == set()


@settings(max_examples=40)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(2, 300)),
    seed=st.integers(0, 2**32 - 1),
    complex_values=st.booleans(),
)
def test_the_normal_quadrature_does_not_follow_the_memory_layout(shape, seed, complex_values):
    # integrate sums each row pairwise in C order: C, Fortran, transposed, reversed and strided copies of the
    # same values give the same bits
    ngrid = NormalGrid(shape[-1], r=1.01)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_values else 0.0)
    want = ngrid.integrate(a).tobytes()
    copies = [
        np.asfortranarray(a),
        np.ascontiguousarray(a.transpose(2, 1, 0)).transpose(2, 1, 0),
        np.ascontiguousarray(a[::-1, ::-1, ::-1])[::-1, ::-1, ::-1],
        a.repeat(2, axis=-1)[..., ::2],
    ]
    assert all(ngrid.integrate(c).tobytes() == want for c in copies)


def test_one_norm_engine():
    # every NormSpec norm is evaluated by norms._StackNorm; rbound only samples and searches
    definers = {
        p.name
        for p in PKG_DIR.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "_StackNorm"
    }
    assert definers == {"norms.py"}
    rbound_calls = _called_names(ast.parse((PKG_DIR / "rbound.py").read_text()))
    assert rbound_calls & {"normal_derivative", "_weak_lp", "integrate"} == set()


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package of every ``import`` and ``from ... import``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_the_cli_checks_configs_without_jsonschema():
    # CONFIG_SCHEMA is checked by cli._check; jsonschema is a test-only oracle,
    # and importing the CLI loads neither it nor what it pulls in
    importers = {p.name for p in PKG_DIR.glob("*.py") if "jsonschema" in _imported_modules(ast.parse(p.read_text()))}
    assert importers == set()
    src = str(PKG_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, poissonops.cli; print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert set(done.stdout.split()) & {"jsonschema", "attrs", "attr", "referencing", "rpds"} == set()


def _pass_throughs(tree: ast.Module) -> set[str]:
    """Functions in ``__all__`` whose body after the docstring is one ``return f(...)`` or ``return x[...]``."""
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            public = set(ast.literal_eval(node.value))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) == 1 and isinstance(body[0], ast.Return):
                if isinstance(body[0].value, (ast.Call, ast.Subscript)):
                    found.add(node.name)
    return found


def test_no_public_pass_through_wrappers():
    # each quantity has one entry point: a public name that only forwards to
    # another call is a second door to it
    found = {(p.name, name) for p in PKG_DIR.glob("*.py") for name in _pass_throughs(ast.parse(p.read_text()))}
    assert found == set()


def _random_sources(tree: ast.Module) -> list[str]:
    """Owner of every ``np.random`` reference, and every import of ``random`` or ``numpy.random``."""
    found = _np_owners(tree, "random")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        else:
            continue
        found += [f"import {m}" for m in modules if m.split(".")[0] == "random" or m.startswith("numpy.random")]
    return found


def test_random_draws_come_from_one_seed_tree():
    # every draw is keyed by a SeedSequence node held by rbound.RademacherSampler:
    # no hand-built key, module-level generator or second keying scheme exists
    found = {(p.name, owner) for p in PKG_DIR.glob("*.py") for owner in _random_sources(ast.parse(p.read_text()))}
    assert found == {("rbound.py", "RademacherSampler")}


def _calls_to(name: str):
    """Test for a call ``name(...)``, ``name`` as written in the source."""
    return lambda call: ast.unparse(call.func) == name


def _is_config_echo(call: ast.Call) -> bool:
    """``print(f"config ...")``."""
    first = call.args[0] if call.args else None
    return (
        ast.unparse(call.func) == "print"
        and isinstance(first, ast.JoinedStr)
        and isinstance(first.values[0], ast.Constant)
        and first.values[0].value.startswith("config ")
    )


def test_the_cli_writes_artifacts_and_echoes_its_config_once():
    # cli._write creates --out and opens every artifact once; the one other
    # open is _apply_config's read of --config, and only cli._echo prints the
    # config line
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}

    def sites(is_target):
        return {(name, fn) for name, tree in trees.items() for fn in _call_sites(tree, is_target)}

    assert sites(_calls_to("open")) == {("cli.py", "_write"), ("cli.py", "_apply_config")}
    assert sites(_calls_to("os.makedirs")) == {("cli.py", "_write")}
    assert sites(_is_config_echo) == {("cli.py", "_echo")}
