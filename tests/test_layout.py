"""Package layout guards: public names resolve, one tangential FFT pair, one sector check,
one bracket weight, one central difference, one sweep per probe over the spectral samples,
one builder for the decay and constant kernels, one resolvent path, one norm engine, one
evaluator of a kernel's normal derivatives, sign sums without per-trial contractions, and no
threads, processes or environment reads."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import poissonops

PKG_DIR = Path(poissonops.__file__).parent
FFT_CALLS = {"fft", "ifft", "fftn", "ifftn"}
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def _call_sites(tree: ast.Module, is_target) -> set[str]:
    """Innermost enclosing function of every call node for which ``is_target`` holds."""
    defs, lines = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.append(node)
        elif isinstance(node, ast.Call) and is_target(node):
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
    # finite-difference stand-in in the symbol calculus or the operator norm,
    # and the heat plan lifts through its sweep's image table, not a second exp
    trees = {p.name: ast.parse(p.read_text()) for p in PKG_DIR.glob("*.py")}
    assert {name for name, tree in trees.items() if "xn_derivative" in _identifiers(tree)} == set()
    assert "normal_derivative" not in _called_names(trees["symbols.py"])
    assert "normal_derivative" not in _called_names(_function(trees["norms.py"], "opnorm_hilbert"))
    assert _called_names(_function(trees["dynbc.py"], "_heat_plan")) & {"_profile", "exp", "func"} == set()


def test_one_sweep_per_probe():
    # the seminorm lattice and char_lp_bound stack every spectral sample on one
    # axis: only _spectral_lattice reads ProbeSpec.mu_values, and no loop runs
    # over mu_values(...) or xi_values()
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


def test_one_resolvent_path():
    # dynbc transforms its data and checks its parameter only in DynBCProblem,
    # in the Euler loop that drives the same spectral steps, and in the gain scan
    tree = ast.parse((PKG_DIR / "dynbc.py").read_text())
    assert _callers(tree, {"_tfft", "_itfft"}) == {"DynBCProblem", "implicit_euler_evolve"}
    assert _callers(tree, {"require"}) == {"DynBCProblem", "implicit_euler_evolve", "boundary_symbol_gain"}


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
    assert rbound_calls & {"normal_derivative", "_normal_lp"} == set()
