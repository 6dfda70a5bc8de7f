"""Package layout guards: public names resolve, one tangential FFT pair, one sector check,
and no threads, processes or environment reads."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import poissonops

PKG_DIR = Path(poissonops.__file__).parent
FFT_CALLS = {"fft", "ifft", "fftn", "ifftn"}
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def _fft_call_sites(tree: ast.Module) -> set[str]:
    """Innermost enclosing function of every ``*.fft.<fft|ifft|fftn|ifftn>(...)`` call."""
    defs, lines = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.append(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FFT_CALLS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "fft"
        ):
            lines.append(node.lineno)
    sites = set()
    for line in lines:
        owners = [d for d in defs if d.lineno <= line <= d.end_lineno]
        sites.add(min(owners, key=lambda d: d.end_lineno - d.lineno).name if owners else "<module>")
    return sites


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
