"""Package layout guards: public names resolve, one tangential FFT pair, one sector check."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import poissonops

PKG_DIR = Path(poissonops.__file__).parent
FFT_CALLS = {"fft", "ifft", "fftn", "ifftn"}


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
