"""What a fresh ``import whdet`` loads: no adaptive quadrature or optimizer
code, which no library route uses (the quadrature oracles live in
``tests/_quad_oracle.py``); which module may import which; and that every
name the benchmark calls exists."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import whdet

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_out_scipy_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, whdet; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def _module_imports(tree):
    """(module, names) of every import in a parsed whdet module, a relative
    module named without its dots; ``from . import m`` counts as all of m."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("whdet.")
            if node.level and not node.module:
                for alias in node.names:
                    yield alias.name, {"*"}
            else:
                yield module, {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("whdet."), {"*"}


def test_closed_forms_behind_one_module():
    """Outside ``specfun``, ``asymptotics`` and the package namespace no
    module imports more than ``sin_pi`` from ``specfun``, so every Barnes-G
    closed form sits in ``asymptotics``; it imports no route module, and
    defines LN_2 and LN_2PI, which no other module does."""
    routes = {"structured", "wienerhopf", "fredholm", "expsum", "symbols"}
    for path in sorted((ROOT / "src" / "whdet").glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = list(_module_imports(tree))
        if path.stem not in ("specfun", "asymptotics", "__init__"):
            from_specfun = set().union(*(names for m, names in imports if m == "specfun"))
            assert from_specfun <= {"sin_pi"}, (path.stem, from_specfun)
        if path.stem == "asymptotics":
            assert not routes & {m for m, _ in imports}, path.stem
        else:
            assigned = {n.id for n in ast.walk(tree)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            assert not {"LN_2", "LN_2PI"} & assigned, path.stem


def test_expsum_takes_kernels_not_symbols():
    """``expsum`` imports nothing from the package but ``errors``, ``logdet``
    and ``quadrature``: its recursion takes an exponential sum and the sign
    of its Hankel block, never a symbol or a route."""
    tree = ast.parse((ROOT / "src" / "whdet" / "expsum.py").read_text())
    package = {p.stem for p in (ROOT / "src" / "whdet").glob("*.py")} | {"whdet", ""}
    imported = {m for m, _ in _module_imports(tree) if m in package}
    assert imported <= {"errors", "logdet", "quadrature"}, imported


def _whdet_names(source):
    """Every dotted name rooted at ``whdet`` in a Python source, and in each
    of its string constants that parses as Python (bench/run.py's setup
    code is one)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _whdet_names(node.value)
            except (SyntaxError, ValueError):
                pass
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "whdet":
                names.add(".".join(reversed(parts)))
    return names


def test_benchmark_names_exist():
    """Every ``whdet.<name>`` the benchmark's workloads and runner call
    exists.  This suite does not collect bench/, so without this a public
    name deleted from under the benchmark would show only as a failed
    benchmark pass."""
    names = set().union(*(_whdet_names((ROOT / "bench" / f).read_text())
                          for f in ("workloads.py", "run.py")))
    assert {"det_wr_pm_hr", "wh_rule", "reflected_union_rule", "d_n"} <= names
    missing = set()
    for name in names:
        try:
            functools.reduce(getattr, name.split("."), whdet)
        except AttributeError:
            missing.add(name)
    assert not missing, sorted(missing)
