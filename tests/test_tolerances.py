"""The tolerance policy: every numerical decision in ``src/repgame`` reads one
named constant, and README's "Tolerances" table lists each with its value.

``verify.py`` is outside the policy: its thresholds are the verify contract
and stay literal in its rows.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repgame"
SMALL = 1e-3  # a float literal below this in magnitude is a tolerance


def _table() -> dict[str, tuple[str, str]]:
    """README's Tolerances table: constant -> (value, module)."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.fullmatch(r"\| `([\w.]+)` \| ([^|]+) \| [^|]+ \| `(\w+)` \|", line)
        if m:
            rows[m[1]] = (m[2].strip(), m[3])
    return rows


def _modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "verify.py"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _small_literals(node: ast.AST) -> list[ast.Constant]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, float) and 0.0 < abs(n.value) < SMALL]


def _named_sites(tree: ast.Module) -> tuple[dict[str, ast.AST], set[int]]:
    """Module-level assignments and dataclass field defaults, by name, and the
    ids of every node inside them."""
    named: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            named[node.targets[0].id] = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.value is not None:
            named[node.target.id] = node.value
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and field.value is not None:
                    named[f"{node.name}.{field.target.id}"] = field.value
    inside = {id(n) for value in named.values() for n in ast.walk(value)}
    return named, inside


def bare_tolerance_literals(paths) -> list[str]:
    """file:line of each float literal 0 < |x| < 1e-3 outside a module-level
    assignment or a dataclass field default."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        _, inside = _named_sites(tree)
        found += [f"{path.name}:{n.lineno}: {n.value!r}"
                  for n in _small_literals(tree) if id(n) not in inside]
    return found


@pytest.mark.parametrize("name", sorted(_table()))
def test_listed_constant_exists_with_its_value(name):
    value, module = _table()[name]
    obj = importlib.import_module(f"repgame.{module}")
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert float(obj) == float(value), (name, obj, value)


def test_no_bare_tolerance_literal():
    assert bare_tolerance_literals(_modules()) == []


def test_every_named_tolerance_is_listed():
    listed = _table()
    for path in _modules():
        named, _ = _named_sites(ast.parse(path.read_text()))
        for name, value in named.items():
            if _small_literals(value):
                assert listed.get(name, (None, None))[1] == path.stem, (path.name, name)


def test_scan_sees_a_bare_comparison(tmp_path):
    # the scan itself: a literal in a function body is found, a module
    # constant and a dataclass default are not
    src = tmp_path / "mod.py"
    src.write_text("from dataclasses import dataclass\n"
                   "TOL = 1e-9\n"
                   "@dataclass\n"
                   "class C:\n"
                   "    tol: float = 1e-4\n"
                   "def f(x):\n"
                   "    return x <= TOL and x > -1e-9\n")
    assert bare_tolerance_literals([src]) == ["mod.py:7: 1e-09"]


def functions_reading(name: str, paths) -> list[str]:
    """module.function of every function in ``paths`` that loads ``name``,
    once each; a load outside every function counts as module.<module>."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner.setdefault(id(n), fn.name)  # walk order: outermost first
        found += sorted({f"{path.stem}.{owner.get(id(n), '<module>')}" for n in ast.walk(tree)
                         if isinstance(n, ast.Name) and n.id == name
                         and isinstance(n.ctx, ast.Load)})
    return found


def test_one_function_reads_the_best_reply_tie():
    # every best reply in the package comes from one rule
    assert functions_reading("BR_TIE_TOL", sorted(PACKAGE.glob("*.py"))) == [
        "scores.best_replies"]
