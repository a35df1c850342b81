"""The package holds only code that the engine runs or exports.

Every top-level function of ``src/delpezzo3`` (cached ones included,
click commands not) must be named by code in ``src/delpezzo3`` or
``perfbench`` outside its own body, or be exported in
``delpezzo3.__all__``.  Code that only tests call belongs in the oracle
modules under ``tests/``.
"""

import ast
from pathlib import Path

import delpezzo3

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo3"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def is_click_command(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def names_in(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_package_function_is_used_or_exported():
    functions = []  # (path, line, name) of each top-level package function
    named: dict[str, set] = {}  # name -> {(path, line)} of the statements naming it
    for path in READERS:
        for stmt in ast.parse(path.read_text()).body:
            if (path.parent == PACKAGE and isinstance(stmt, ast.FunctionDef)
                    and not is_click_command(stmt)):
                functions.append((path, stmt.lineno, stmt.name))
            for name in names_in(stmt):
                named.setdefault(name, set()).add((path, stmt.lineno))
    unused = [
        f"{path.stem}.{name}"
        for path, line, name in functions
        if not named.get(name, set()) - {(path, line)} and name not in delpezzo3.__all__
    ]
    assert unused == []
