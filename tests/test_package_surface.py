"""The package holds only code that the engine runs or exports.

Every top-level function of ``src/delpezzo3`` (cached ones included,
click commands not), and every method and property of its classes other
than dunders, must be named by code in ``src/delpezzo3`` or
``perfbench`` outside its own body, or be exported in
``delpezzo3.__all__``, alone or in its class.  Code that only tests call
belongs in the oracle modules under ``tests/``.
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


def definitions(module: ast.Module):
    """(qualified name, def) of each function and non-dunder method of
    ``module`` that ``delpezzo3.__all__`` does not export."""
    for stmt in module.body:
        if isinstance(stmt, ast.FunctionDef) and not is_click_command(stmt):
            if stmt.name not in delpezzo3.__all__:
                yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef) and stmt.name not in delpezzo3.__all__:
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and not (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    yield f"{stmt.name}.{fn.name}", fn


def test_every_package_function_is_used_or_exported():
    defined = []  # (path, qualified name, def) of each package function and method
    named: dict[str, set] = {}  # name -> {(path, line)} of the nodes naming it
    for path in READERS:
        module = ast.parse(path.read_text())
        for node in ast.walk(module):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(name, set()).add((path, node.lineno))
        if path.parent == PACKAGE:
            defined += [(path, qualname, fn) for qualname, fn in definitions(module)]
    unused = [
        f"{path.stem}.{qualname}"
        for path, qualname, fn in defined
        if all(where == path and fn.lineno <= line <= fn.end_lineno
               for where, line in named.get(fn.name, ()))
    ]
    assert unused == []
