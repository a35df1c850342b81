"""The package holds only code that the engine runs or exports.

Every top-level function of ``src/delpezzo3`` (cached ones included,
click commands not), and every method and property of its classes other
than dunders, must be named by code in ``src/delpezzo3`` or
``perfbench`` outside its own body, or be exported in
``delpezzo3.__all__``, alone or in its class.  Code that only tests call
belongs in the oracle modules under ``tests/``.

Only the classes in ``DATACLASSES`` use ``@dataclass``, whose generated
methods are built at every import, and no class derives from
``typing.NamedTuple``, which compiles its field annotations.
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


# The classes that keep @dataclass, each for what no other record gives.
# A dataclass compiles several methods per class at import; a
# collections.namedtuple (chains.tuple_record) compiles only its __new__,
# and a chains.Record subclass compiles nothing.
DATACLASSES = {
    # tests call dataclasses.replace on it and expect FrozenInstanceError
    "boundary.DecoratedType",
}


def is_dataclass_decorator(dec: ast.expr) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_dataclasses_only_where_needed():
    found = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list))
    }
    assert found == DATACLASSES


def names_named_tuple(base: ast.expr) -> bool:
    return (isinstance(base, ast.Name) and base.id == "NamedTuple") or (
        isinstance(base, ast.Attribute) and base.attr == "NamedTuple")


def test_no_typing_named_tuples():
    """``typing.NamedTuple`` compiles a ``ForwardRef`` per field at every
    import; ``chains.tuple_record`` builds the same class without."""
    found = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(map(names_named_tuple, node.bases))
    }
    assert found == set()
