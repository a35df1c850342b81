"""The engine's records keep the value semantics of the frozen
dataclasses they replace, checked on records from real runs: equal fields
give equal records with equal hashes, a pickle round trip and
``copy.copy`` give an equal record, a field cannot be set, and ``repr``
reads ``Name(field=value, ...)``.  The tuple records are namedtuples; the
value classes derive from ``chains.Record``, whose ``replace`` and
constructors keep their checks.  ``Report`` fills its list and dict in
place, so it is a plain class, and no two reports share them."""

import copy
import pickle
import typing
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from delpezzo3 import fixtures, homology, notation, swaps, verify
from delpezzo3 import simulator as sim
from delpezzo3.boundary import graph_automorphisms, width_check
from delpezzo3.chains import Fork, Record, tuple_record
from delpezzo3.reports import Report

PLANS = Path(__file__).resolve().parents[1] / "src" / "delpezzo3" / "data" / "plans"


def hashable(record) -> bool:
    try:
        hash(record)
    except TypeError:
        return False
    return True


def assert_value_record(record, name: str) -> None:
    cls = type(record)
    assert cls.__name__ == name and issubclass(cls, tuple)
    twin = cls(*copy.deepcopy(tuple(record)))  # equal fields, other objects
    assert twin == record and not twin != record
    if hashable(record):
        assert hash(twin) == hash(record)
    else:  # a dict field, unhashable as the dataclass was
        with pytest.raises(TypeError):
            hash(twin)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in cls._fields)
    assert repr(record) == f"{name}({fields})"


def assert_frozen_record(record, name: str) -> None:
    """``assert_value_record`` for a ``chains.Record``, whose fields are
    not a tuple's items and which raises ``FrozenInstanceError``."""
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Record) and not isinstance(record, tuple)
    values = {f: getattr(record, f) for f in cls._fields}
    twin = cls(**copy.deepcopy(values))  # equal fields, other objects
    assert twin == record and not twin != record
    if hashable(record):
        assert hash(twin) == hash(record)
    else:  # a dict or list field, unhashable as the dataclass was
        with pytest.raises(TypeError):
            hash(twin)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(clone) is cls and clone == record
    for field in cls._fields:
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)
    assert {f: getattr(record, f) for f in cls._fields} == values
    fields = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(record) == f"{name}({fields})"


def assert_replaces(record, **changes) -> None:
    """``replace`` gives a copy with ``changes`` and the other fields
    equal, and leaves ``record`` as it was."""
    before = repr(record)
    changed = record.replace(**changes)
    assert type(changed) is type(record) and changed != record
    for f in type(record)._fields:
        assert getattr(changed, f) == (changes[f] if f in changes else getattr(record, f))
    assert repr(record) == before
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


@pytest.fixture(scope="module")
def w3a():
    return verify.load_root("w3a")


def test_verify_records():
    tables = fixtures.load_all_tables(("char3",))
    cases = verify.table_cases(tables, 4)
    instances = verify.verify_instances(cases)
    assert_value_record(cases[0][1], "FixtureRow")
    assert_value_record(instances[0], "Instance")
    assert instances[0].status == "PASS"
    tables = fixtures.load_all_tables()
    cases = verify.table_cases(tables, 4)
    coincidences = verify.distinctness(cases, verify.verify_instances(cases))
    assert_value_record(coincidences[0], "Coincidence")


def test_cascade_records(w3a):
    assert_value_record(w3a, "Root")
    result = w3a.cascade(2)
    assert_value_record(result, "CascadeResult")
    nodes = {**result.nodes, **result.pruned}.values()
    for status in ("ok", "inadmissible", "inequality"):
        node = next(n for n in nodes if n.status == status and n.depth == 2)
        assert_value_record(node, "CascadeNode")
    assert_value_record(next(n for n in nodes if n.depth == 0), "CascadeNode")
    targets, _ = verify.cascade_targets(fixtures.load_all_tables(verify.CASCADE_STEMS, "w3a"),
                                        w3a, 8, 2)
    assert_value_record(targets[0], "Target")


def test_boundary_records(w3a):
    check = width_check(w3a.dtype)
    assert_value_record(check, "CheckResult")
    assert check.satisfied
    assert_value_record(graph_automorphisms(w3a.dtype), "AutGroup")
    moves = swaps.reverse_moves(w3a.dtype, w3a.node_labels)
    graph = swaps._Frame(w3a.dtype, moves).child(*moves[0])
    assert_value_record(graph, "BoundaryGraph")


def test_notation_records():
    expr = notation.parse("@1[(2)_{k-1},3h@2]*[2] + <2;[2],[3]@3,[2,2]> ; k>=2")
    chain, fork = (c.body for c in expr.components)
    assert_value_record(expr.components[0], "ComponentExpr")
    assert_value_record(chain, "ChainExprNode")
    assert_value_record(fork, "ForkExprNode")
    assert_value_record(fork.twigs[1], "TwigExpr")


def test_simulator_records():
    plan = sim.load_plan(PLANS / "ex33a.plan")
    cfg = sim.replay(plan)
    assert_value_record(cfg.history[0], "Step")
    assert_value_record(plan.fibration, "Fibration")
    assert_value_record(sim.analyze_fiber(cfg, plan.fibration, plan.fibration.base_fibers[0]),
                        "FiberData")


def test_homology_and_abcd_records():
    m = homology.IntMatrix(tuple(map(tuple, fixtures.load_matrix("exotic_matrix_1"))))
    assert_value_record(homology.smith_normal_form(m), "SmithForm")
    assert_value_record(homology.cokernel(m), "AbelianGroup")
    assert_value_record(fixtures.load_abcd_table()[0], "AbcdBox")


def outcome(expr, assignment):
    try:
        return notation.substitute(expr, assignment)
    except ValueError as err:
        return type(err), str(err)


def test_notation_value_records():
    """The nodes of a table row with a parametric fork branch, a
    ``(2)_{e}`` run and a constraint, and its TypeExpr."""
    row = next(row for rows in fixtures.load_all_tables().values() for row in rows
               if "<k;" in row.text and "(2)_{" in row.text and row.expr.constraints)
    expr = row.expr
    fork, chain = (c.body for c in expr.components)
    branch = fork.branch
    rep = next(item for part in chain.parts for item in part if type(item) is notation.RepExpr)
    assert_frozen_record(expr, "TypeExpr")
    assert_frozen_record(branch, "EntryExpr")
    assert_frozen_record(branch.value, "IExpr")
    assert_frozen_record(rep, "RepExpr")
    assert_frozen_record(rep.count, "IExpr")
    assert_frozen_record(expr.constraints[0], "Constraint")
    assert branch.value.param == rep.count.param == "k"
    assert_replaces(expr, width=None)
    assert expr.replace(width=None).parameters() == ["k"]
    assert_replaces(branch.value, offset=1)
    assert_replaces(branch, horizontal=True)
    assert_replaces(expr.constraints[0], values=(4,))


def test_copied_type_expressions_substitute_alike():
    """Every table row's expression, unpickled or copied, substitutes as
    the original does at every assignment up to cutoff 4."""
    seen = 0
    for rows in fixtures.load_all_tables().values():
        for row in rows:
            for clone in (pickle.loads(pickle.dumps(row.expr)), copy.copy(row.expr)):
                assert clone.parameters() == row.expr.parameters()
                for assignment in notation.assignments(row.expr, 4):
                    assert outcome(clone, assignment) == outcome(row.expr, assignment)
                    seen += 1
    assert seen > 500  # 464 assignments, each with two copies


def test_fork_records():
    """A fork of a table instance, and the twig check of the constructor."""
    row = next(row for row in fixtures.load_table("char0") if "<" in row.text)
    d = notation.substitute(row.expr, next(iter(notation.assignments(row.expr, 4))))
    _, branch, twigs = next(c for c in d.components if c[0] == "fork")
    fork = Fork(branch.weight, tuple(tuple(e.weight for e in t) for t in twigs))
    assert_frozen_record(fork, "Fork")
    assert_replaces(fork, branch=fork.branch + 1)
    for bad in (fork.twigs[:2], fork.twigs[:2] + ((),)):
        with pytest.raises(ValueError):
            Fork(2, bad)
        with pytest.raises(ValueError):
            fork.replace(twigs=bad)


def test_int_matrix_records():
    m = homology.IntMatrix(fixtures.load_matrix("exotic_matrix_1"))
    assert all(type(row) is tuple for row in m.entries)
    assert_frozen_record(m, "IntMatrix")
    assert_replaces(m, entries=m.entries[1:])
    for bad in (m.entries + (m.entries[0][1:],), ((),)):
        with pytest.raises(ValueError):
            homology.IntMatrix(bad)


def test_simulator_value_records():
    plan = sim.load_plan(PLANS / "x1.plan")
    cfg = sim.replay(plan)
    curve = next(c for c in cfg.curves.values() if c.exceptional)
    point = next(p for p in cfg.points.values() if len(p.branches) > 1)
    assert_frozen_record(plan, "Plan")
    assert_frozen_record(cfg, "SurfaceConfig")
    assert_frozen_record(curve, "Curve")
    assert_frozen_record(point, "Point")
    assert_replaces(plan, steps=plan.steps[:1])
    assert_replaces(cfg, history=cfg.history[:1])
    assert_replaces(curve, self_int=curve.self_int - 1)
    assert_replaces(point, on_exceptional="E0")
    branches = point.branches
    assert list(branches) == sorted(branches)
    assert point.replace(branches=branches[::-1]).branches == branches
    assert sim.Point("p", ("b", "a"), {}, {}).branches == ("a", "b")


def pair_class(*bases):
    class Pair(*bases):
        """A pair."""

        a: int
        b: list | None = None

        def total(self) -> int:
            return self.a + len(self.b or ())

    return Pair


def test_tuple_record_builds_what_typing_named_tuple_builds():
    ours, theirs = tuple_record(pair_class()), pair_class(typing.NamedTuple)
    for cls in (ours, theirs):
        assert cls.__bases__ == (tuple,) and cls._fields == ("a", "b")
        assert cls._field_defaults == {"b": None} and cls.__module__ == __name__
        assert cls.__qualname__ == theirs.__qualname__ and cls.__doc__ == "A pair."
        assert cls(1, [2]).total() == 2 and repr(cls(1)) == "Pair(a=1, b=None)"
    assert set(vars(theirs)) - set(vars(ours)) <= {"__annotations__", "__orig_bases__"}
    assert set(vars(ours)) <= set(vars(theirs))

    class Unordered:
        a: int = 1
        b: int

    with pytest.raises(TypeError):
        tuple_record(Unordered)


def test_reports_keep_their_own_rows_and_counts():
    a, b = Report("a", ("x",)), Report("b", ("x",))
    a.add(1)
    a.count("PASS")
    assert b.items == [] and b.summary == {}
    assert a.items == [("1",)] and a.summary == {"PASS": 1}
