"""The engine's records are NamedTuples with the value semantics of the
frozen dataclasses they replace, checked on records from real runs:
equal fields give equal records with equal hashes, a pickle round trip
and ``copy.copy`` give an equal record, a field cannot be set, and
``repr`` reads ``Name(field=value, ...)``.  ``Report`` fills its list and
dict in place, so it is a plain class, and no two reports share them."""

import copy
import pickle
from pathlib import Path

import pytest

from delpezzo3 import fixtures, homology, notation, swaps, verify
from delpezzo3 import simulator as sim
from delpezzo3.boundary import graph_automorphisms, width_check
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


def test_reports_keep_their_own_rows_and_counts():
    a, b = Report("a", ("x",)), Report("b", ("x",))
    a.add(1)
    a.count("PASS")
    assert b.items == [] and b.summary == {}
    assert a.items == [("1",)] and a.summary == {"PASS": 1}
