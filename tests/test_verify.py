"""The instance evaluator, which reads each instance from its row's
compiled plan (``notation.readings``, ``verify.evaluate``), against the
pipeline it replaced (``verify_oracle``), which substitutes each instance
into a whole ``DecoratedType``: the same ``Instance`` on every table
instance and negative fixture, and the same exception class and message
on malformed type text."""

import pytest
from hypothesis import example, given, settings

import verify_oracle
from delpezzo3 import boundary, fixtures, notation, verify
from test_cli import _type_text, run

CUTOFF = 12


def outcome(read, expr, assignment, expected=None, lc_only=False):
    """The evaluator's ``Instance`` for ``expr`` at ``assignment`` (sorted
    pairs), or the class and message of the ValueError it raises; ``read``
    is True for the plan reader, False for the oracle."""
    try:
        if read:
            parts = notation.readings(expr, dict(assignment))
            return verify.evaluate("row", parts, expr.width, assignment, expected, lc_only)
        d = notation.substitute(expr, dict(assignment))
        return verify_oracle.evaluate("row", d, assignment, expected, lc_only)
    except ValueError as err:  # NotationError is a ValueError
        return type(err), str(err)


def test_every_table_instance_matches_the_oracle():
    """At cutoff 12, on a first read of each plan and on a second, which
    finds its constant components read."""
    cases = verify.table_cases(fixtures.load_all_tables(), CUTOFF)
    expected = verify_oracle.verify_instances(cases)
    assert len(expected) == 1260
    assert verify.verify_instances(cases) == expected
    assert verify.verify_instances(cases) == expected


def test_every_negative_fixture_matches_the_oracle():
    """Each row of ``negative.types`` at cutoff 12, as ``check`` reads it
    and as ``verify-tables`` would, with its ``sing:`` annotation and as
    an lc-only row."""
    rows = fixtures.load_negative()
    assert rows
    for row in rows:
        for assignment in fixtures.row_assignments(row, CUTOFF):
            key = tuple(sorted(assignment.items()))
            for expected in (None, row.sing):
                for lc_only in (False, True):
                    args = (row.expr, key, expected, lc_only)
                    assert outcome(True, *args) == outcome(False, *args), (row.name, args)


@settings(max_examples=300, deadline=None)
@example(text="[2]+[2];width=5")
@example(text="[2h@1@1@1@1];width=1")
@example(text="[3,2]")
@example(text="<2;[2],[2],[2]>")
@example(text="<2h@1;[2@1],[2@1],[2@1]>;width=1")
@example(text="[2hu@1]+[3@1@1@2]+[2@2@2];width=2")
@given(text=_type_text)
def test_malformed_type_text_fails_as_the_oracle_does(text):
    try:
        expr = notation.parse(text)
    except ValueError:
        return  # a parse error, before either evaluator
    for lc_only in (False, True):
        for expected in (None, expr):
            args = (expr, (), expected, lc_only)
            assert outcome(True, *args) == outcome(False, *args), args


@pytest.fixture
def built_types(monkeypatch):
    """The number of DecoratedTypes built so far, as a one-item list."""
    count = [0]
    build = boundary.DecoratedType._build

    def counting(self, *args):
        count[0] += 1
        return build(self, *args)

    monkeypatch.setattr(boundary.DecoratedType, "_build", counting)
    return count


def test_verify_builds_no_type_per_instance(built_types):
    """The oracle builds a type per instance and per ``sing:`` annotation;
    the evaluator builds none, and ``verify-tables`` builds only the eight
    that ``distinctness`` keys."""
    cases = verify.table_cases(fixtures.load_all_tables(), CUTOFF)
    verify_oracle.verify_instances(cases)
    assert built_types[0] == 1796
    built_types[0] = 0
    verify.verify_instances(cases)
    assert built_types[0] == 0
    res = run("verify-tables", "--table", "all", "--cutoff", str(CUTOFF))
    assert res.exit_code == 0 and built_types[0] == 8


def test_plans_are_read_lazily():
    """No reading is made at parse time; a plan's first ``readings``
    reads its constant components, and later ones reuse them."""
    expr = notation.parse("[2,3h]+[(2)_{k},4] ; k>=1 ; width=1")
    assert expr._plan.reads is None
    first = notation.readings(expr, {"k": 1})
    kept = expr._plan.reads
    assert kept[0] is first[0] and kept[1] is None
    assert notation.readings(expr, {"k": 2})[0] is first[0]


def test_compiling_tables_raises_no_error(monkeypatch):
    """A step that names a parameter is kept without a trial build, so
    compiling every table raises and catches no NotationError."""
    raised = []
    init = notation.NotationError.__init__

    def counting(self, *args, **kwargs):
        raised.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(notation.NotationError, "__init__", counting)
    fixtures.load_all_tables()
    assert raised == []
