import copy
import itertools
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import notation_oracle
from delpezzo3 import fixtures, notation
from delpezzo3.boundary import (
    canonical_form,
    render_singularity_type,
    singularity_type_of,
    width_check,
)
from delpezzo3.notation import (
    ChainExprNode,
    ComponentExpr,
    Constraint,
    EntryExpr,
    ForkExprNode,
    IExpr,
    NotationError,
    RepExpr,
    TwigExpr,
    TypeExpr,
    assignments,
    chain_runs,
    parse,
    render,
    substitute,
)

LEM_W3_I = "[2@1,2h@5,k@2,2h@4,2@1,2h@3,2@5,2@4] + @2[(2)_{k-2},3@3] ; k>=3 ; width=3"


def test_parse_lemma_w3_i():
    expr = parse(LEM_W3_I)
    assert expr.width == 3
    assert expr.parameters() == ["k"]
    assert len(expr.components) == 2
    d = substitute(expr, {"k": 3})
    assert render_singularity_type(singularity_type_of(d)) == "[2,2,2,2,2,3,2,2]+[2,3]"
    res = width_check(d)
    assert res.satisfied and res.lhs.numerator == 5 and res.lhs.denominator == 3


def test_parse_fork():
    expr = parse("<2;[2],[2],[2]>")
    d = substitute(expr, {})
    assert render_singularity_type(singularity_type_of(d)) == "<2;[2],[2],[2]>"


def test_parse_flags_and_labels():
    expr = parse("[3hu@1@3] ; width=2")
    with pytest.raises(ValueError):
        substitute(expr, {})  # width 2 needs a 1-section too
    expr2 = parse("[3hu@1@3,2h]  ; width=2")
    d = substitute(expr2, {})
    e = d.entries()[0]
    assert e.horizontal and e.two_section and e.labels == (1, 3)


def test_roundtrip():
    for text in [
        LEM_W3_I,
        "<2;[2],[2],[2]>",
        "[3hu@1@3,2h] ; width=2",
        "@2[(2)_{k-2},3]@3@4 + <kh@0;[2]@1,@5[2,2],[3]> ; k in {3,4} ; width=3 ; char=ne2",
        "[2]*[3,2]*[(2)_{m-1}] ; m>=2",
    ]:
        expr = parse(text)
        assert parse(render(expr)) == expr


def test_substitute_star_and_vanishing():
    expr = parse("[(2)_{k-2},3] ; k>=2")
    d = substitute(expr, {"k": 2})
    assert render_singularity_type(singularity_type_of(d)) == "[3]"
    expr2 = parse("[2,3]*[2] ; k>=2")
    d2 = substitute(expr2, {"k": 5})
    assert render_singularity_type(singularity_type_of(d2)) == "[2,4]"


def test_substitute_sentinel():
    # [(2)_{-1}] * [3,2] = [4,2]
    expr = parse("[(2)_{-1}]*[3,2]")
    d = substitute(expr, {})
    assert render_singularity_type(singularity_type_of(d)) == "[2,4]"
    # [(2)_{-1}, 3, 2] = [2]
    expr2 = parse("[(2)_{-1},3,2]")
    d2 = substitute(expr2, {})
    assert render_singularity_type(singularity_type_of(d2)) == "[2]"


def test_substitute_rejects_bad_values():
    expr = parse(LEM_W3_I)
    with pytest.raises(NotationError):
        substitute(expr, {"k": 2})  # violates k>=3
    # the first low weight is named: components in order, a fork's branch
    # before its twigs, and the weight before the fork-label error
    for text, first in [
        ("[k-1,2] ; k>=2", 1),
        ("[2,k-2] + <k-1;[2],[2],[2]> ; k>=2", 0),
        ("<k-1;[2],[2],[2]> + [k-2] ; k>=2", 1),
        ("<k-1;[2],[k-2],[3]> ; k>=2", 1),
        ("<2;[2],[k-2],[k-1]> ; k>=2", 0),
        ("@1<k-1;[2],[2],[2]> ; k>=2", 1),
    ]:
        with pytest.raises(NotationError) as err:
            substitute(parse(text), {"k": 2})
        assert str(err.value) == f"weight {first} < 2 in a boundary position"


def test_parse_errors_have_positions():
    with pytest.raises(NotationError) as err:
        parse("[2,,3]")
    assert "column" in str(err.value)
    with pytest.raises(NotationError) as err:
        parse("[2,k]")  # undeclared parameter
    assert "undeclared" in str(err.value)
    with pytest.raises(NotationError):
        parse("[2")


def test_enumerate_instances():
    expr = parse("[(2)_{k-1},3] ; k in {3,4}")
    assert len([substitute(expr, a) for a in assignments(expr, 10)]) == 2
    expr2 = parse("[k] ; k>=3")
    assert [a["k"] for a in assignments(expr2, 5)] == [3, 4, 5]
    table_row = parse("[a,b,c,d] ; a>=6 ; a<=8 ; b=2 ; c=3 ; d=2")
    assert len(list(assignments(table_row, 50))) == 3


def test_enumerate_lexicographic_multiparam():
    expr = parse("[k,l] ; k in {2,3} ; l in {2,3}")
    combos = [(a["k"], a["l"]) for a in assignments(expr, 10)]
    assert combos == [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_substitution_instances_match_exotic():
    # two distinct decorated rows at k = 3 share the singularity type
    # [2,2,3,(2)_5] + [3,2] but different decorated graphs.
    item_iv = parse(
        "[2@4,2@5,kh@2,2@1,2h@4,2@3,(2)_{k-1}]@2 + [2@1,3h@3@5] ; k>=3 ; width=3"
    )
    d1 = substitute(parse(LEM_W3_I), {"k": 3})
    d2 = substitute(item_iv, {"k": 3})
    assert singularity_type_of(d1) == singularity_type_of(d2)
    assert canonical_form(d1) != canonical_form(d2)
    r2 = width_check(d2)
    assert r2.satisfied and r2.lhs.numerator == 67 and r2.lhs.denominator == 45


def test_width1_check_through_parser():
    d = substitute(parse("[2,2,2,3h,2,2,2] ; width=1"), {})
    res = width_check(d)
    assert not res.satisfied and str(res.lhs) == "1/3"


def test_chains_family_spec_instance():
    # the two-chain family at (a,b,c,d) = (3,2,2,2)
    from delpezzo3 import fixtures

    row = {r.name: r for r in fixtures.load_table("char0")}["w3.chains"]
    d = substitute(row.expr, {"a": 3, "b": 2, "c": 2, "d": 2})
    assert render_singularity_type(singularity_type_of(d)) == "[2,2,2,3,2]+[2,2,3,2,2]"
    assert width_check(d).satisfied


def test_char_tag_is_one_contiguous_run():
    assert parse("[2h] ; width=1 ; char=ne23").char_tag == "ne23"
    assert parse("[2h] ; char= eq3 ; width=1").char_tag == "eq3"
    for text, found, column in [
        ("[2h] ; width=1 ; char=ne2 3", "3", 27),
        ("[2h] ; width=1 ; char=ne 2 3", "2", 26),
    ]:
        with pytest.raises(NotationError) as err:
            parse(text)
        assert str(err.value) == f"trailing input {found!r} (line 1, column {column})"
    for text in ("[2h] ; width=1 ; char=", "[2h] ; char=;width=1", "[2h] ; char=+"):
        with pytest.raises(NotationError) as err:
            parse(text)
        assert str(err.value).startswith("expected a characteristic tag, found ")


def test_bad_characters_keep_their_positions():
    with pytest.raises(NotationError) as err:
        parse("[2,3]\n + [2!]")
    assert str(err.value) == "unexpected character '!' (line 2, column 6)"
    # everything after a # is a comment, on every line
    assert parse("[2] # [!\n!") == parse("[2]")


# -- against the oracle: the parser and substitution before compilation ---------


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the class and message of its error."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def assert_substitutes_like_oracle(expr, assignment):
    assert outcome(substitute, expr, dict(assignment)) == outcome(
        notation_oracle.substitute, expr, dict(assignment)
    ), (render(expr), assignment)


DATA_FILES = sorted(fixtures.DATA_DIR.glob("**/*.types"))


def corpus_texts(monkeypatch) -> list[tuple[str, bool]]:
    """(text, require_declared) for every text the fixture loader parses
    (rows, expanded rows, sing: annotations), and every raw row line and
    sing: annotation of the .types files, placeholders and all."""
    seen = []

    def recording_parse(text, require_declared=True):
        seen.append((text, require_declared))
        return parse(text, require_declared)

    with monkeypatch.context() as m:
        m.setattr(notation, "parse", recording_parse)
        for path in DATA_FILES:
            fixtures.parse_fixture_file(path)
    for path in DATA_FILES:
        for raw in path.read_text().splitlines():
            line = raw.strip()
            sing = re.match(r"#\s*sing:\s*(.*)", line)
            if sing:
                seen.append((sing.group(1).strip(), False))
            elif line and not line.startswith("#"):
                seen.append((line, True))
    return seen


def test_parse_matches_oracle_on_every_corpus_line(monkeypatch):
    texts = corpus_texts(monkeypatch)
    assert len(texts) > 600
    failures = 0
    for text, declared in texts:
        new = outcome(parse, text, declared)
        assert new == outcome(notation_oracle.parse, text, declared), text
        failures += not isinstance(new, TypeExpr)
        if isinstance(new, TypeExpr):
            assert new.parameters() == notation_oracle.parameters(new)
    assert failures  # the raw lines with {T} placeholders


def test_substitute_matches_oracle_on_the_corpus():
    pairs = 0
    for path in DATA_FILES:
        for row in fixtures.parse_fixture_file(path):
            for assignment in itertools.chain([{}], fixtures.row_assignments(row, 12)):
                for expr in (row.expr, row.sing):
                    if expr is not None:
                        assert_substitutes_like_oracle(expr, assignment)
                        pairs += 1
    assert pairs > 2000


def test_assignments_match_oracle_on_the_corpus():
    exprs = 0
    for path in DATA_FILES:
        for row in fixtures.parse_fixture_file(path):
            for expr in (row.expr, row.sing):
                if expr is not None and expr.parameters():
                    exprs += 1
                    for cutoff in range(13):
                        assert (list(assignments(expr, cutoff))
                                == list(notation_oracle.assignments(expr, cutoff))), render(expr)
    assert exprs > 100


def test_substitute_matches_oracle_on_abcd_expression():
    expr = parse(fixtures._ABCD_EXPR)
    count = 0
    for assignment in assignments(expr, 12):
        assert_substitutes_like_oracle(expr, assignment)
        count += 1
    assert count == 11 ** 4


def runs_as_components(runs_per_chain):
    """``chain_runs``' output as the chains ``substitute`` builds: per
    nonempty chain, its weights and its horizontal entries as (index,
    two_section)."""
    out = []
    for runs, marks in runs_per_chain:
        weights, starts = [], []
        for w, n in runs:
            starts.append(len(weights))
            weights += [w] * n
        if weights:
            out.append((weights, [(starts[k], two) for k, two in marks]))
    return out


def chains_of(d):
    return [([e.weight for e in comp[1]],
             [(i, e.two_section) for i, e in enumerate(comp[1]) if e.horizontal])
            for comp in d.components]


def test_chain_runs_read_the_chains_substitute_builds():
    """On every chain-only table row without a ``*``, at every assignment
    to cutoff 6, and on the (a,b,c,d) family on [2,12]^4, the runs expand
    to the chains and marks of ``substitute``, or the reader refuses a
    ``(2)_{-1}`` sentinel, or both refuse the assignment."""
    rows = 0
    for row in itertools.chain(*fixtures.load_all_tables().values()):
        text = render(row.expr)
        if "<" in text or "*" in text or row.abcd_table:
            continue
        rows += 1
        for assignment in fixtures.row_assignments(row, 6):
            try:
                d = substitute(row.expr, assignment)
            except NotationError:
                with pytest.raises(NotationError):
                    chain_runs(row.expr, assignment)
                continue
            try:
                runs = chain_runs(row.expr, assignment)
            except NotationError as exc:  # only a sentinel
                assert "(2)_{-1}" in str(exc), (text, assignment)
                continue
            assert runs_as_components(runs) == chains_of(d), (text, assignment)
    assert rows > 50
    expr = parse(fixtures._ABCD_EXPR)
    for assignment in assignments(expr, 12):
        assert runs_as_components(chain_runs(expr, assignment)) == chains_of(substitute(expr, assignment))


@pytest.mark.parametrize("text, assignment", [
    ("[(2)_{k-2},3,4h] ; k>=1 ; width=1", {"k": 1}),  # the (2)_{-1} sentinel
    ("[2,(2)_{-1},3,4h,(2)_{k}] ; k>=0 ; width=1", {"k": 2}),  # a constant sentinel
    ("[2,3h]*[k,2] ; k>=2 ; width=1", {"k": 2}),  # a * literal
    ("[k,3h] ; k>=0 ; width=1", {"k": 1}),  # a weight below 2
    ("[1,2h,(2)_{k}] ; k>=0 ; width=1", {"k": 2}),  # a constant weight below 2
    ("<2;[2],[2],[k]> ; k>=2 ; width=1", {"k": 2}),  # a fork
    ("<2;[2],[2],[2]> + [k,2h] ; k>=2 ; width=1", {"k": 2}),  # a constant fork
    ("[k,2h] ; k>=3 ; width=1", {"k": 2}),  # a violated constraint
    ("[k,2h] ; k>=2 ; width=1", {}),  # a missing parameter
])
def test_chain_runs_refuse_what_they_do_not_read(text, assignment, monkeypatch):
    """A sentinel, a ``*`` literal, a weight below 2, a fork or an
    assignment ``substitute`` refuses is a ValueError of the runs reader
    itself, which never builds the type instead: ``substitute`` and the
    entry evaluation fail the test if called."""
    expr = parse(text)

    def refuse(*args):
        pytest.fail("chain_runs fell back to building the type")

    monkeypatch.setattr(notation, "substitute", refuse)
    monkeypatch.setattr(notation, "_eval", refuse)
    monkeypatch.setattr(notation._Chain, "build", refuse)
    with pytest.raises(ValueError):
        chain_runs(expr, assignment)


def test_width_override_is_compiled_like_parsed():
    # dp3 check --width builds the TypeExpr directly
    for row in itertools.chain(*fixtures.load_all_tables().values()):
        for width in (None, 0, 1, 2, 3):
            expr = TypeExpr(row.expr.components, row.expr.constraints, width, row.expr.char_tag)
            assert expr.parameters() == row.expr.parameters()
            for assignment in fixtures.row_assignments(row, 4):
                assert_substitutes_like_oracle(expr, assignment)


def test_broken_constant_pieces_fail_where_the_oracle_does():
    # pieces without a parameter that cannot be evaluated are compiled as
    # they are, so that they fail in order with the rest
    for text in [
        "[(2)_{-2},k] ; k>=2",
        "[k]+[2,(2)_{-3}] ; k>=1",
        "[2@1@1@1,k] ; k>=2",
        "[k,2@1@1@1]*[(2)_{k-5}] ; k>=2",
        "<k;[2],[(2)_{-2}],[2]> ; k>=2",
        "<2@4@4@4;[k],[2],[2]> ; k>=2",
        "[(2)_{-1}]*[(2)_{k-2}] ; k>=1",
        "[2]*[(2)_{0}]@1 + [k] ; k>=1",
        "@1[(2)_{-1}]@1@1 + [k] ; k>=1",
    ]:
        expr = parse(text)
        for k in range(1, 5):
            assert_substitutes_like_oracle(expr, {"k": k})


def test_compiled_expression_survives_copy_and_pickle():
    for text in ["[(2)_{-1},3,2]", "[(2)_{-1}]*[3,2]", "[(2)_{k-1},3]*[2@1]@2 ; k>=0"]:
        expr = parse(text)
        for twin in (copy.deepcopy(expr), pickle.loads(pickle.dumps(expr))):
            assert twin == expr
            for k in (0, 1, 3):
                assert outcome(substitute, twin, {"k": k}) == outcome(substitute, expr, {"k": k})


_FRAGMENTS = [
    "[", "]", "<", ">", "{", "}", "(", ")", ",", ";", "@", "*", "+", "=", "-", ">=", "<=",
    "(2)_{", "0", "1", "2", "3", "12", "k", "m", "a", "h", "u", "hu", "kh", "x", "width",
    "char", "in", "ne", "eq", " ", "\n", "\t", "#", "!", "_", "\u0663",
]




# -- generated expressions ---------------------------------------------------------

_params = st.sampled_from("kma")
_labels = st.lists(st.integers(0, 9), max_size=2).map(tuple)
_weight = st.one_of(
    st.builds(IExpr, st.none(), st.sampled_from([2, 2, 3, 4, 12, 23])),
    st.builds(IExpr, _params, st.integers(-3, 3)),
)
_count = st.one_of(
    st.builds(IExpr, st.none(), st.integers(-1, 3)),
    st.builds(IExpr, _params, st.integers(-3, 1)),
)
_entry = st.builds(
    lambda value, marks, labels: EntryExpr(value, marks != "", marks == "hu", labels),
    _weight, st.sampled_from(["", "h", "hu"]), _labels,
)
_lit = st.lists(st.one_of(_entry, _entry, st.builds(RepExpr, _count)), min_size=1, max_size=4).map(tuple)
_labelled = st.one_of(st.just(()), _labels)
_twig = st.builds(TwigExpr, _lit, _labelled, _labelled)
_body = st.one_of(
    st.lists(_lit, min_size=1, max_size=3).map(lambda parts: ChainExprNode(tuple(parts))),
    st.builds(lambda b, twigs: ForkExprNode(b, tuple(twigs)), _entry,
              st.lists(_twig, min_size=3, max_size=3)),
)
_component = st.builds(ComponentExpr, _body, _labelled, _labelled)


def constraints_on(params):
    return st.one_of(
        st.builds(lambda p, op, v: Constraint(p, op, (v,)), params,
                  st.sampled_from([">=", "<=", "="]), st.integers(1, 5)),
        st.builds(lambda p, vs: Constraint(p, "in", tuple(vs)), params,
                  st.lists(st.integers(0, 5), min_size=1, max_size=3)),
    )


@st.composite
def type_exprs(draw):
    """Expressions whose every parameter has a constraint, as parse needs."""
    components = tuple(draw(st.lists(_component, min_size=1, max_size=3)))
    params = TypeExpr(components).parameters()
    constraints = [draw(constraints_on(st.just(p))) for p in params]
    constraints += draw(st.lists(constraints_on(_params), max_size=2))
    width = draw(st.one_of(st.none(), st.integers(0, 3)))
    char_tag = draw(st.sampled_from(["any", "any", "ne2", "eq2", "ne23", "eq3", "x", "a0", "q12b"]))
    return TypeExpr(components, tuple(constraints), width, char_tag)


def assert_parses_like_oracle(text):
    for declared in (True, False):
        new = outcome(parse, text, declared)
        assert new == outcome(notation_oracle.parse, text, declared)
        if isinstance(new, TypeExpr):
            assert_substitutes_like_oracle(new, dict.fromkeys(new.parameters(), 2))


@settings(max_examples=1000, deadline=None, derandomize=True)
@example(text="[2h] ; width=1 ; char=")
@example(text="[2h] ; char=ne2 3")
@example(text="[(2)_{-1}]*[2] # c\n!")
@example(text="[2x,3hu@1] + [kq@2] ; k>=2")
@given(text=st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_parse_fuzz_matches_oracle(text):
    assert_parses_like_oracle(text)


@st.composite
def near_valid_texts(draw):
    """The rendering of a generated expression with up to three spans
    replaced by a fragment or deleted."""
    text = render(draw(type_exprs()))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.sampled_from(_FRAGMENTS + [""])) + text[end:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=near_valid_texts())
def test_parse_fuzz_near_valid_matches_oracle(text):
    assert_parses_like_oracle(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=type_exprs())
def test_parse_render_round_trip(expr):
    assert parse(render(expr)) == expr


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=type_exprs(), values=st.lists(st.integers(-1, 5), min_size=3, max_size=3))
def test_substitute_generated_matches_oracle(expr, values):
    for assignment in itertools.islice(assignments(expr, 5), 4):
        assert_substitutes_like_oracle(expr, assignment)
    assignment = dict(zip("kma", values))
    assert_substitutes_like_oracle(expr, assignment)
    if expr.parameters():  # one value missing
        del assignment[expr.parameters()[-1]]
        assert_substitutes_like_oracle(expr, assignment)


_bound = st.integers(-2, 15)  # below 2 and above every cutoff drawn
_constraints = st.lists(st.one_of(
    st.builds(lambda p, op, v: Constraint(p, op, (v,)), st.sampled_from("kmab"),
              st.sampled_from([">=", "<=", "="]), _bound),
    st.builds(lambda p, vs: Constraint(p, "in", tuple(vs)), st.sampled_from("kmab"),
              st.lists(_bound, min_size=1, max_size=4)),
), max_size=6)


def constraint_set(text):
    return tuple(parse(f"[2] ; {text}", False).constraints)


@settings(max_examples=600, deadline=None, derandomize=True)
@example(params={"k"}, constraints=constraint_set("k=3 ; k=3"), cutoff=5)
@example(params={"k"}, constraints=constraint_set("k in {4,3,4} ; k=3"), cutoff=5)
@example(params={"k"}, constraints=constraint_set("k=3 ; k in {4,5}"), cutoff=5)
@example(params={"k"}, constraints=constraint_set("k>=5 ; k<=3"), cutoff=12)
@example(params={"k", "m"}, constraints=constraint_set("k>=0 ; m in {0,1,2,20}"), cutoff=4)
@example(params={"k"}, constraints=constraint_set("k=20 ; k>=2"), cutoff=12)
@given(params=st.sets(st.sampled_from("kma"), min_size=1), constraints=_constraints,
       cutoff=st.integers(0, 12))
def test_assignments_match_oracle_on_generated_constraints(params, constraints, cutoff):
    components = parse("+".join(f"[{p}]" for p in sorted(params)), False).components
    expr = TypeExpr(components, tuple(constraints))
    assert list(assignments(expr, cutoff)) == list(notation_oracle.assignments(expr, cutoff))
