import pytest

from delpezzo3.boundary import (
    canonical_form,
    render_singularity_type,
    singularity_type_of,
    width_check,
)
from delpezzo3.notation import (
    NotationError,
    assignments,
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
