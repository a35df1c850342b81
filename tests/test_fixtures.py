from fractions import Fraction

from delpezzo3 import fixtures, notation
from delpezzo3.boundary import width_check


def test_roundtrip_full_corpus():
    # parse -> render -> parse is the identity on every fixture expression
    for stem in fixtures.TABLE_STEMS:
        for row in fixtures.load_table(stem):
            assert notation.parse(notation.render(row.expr)) == row.expr
            if row.sing is not None:
                rendered = notation.render(row.sing)
                assert notation.parse(rendered, require_declared=False) == row.sing
    for row in fixtures.load_negative():
        assert notation.parse(notation.render(row.expr)) == row.expr


def test_negative_fixtures_fail_with_quoted_values():
    rows = fixtures.load_negative()
    assert len(rows) >= 12
    quoted = {Fraction(x) for x in
              ("1", "11/13", "1/3", "25/31", "5/7", "186/221", "592/649", "87/119")}
    seen = set()
    for row in rows:
        d = notation.substitute(row.expr, {})
        res = width_check(d)
        assert not res.satisfied, row.name
        assert res.lhs == row.lhs, (row.name, str(res.lhs))
        seen.add(res.lhs)
    assert quoted <= seen


def test_table1_boxes_disjoint():
    boxes = fixtures.load_abcd_table()
    assert len(boxes) == 17
    seen = {}
    for i, box in enumerate(boxes):
        for sol in box.expand(50):
            assert sol not in seen, (sol, i, seen[sol])
            seen[sol] = i


def test_chain_family_directive_expansion():
    rows = [r for r in fixtures.load_table("char0") if r.name.startswith("w3.ht=3_XY_b=3(")]
    choices = {r.chain_choice for r in rows}
    assert choices == {"[2]", "[3]", "[2,2]", "[4]", "[2,2,2]", "[5]",
                       "[2,3]", "[3,2]", "[2,2,2,2]"}


def test_abcd_enumeration_matches_table():
    assert fixtures.abcd_enumerate(12) == fixtures.abcd_solutions(12)
    sols = fixtures.abcd_enumerate(10)
    assert all(t[:2] != (2, 2) for t in sols)
    assert (3, 2, 2, 2) in sols


def test_fixture_directory_override(tmp_path, monkeypatch):
    custom = tmp_path / "tables"
    custom.mkdir()
    (custom / "char0.types").write_text("# name: only\n[2,3h,2,2,2]+[3,2h,2,2]+[2h] ; width=3\n")
    monkeypatch.setenv("DP_FIXTURES", str(tmp_path))
    rows = fixtures.load_table("char0")
    assert len(rows) == 1 and rows[0].name == "only"


def test_root_filter_parses_only_its_rows():
    """Parsing with a root gives the rows of a full parse that name it,
    for every root in the tables that name roots, and none for a root no
    row names."""
    for stem in ("char0", "char3"):
        rows = fixtures.load_table(stem)
        for root in {r.root for r in rows} | {"w2x2b", "none"}:
            assert fixtures.load_table(stem, root) == [r for r in rows if r.root == root]


def test_root_filter_keeps_the_numbering_of_unnamed_rows(tmp_path):
    """An unnamed row is named by its place among all rows of the file,
    an expanded row counting once per chain, with or without the filter."""
    path = tmp_path / "mixed.types"
    path.write_text(
        "# root: w3a\n[2h,3h,2h] ; width=3\n"
        "# root: w3b\n# expand: d(T)<=3\n{T}+[2h,3h,2h] ; width=3\n"
        "[2h,2h,2h] ; width=3\n"
        "# root: w3a\n# name: named\n[2h,4h,2h] ; width=3\n"
        "# root: w3b\n[3h,2h,3h] ; width=3\n"
        "# root: w3a\n[3h,3h,3h] ; width=3\n"
    )
    rows = fixtures.parse_fixture_file(path)
    assert [r.name for r in rows] == [
        "mixed:1", "mixed:2(T=[2])", "mixed:2(T=[3])", "mixed:2(T=[2,2])", "mixed:5",
        "named", "mixed:7", "mixed:8",
    ]
    for root in ("w3a", "w3b"):
        assert fixtures.parse_fixture_file(path, root) == [r for r in rows if r.root == root]
    assert [r.name for r in fixtures.parse_fixture_file(path, "w3a")] == ["mixed:1", "named", "mixed:8"]


def test_abcd_family_is_the_abcd_table_row():
    """``enum-abcd`` reads the (a,b,c,d) family from ``fixtures._ABCD_EXPR``
    and ``verify-tables`` from the one ``abcd-table: 1`` row of char0,
    ``w3.chains``; both parse to one type expression."""
    rows = [r for r in fixtures.load_table("char0") if r.abcd_table]
    assert [r.name for r in rows] == ["w3.chains"]
    assert rows[0].expr == notation.parse(fixtures._ABCD_EXPR)
