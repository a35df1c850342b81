import itertools
import re
from fractions import Fraction

import pytest

import fixtures_oracle as oracle
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


def test_abcd_enumeration_matches_table_at_cap_1000():
    solutions = fixtures.abcd_enumerate(1000)
    assert solutions == fixtures.abcd_solutions(1000)
    assert len(solutions) == 3033


def test_abcd_passes_matches_the_oracle():
    """The run-continuant verdict is ``width_check(substitute(...))``'s on
    every point of [2,12]^4."""
    points = list(itertools.product(range(2, 13), repeat=4))
    assert [fixtures.abcd_passes(*p) for p in points] == [oracle.abcd_passes(*p) for p in points]


@pytest.mark.parametrize("cap", [50, 400])
def test_abcd_enumerate_matches_the_oracle_scan(cap):
    assert fixtures.abcd_enumerate(cap) == oracle.abcd_enumerate(cap)


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


# -- the one-grammar readers against the readers they replaced -------------------


def bundled_expand_specs():
    """The spec of every ``expand:`` directive in the bundled corpus."""
    return [line.split("expand:", 1)[1].strip()
            for path in sorted(fixtures.DATA_DIR.rglob("*.types"))
            for line in path.read_text().splitlines()
            if line.startswith("#") and re.match(r"#\s*expand:", line)]


def test_chain_family_matches_the_oracle_on_the_bundled_directives():
    specs = bundled_expand_specs()
    assert len(specs) == 11 and "d(T) in {4,5}, T != (2)_l" in specs
    for spec in specs:
        assert fixtures._chain_family(spec) == oracle.chain_family(spec), spec


def test_chain_family_matches_the_oracle_on_a_grid():
    """``<=``, ``=`` and ``in`` with bounds 0 to 7, with and without the
    exclusion clause, with and without spaces: equal lists, equal order."""
    sets = ["{" + ",".join(map(str, ds)) + "}"
            for k in (1, 2) for ds in itertools.combinations(range(8), k)]
    for body in [f"<={n}" for n in range(8)] + [f"={n}" for n in range(8)] + [
            f" in {s}" for s in sets]:
        for tail in ("", ", T != (2)_l"):
            spaced = "d(T)" + body + tail
            for spec in (spaced, spaced.replace(" ", ""), spaced.replace(",", " , ")):
                assert fixtures._chain_family(spec) == oracle.chain_family(spec), spec
    assert fixtures._chain_family("d(T) in {3,5,4}, T != (2)_l") == [
        (3,), (4,), (5,), (2, 3), (3, 2)]


@pytest.mark.parametrize("spec", [
    "d(T)<=x", "d(T)<5", "d(T) in {}", "d(T) in {4,}", "d(T)<=3, T != (2)_k", ""])
def test_malformed_chain_families_are_value_errors(spec):
    for read in (fixtures._chain_family, oracle.chain_family):
        with pytest.raises(ValueError):
            read(spec)


def test_exclusion_clause_needs_its_comma():
    """The one intended difference: the old reader cut ``T!=(2)_l`` out
    wherever it stood, so it took the clause without its comma."""
    spec = "d(T)<=3T!=(2)_l"
    assert oracle.chain_family(spec) == [(3,)]
    with pytest.raises(ValueError):
        fixtures._chain_family(spec)


def test_abcd_table_matches_the_oracle():
    text = (fixtures.DATA_DIR / "fixtures" / "table1_abcd.txt").read_text()
    boxes = fixtures.load_abcd_table()
    assert [(box.lo, box.hi) for box in boxes] == oracle.abcd_table(text)
    for cap in (2, 7):  # 7 clips the box 6..8 and the unbounded ones
        for box in boxes:
            assert list(box.expand(cap)) == [
                t for t in itertools.product(range(cap + 1), repeat=4)
                if all(l <= x and (h is None or x <= h) for l, x, h in zip(box.lo, t, box.hi))]


@pytest.mark.parametrize("line", [
    "2 3 3", "2 3 3 3 9", "1..2..3 2 2 2", "..5 2 2 2", "x 2 2 2", "2 3 x 4"])
def test_malformed_abcd_lines_are_value_errors(line, tmp_path, monkeypatch):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "table1_abcd.txt").write_text(f"# a comment\n\n3..inf 2 2 2\n{line}\n")
    monkeypatch.setenv("DP_FIXTURES", str(tmp_path))
    with pytest.raises(ValueError):
        fixtures.load_abcd_table()


def test_data_lines_skip_blank_and_comment_lines(tmp_path, monkeypatch):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "m.txt").write_text("# head\n 1 2 \n\n  # indented\n3 -4\n")
    monkeypatch.setenv("DP_FIXTURES", str(tmp_path))
    assert fixtures._data_lines("m") == ["1 2", "3 -4"]
    assert fixtures.load_matrix("m") == [[1, 2], [3, -4]]


@pytest.mark.parametrize("lhs", ["1/0", "x", ""])
def test_malformed_lhs_is_a_value_error(lhs, tmp_path):
    path = tmp_path / "bad.types"
    path.write_text(f"# lhs: {lhs}\n[2h,3h,2h] ; width=3\n")
    with pytest.raises(ValueError):
        fixtures.parse_fixture_file(path)
