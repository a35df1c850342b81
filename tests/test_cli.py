import csv
import io
import shutil
import signal
from contextlib import contextmanager

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from delpezzo3.cli import main
from delpezzo3 import fixtures, verify


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_apart(*args):
    """``run`` with stdout and stderr kept apart, as click 8.2 and later
    always keep them."""
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:
        runner = CliRunner()
    return runner.invoke(main, list(args))


def test_dual_and_ld():
    assert run("dual", "[3]").output.strip() == "[2,2]"
    assert run("dual", "[2,3]").output.strip() == "[2,3]"
    assert run("ld", "[2,2,3,2,2,2,2,2]", "6").output.strip() == "2/3"
    assert run("ld", "[2,2,3,2,2,2,2,2]", "4").output.strip() == "4/9"


def test_homology_command():
    assert run("homology", "--fixture", "1").output.strip() == "Z/3"
    assert run("homology", "--fixture", "2").output.strip() == "0"
    assert run("homology", "--construct", "x1").output.strip() == "Z/3"
    assert run("homology", "--construct", "x2").output.strip() == "0"


def test_exit_codes():
    assert run("check", "[2,,3]").exit_code == 2
    assert run("check", "[2]").exit_code == 2  # no width data
    neg = fixtures.data_dir() / "fixtures" / "negative.types"
    assert run("check", str(neg)).exit_code == 0
    assert run("check", str(neg), "--strict").exit_code == 1
    assert run("parse", "[2@").exit_code == 2
    for position in ("0", "3"):
        res = run_apart("ld", "[2,2]", position)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"position {position} out of range for chain of length 2\n"


def test_check_single_expression():
    res = run("check", "[2,2,2,3h,2,3hu,2] ; width=2")
    assert res.exit_code == 0
    assert "11/13" in res.output and "FAIL" in res.output


def test_csv_markdown_identical_data():
    args = ["check", "[2@1,2h@5,3@2,2h@4,2@1,2h@3,2@5,2@4]+@2[2,3]@3 ; width=3"]
    csv_out = run(*args, "--format", "csv").output
    md_out = run(*args, "--format", "markdown").output
    csv_rows = [
        row
        for row in csv.reader(io.StringIO(csv_out))
        if row and not row[0].startswith("#")
    ][1:]
    md_rows = []
    for line in md_out.splitlines():
        if line.startswith("|") and not set(line) <= {"|", "-", " "}:
            cells = [c.strip() for c in line.strip("|").split("|")]
            md_rows.append(cells)
    assert md_rows[0] == ["name", "assignment", "admissible", "lhs", "satisfied", "status"]
    assert [list(r) for r in csv_rows] == md_rows[1:]
    assert "5/3" in csv_out


def test_simulate_command():
    plan = fixtures.data_dir() / "plans" / "ex31a.plan"
    res = run("simulate", str(plan))
    assert res.exit_code == 0
    assert "sigma-identity,yes" in res.output
    assert "vertically-primitive,yes" in res.output


def test_enum_abcd_small():
    res = run("enum-abcd", "--max", "12")
    assert res.exit_code == 0
    assert "# PASS: 17" in res.output


def test_parse_command():
    res = run("parse", "<2;[2],[2],[2]>")
    assert "graph automorphisms: 6" in res.output
    res2 = run("parse", "[k] ; k>=2")
    assert "parameters: k" in res2.output


def test_parse_label_cycle_automorphisms():
    """Eight identical chains that labels link into one cycle."""
    res = run("parse", "+".join(f"[2@{i},2@{i % 8 + 1}]" for i in range(1, 9)))
    assert res.exit_code == 0
    assert "graph automorphisms: 16" in res.output


def test_verify_tables_moduli():
    res = run("verify-tables", "--table", "char2_moduli", "--cutoff", "6")
    assert res.exit_code == 0
    assert "FAIL" not in res.output


def test_cascade_command_small():
    res = run("cascade", "--root", "w1b", "--depth", "2", "--cutoff", "3")
    assert res.exit_code == 0
    assert "MATCHED" in res.output


def test_cascade_digest_column_is_distinct():
    res = run("cascade", "--root", "w1b", "--depth", "3")
    rows = [
        row
        for row in csv.reader(io.StringIO(res.output))
        if row and not row[0].startswith("#")
    ][1:]
    digests = [row[0] for row in rows]
    assert len(digests) == 42
    assert len(set(digests)) == len(digests)
    assert all(len(d) == 16 for d in digests)


def plan_file(tmp_path, text):
    path = tmp_path / "bad.plan"
    path.write_text(text)
    return str(path)


def assert_one_line_error(res, code, prefix):
    assert res.exit_code == code, res.output
    assert res.output.startswith(prefix) and res.output.count("\n") == 1, res.output
    assert "Traceback" not in res.output


def test_simulate_plan_errors_exit_2(tmp_path):
    good = (fixtures.data_dir() / "plans" / "ex31a.plan").read_text()
    broken = {
        "selfint": good.replace("curve V1 selfint 0", "curve V1 selfint x"),
        "width": good.replace("width=3", "width=three"),
        "short line": good.replace("curve V1 selfint 0", "curve V1"),
        "no width": good.replace("width=3 ", ""),
        "curve twice": good.replace("curve V1 selfint 0", "curve V1 selfint 0\ncurve V1 selfint 0"),
        "point twice": good.replace("point p12 on V1,H2", "point p11 on V1,H2"),
        "curve twice at a point": good.replace("point p12 on V1,H2", "point p12 on V1,V1"),
    }
    for name, text in broken.items():
        res = run("simulate", plan_file(tmp_path, text))
        assert_one_line_error(res, 2, "plan error:")
    not_utf8 = tmp_path / "latin1.plan"
    not_utf8.write_bytes(b"\xff" + good.encode())
    assert_one_line_error(run("simulate", str(not_utf8)), 2, "plan error:")
    res = run("simulate", str(tmp_path))  # a directory is a usage error
    assert res.exit_code == 2 and "directory" in res.output, res.output
    assert "Traceback" not in res.output


def test_simulate_width_mismatch_is_one_line(tmp_path):
    good = (fixtures.data_dir() / "plans" / "ex31a.plan").read_text()
    res = run("simulate", plan_file(tmp_path, good.replace("width=3", "width=2")))
    assert_one_line_error(res, 1, "simulation error:")
    assert "horizontal marks" in res.output


def test_negative_counts_are_usage_errors():
    for args in (
        ("cascade", "--root", "w1b", "--depth", "-1"),
        ("cascade", "--root", "w1b", "--cutoff", "-1"),
        ("check", "[2h]+[2h]+[2h];width=3", "--cutoff", "-1"),
        ("verify-tables", "--table", "char2_moduli", "--cutoff", "-1"),
        ("verify-tables", "--table", "char2_moduli", "--cascade-depth", "-1"),
        ("enum-abcd", "--max", "-1"),
    ):
        res = run(*args)
        assert res.exit_code == 2, args
        assert "Traceback" not in res.output
    assert run("cascade", "--root", "w1b", "--depth", "0").exit_code == 0


def test_empty_char_tag_is_a_parse_error():
    # the tag loop used to peek past the end of the input: an IndexError
    assert_one_line_error(run("check", "[2h] ; width=1 ; char="), 2, "parse error:")
    assert_one_line_error(run("parse", "[2h] ; char= ; width=1"), 2, "parse error:")


def test_check_on_a_directory_is_a_parse_error(tmp_path):
    # "" names the current directory
    for source in (str(tmp_path), ""):
        assert_one_line_error(run("check", source), 2, "parse error:")


def test_check_width_with_a_file_is_a_usage_error():
    table = str(fixtures.data_dir() / "tables" / "char3.types")
    res = run("check", table, "--cutoff", "3", "--width", "1")
    assert res.exit_code == 2 and "Usage:" in res.output and "--width" in res.output
    assert "Traceback" not in res.output and "# command: check" not in res.output
    assert run("check", table, "--cutoff", "3").exit_code == 0
    assert run("check", "[2,2,2,3h,2,2,2]", "--width", "1").exit_code == 0


# -- malformed type text: exit 0, 1 or 2, never a traceback --------------------

_marks = st.sampled_from(["", "h", "u", "hu"])
_entry = st.builds(
    lambda w, m, labels: f"{w}{m}" + "".join(f"@{l}" for l in labels),
    st.integers(0, 5), _marks, st.lists(st.integers(1, 3), max_size=4),
)
_chain = st.lists(_entry, min_size=1, max_size=4).map(lambda es: "[" + ",".join(es) + "]")
_fork = st.builds(lambda b, t1, t2, t3: f"<{b};{t1},{t2},{t3}>", _entry, _chain, _chain, _chain)
_type_text = st.builds(
    lambda comps, width: "+".join(comps) + ("" if width is None else f";width={width}"),
    st.lists(st.one_of(_chain, _fork), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(0, 5)),
)


@settings(max_examples=150, deadline=None)
@example(text="[2]+[2];width=5", position=1)
@example(text="[2h@1@1@1@1];width=1", position=1)
@example(text="[2,0u]", position=1)
@example(text="<2;[2],[2],[2]>", position=1)
@example(text="+".join(["[2,2]"] * 60), position=1)  # too long for a file name
@given(text=_type_text, position=st.integers(0, 5))
def test_type_text_commands_exit_cleanly(text, position):
    for args in (("check", text), ("parse", text), ("dual", text), ("ld", text, str(position))):
        res = run(*args)
        assert res.exit_code in (0, 1, 2), (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)


def test_validation_errors_are_parse_errors():
    for args in (
        ("check", "[2]+[2];width=5"),
        ("check", "[2h@1@1@1@1];width=1"),
        ("parse", "[2,0u]"),
        ("dual", "<2;[2],[2],[2]>"),
        ("ld", "[2h@1@1@1@1]", "1"),
        ("dual", "[2]+[3]"),
        ("ld", "[2,3]+[5]", "1"),
    ):
        assert_one_line_error(run(*args), 2, "parse error:")


# -- --jobs changes no output --------------------------------------------------


def test_jobs_do_not_change_output():
    for args in (
        ("verify-tables", "--table", "char3", "--cutoff", "6", "--cascade-depth", "3"),
        ("cascade", "--root", "w1b", "--depth", "3"),
        ("cascade", "--root", "w3b", "--depth", "5"),
    ):
        one, two = run(*args, "--jobs", "1"), run(*args, "--jobs", "2")
        assert one.exit_code == two.exit_code == 0
        assert one.stdout_bytes == two.stdout_bytes


def test_cascade_output_is_the_same_with_every_table_row(monkeypatch):
    """``dp3 cascade`` parses only its root's table rows, and prints the
    same bytes as when it parses all of them, for every root."""
    filtered = {}
    for name in verify.ROOTS:
        result = run("cascade", "--root", name, "--depth", "3")
        assert result.exit_code == 0
        filtered[name] = result.stdout_bytes
    load_all_tables = fixtures.load_all_tables
    monkeypatch.setattr(fixtures, "load_all_tables", lambda stems, root=None: load_all_tables(stems))
    for name in verify.ROOTS:
        result = run("cascade", "--root", name, "--depth", "3")
        assert result.exit_code == 0
        assert result.stdout_bytes == filtered[name], name


# -- targets beyond --cascade-depth are counted -----------------------------------


def test_cascade_beyond_counts_targets_past_the_depth():
    tables = fixtures.load_all_tables(("char0",))
    roots = [verify.load_root(name) for name in verify.table_roots(tables)]
    # at depth 1, w2b, w2c, w3a and w3b have every target beyond it
    for depth in ("1", "2"):
        res = run("verify-tables", "--table", "char0", "--cutoff", "12",
                  "--cascade-depth", depth)
        assert res.exit_code == 0, res.output
        counted = {}
        for line in res.output.splitlines():
            if line.startswith("# cascade-beyond["):
                key, n = line[2:].split(": ")
                counted[key] = int(n)
        expected, no_target = {}, set()
        for root in roots:
            targets, beyond = verify.cascade_targets(tables, root, 12, int(depth))
            if beyond:
                expected[f"cascade-beyond[{root.name}]"] = beyond
            if beyond and not targets:
                no_target.add(root.name)
        assert counted == expected
        assert no_target == ({"w2b", "w2c", "w3a", "w3b"} if depth == "1" else set())
    assert "cascade-beyond" not in run("verify-tables", "--table", "char0").output


def summary_counts(output: str) -> dict:
    """The ``# name: n`` summary lines of a CSV report, as integers."""
    return {key: int(n) for key, _, n in
            (line[2:].partition(": ") for line in output.splitlines() if line.startswith("# "))
            if n.isdigit()}


def test_cascade_extra_leaves_out_the_root():
    """``cascade-extra[<root>]`` counts the cascade nodes other than the
    root that match no table instance.  ``cascade`` counts the root among
    its EXTRA nodes only when it matches none: w1b's root is no instance,
    and w1c3's is the row w1c3.w=1_0_id."""
    res = run("verify-tables", "--table", "char3", "--cutoff", "6", "--cascade-depth", "2")
    assert res.exit_code == 0, res.output
    counts = summary_counts(res.output)
    assert (counts["cascade-extra[w1b]"], counts["cascade-extra[w1c3]"]) == (5, 3)
    for root, root_match in (("w1b", "EXTRA"), ("w1c3", "w1c3.w=1_0_id")):
        res = run("cascade", "--root", root, "--depth", "2", "--cutoff", "6")
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in res.output.splitlines() if not line.startswith("#")]
        assert [row[-1] for row in rows[1:] if row[1] == "0"] == [root_match]
        extra = summary_counts(res.output)["EXTRA"]
        assert counts[f"cascade-extra[{root}]"] == extra - (root_match == "EXTRA")


def report_rows(output: str) -> dict:
    """The data rows of a CSV report, keyed by (name, assignment)."""
    rows = list(csv.reader(io.StringIO(output)))
    return {tuple(row[:2]): row for row in rows[2:] if not row[0].startswith("#")}


def test_check_file_differs_from_verify_tables_only_as_documented(tmp_path, monkeypatch):
    """``check FILE`` runs the width criterion on every instance of a
    table; ``verify-tables`` also compares each row's ``sing:`` annotation
    and passes the ``nonlt_char2`` rows when log canonical and not
    admissible.  At cutoff 6 the two agree row for row, status and lhs, on
    the other four tables, and disagree on every ``nonlt_char2`` instance."""
    sizes = {"char0": 174, "char3": 45, "char2_moduli": 23, "char2": 383, "nonlt_char2": 30}
    for stem, size in sizes.items():
        path = fixtures.data_dir() / "tables" / f"{stem}.types"
        checked = report_rows(run("check", str(path), "--cutoff", "6").output)
        verified = report_rows(run("verify-tables", "--table", stem, "--cutoff", "6").output)
        assert checked.keys() == verified.keys() and len(checked) == size, stem
        for key, (_, _, admissible, lhs, satisfied, status) in checked.items():
            if stem == verify.LC_ONLY_STEM:
                assert (admissible, lhs, status) == ("no", "", "FAIL"), key
                assert verified[key][2:4] == ["", "PASS"], key
            else:
                assert verified[key][2:4] == [lhs, status] == [lhs, "PASS"], key

    # a wrong ``sing:`` annotation fails verify-tables, and check passes its row
    data = tmp_path / "data"
    shutil.copytree(fixtures.DATA_DIR, data)
    monkeypatch.setenv("DP_FIXTURES", str(data))
    table = data / "tables" / "char3.types"
    text = table.read_text()
    annotation = "# sing: [2,2]+[2,2]+[2,2]+[3]+[3]+[3]+[3]\n"  # of w1c3.w=1_0_id
    assert text.count(annotation) == 1
    table.write_text(text.replace(annotation, "# sing: [2]\n"))
    res = run("verify-tables", "--table", "char3", "--cutoff", "6")
    assert res.exit_code == 1 and "singularity type mismatch" in res.output
    res = run("check", str(table), "--cutoff", "6", "--strict")
    assert res.exit_code == 0 and "FAIL" not in res.output


# -- distinctness on a copy of the corpus ---------------------------------------


def test_distinctness_on_a_copied_corpus(tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(fixtures.DATA_DIR, data)
    monkeypatch.setenv("DP_FIXTURES", str(data))
    res = run("verify-tables", "--table", "all", "--cutoff", "12")
    assert res.exit_code == 0
    assert "# documented-coincidence: 2\n" in res.output
    assert "# duplicate-presentation: 2\n" in res.output
    assert "distinctness" not in res.output

    table = data / "tables" / "char0.types"
    text = table.read_text()
    assert text.count("# name: w3.rivet_A\n") == 1
    table.write_text(text.replace("# name: w3.rivet_A\n", "# name: w3.rivet_A_renamed\n"))
    res = run("verify-tables", "--table", "all", "--cutoff", "12")
    assert res.exit_code == 1
    assert "# documented-coincidence: 1\n" in res.output
    fail_rows = [line for line in res.output.splitlines() if line.startswith("distinctness,")]
    assert len(fail_rows) == 1
    assert fail_rows[0].endswith(",,FAIL,w3.rivet_A_renamed k=3; w3.nu_3=1_c2 k=3")


# -- malformed data under DP_FIXTURES is a parse error in every command --------


def truncate(path, marker):
    """Cut the file at ``path`` just before the first ``marker``."""
    text = path.read_text()
    assert marker in text, marker
    path.write_text(text[:text.index(marker)])


def append(path, text):
    path.write_text(path.read_text() + text)


def replace_once(path, old, new):
    text = path.read_text()
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new))


CORRUPTIONS = {
    "verify-tables row": (
        lambda d: append(d / "tables" / "char3.types", "[2,,3]\n"),
        ("verify-tables", "--table", "char3", "--cutoff", "3")),
    "verify-tables root cut in its type": (
        lambda d: truncate(d / "primitive" / "w1_b.types", "2@1,2]"),
        ("verify-tables", "--table", "char3", "--cutoff", "3", "--cascade-depth", "1")),
    "verify-tables root cut before its type": (
        lambda d: truncate(d / "primitive" / "w1_b.types", "[3@1]"),
        ("verify-tables", "--table", "char3", "--cutoff", "3", "--cascade-depth", "1")),
    "cascade row of its root": (
        lambda d: append(d / "tables" / "char3.types", "# root: w1b\n[2,,3]\n"),
        ("cascade", "--root", "w1b", "--depth", "1")),
    "cascade root cut in its type": (
        lambda d: truncate(d / "primitive" / "w3_b.types", "2@4,2@5]"),
        ("cascade", "--root", "w3b", "--depth", "1")),
    "enum-abcd field": (
        lambda d: append(d / "fixtures" / "table1_abcd.txt", "2 3 x 4\n"),
        ("enum-abcd", "--max", "3")),
    "enum-abcd five fields": (
        lambda d: append(d / "fixtures" / "table1_abcd.txt", "2 3 3 3 9\n"),
        ("enum-abcd", "--max", "10")),
    "homology matrix row": (
        lambda d: append(d / "fixtures" / "exotic_matrix_1.txt", "1 x\n"),
        ("homology", "--fixture", "1")),
    "homology ragged matrix": (
        lambda d: append(d / "fixtures" / "exotic_matrix_1.txt", "1 0\n"),
        ("homology", "--fixture", "1")),
    "homology plan": (
        lambda d: replace_once(d / "plans" / "x1.plan", "curve V1 selfint 0", "curve V1 selfint x"),
        ("homology", "--construct", "x1")),
    "verify-tables table deleted": (
        lambda d: (d / "tables" / "char3.types").unlink(),
        ("verify-tables", "--table", "char3", "--cutoff", "3")),
    "verify-tables root deleted": (
        lambda d: (d / "primitive" / "w1_b.types").unlink(),
        ("verify-tables", "--table", "char3", "--cutoff", "3", "--cascade-depth", "1")),
    "cascade table deleted": (
        lambda d: (d / "tables" / "char0.types").unlink(),
        ("cascade", "--root", "w1b", "--depth", "1")),
    "cascade root deleted": (
        lambda d: (d / "primitive" / "w3_b.types").unlink(),
        ("cascade", "--root", "w3b", "--depth", "1")),
    "enum-abcd table deleted": (
        lambda d: (d / "fixtures" / "table1_abcd.txt").unlink(),
        ("enum-abcd", "--max", "3")),
    "homology matrix deleted": (
        lambda d: (d / "fixtures" / "exotic_matrix_1.txt").unlink(),
        ("homology", "--fixture", "1")),
    "homology plan deleted": (
        lambda d: (d / "plans" / "x1.plan").unlink(),
        ("homology", "--construct", "x1")),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_malformed_fixture_data_is_a_parse_error(case, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(fixtures.DATA_DIR, data)
    monkeypatch.setenv("DP_FIXTURES", str(data))
    corrupt, args = CORRUPTIONS[case]
    assert run(*args).exit_code == 0
    corrupt(data)
    assert_one_line_error(run(*args), 2, "parse error:")


@pytest.mark.parametrize("plan, old, new", [
    ("x1", "blowup p13", "blowup p99"),  # a point that no curve carries
    ("x2", "base P1xP1", "base P2"),  # a base whose degree cannot be inferred
])
def test_homology_replay_errors_are_one_line(plan, old, new, tmp_path, monkeypatch):
    """A construction plan that parses but does not replay is one
    ``simulation error:`` line and exit 1, as in ``simulate``."""
    data = tmp_path / "data"
    shutil.copytree(fixtures.DATA_DIR, data)
    monkeypatch.setenv("DP_FIXTURES", str(data))
    replace_once(data / "plans" / f"{plan}.plan", old, new)
    assert_one_line_error(run("homology", "--construct", plan), 1, "simulation error:")


def test_check_reads_malformed_data_as_a_parse_error(tmp_path, monkeypatch):
    """An lhs that ``Fraction`` rejects, a zero denominator included, and
    an abcd-table row over a malformed or a deleted (a,b,c,d) table."""
    data = tmp_path / "data"
    shutil.copytree(fixtures.DATA_DIR, data)
    monkeypatch.setenv("DP_FIXTURES", str(data))
    for lhs in ("1/0", "x"):
        path = tmp_path / "lhs.types"
        path.write_text(f"# lhs: {lhs}\n[2h,3h,2h] ; width=3\n")
        assert_one_line_error(run("check", str(path)), 2, "parse error:")
    path = tmp_path / "abcd.types"
    path.write_text(f"# abcd-table: 1\n{fixtures._ABCD_EXPR}\n")
    assert run("check", str(path), "--cutoff", "3").exit_code == 0
    append(data / "fixtures" / "table1_abcd.txt", "2 3 x 4\n")
    assert_one_line_error(run("check", str(path), "--cutoff", "3"), 2, "parse error:")
    (data / "fixtures" / "table1_abcd.txt").unlink()
    assert_one_line_error(run("check", str(path), "--cutoff", "3"), 2, "parse error:")


# -- --jobs is at least 1 and capped at the core count ---------------------------


def test_jobs_below_one_are_usage_errors():
    for jobs in ("0", "-1"):
        for args in (
            ("cascade", "--root", "w1b", "--depth", "1"),
            ("verify-tables", "--table", "char2_moduli", "--cutoff", "3"),
        ):
            res = run(*args, "--jobs", jobs)
            assert res.exit_code == 2, (args, jobs)
            assert "Traceback" not in res.output


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and
    runs the work in this process, so no pool is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def test_pool_is_capped_at_the_core_count(monkeypatch):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for args in (
        ("cascade", "--root", "w1b", "--depth", "2"),
        # one coverage cascade for each of the roots w1b and w1c3
        ("verify-tables", "--table", "char3", "--cutoff", "3", "--cascade-depth", "1"),
    ):
        one, many = run(*args, "--jobs", "1"), run(*args, "--jobs", "100000")
        assert one.exit_code == many.exit_code == 0
        assert one.stdout_bytes == many.stdout_bytes
    assert RecordingExecutor.sizes == [2, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run("cascade", "--root", "w1b", "--depth", "2", "--jobs", "8").exit_code == 0
    assert RecordingExecutor.sizes == [2, 2, 2]


# -- generated blowup plans: exit 0, 1 or 2, never a traceback or a hang ---------

_curves = st.sampled_from(["A", "B", "C", "D"])
_points = st.sampled_from(["p", "q", "r"])
_centers = st.sampled_from(["p", "q", "r", "s1", "s2", "s3", "A", "x"])
_plan_line = st.one_of(
    st.builds("curve {} selfint {}".format, _curves, st.sampled_from([0, 0, 0, 1, 4, 9, -1, 2])),
    st.builds(
        lambda p, on, contact, cusp: f"point {p} on {','.join(on)}"
        + ("" if contact is None else " contact {}:{}={}".format(*contact))
        + ("" if cusp is None else f" cusp {cusp}"),
        _points, st.lists(_curves, min_size=1, max_size=3),
        st.one_of(st.none(), st.tuples(_curves, _curves, st.integers(1, 3))),
        st.one_of(st.none(), _curves),
    ),
    st.builds("blowup {}".format, _centers),
    st.builds("blowup near {} along {}".format, _centers, _curves),
    st.builds("blowup free-on {}".format, _curves),
    st.just("blowup free"),
)
_fibration_line = st.builds(
    lambda w, h, b: f"fibration width={w} horizontal={','.join(h)} base-fibers={','.join(b)}",
    st.integers(0, 4), st.lists(_curves, min_size=1, max_size=3),
    st.lists(_curves, min_size=1, max_size=3),
)


def _plan(base, body, fibration, how, at):
    """The plan's lines, one of them (at ``at``) cut short or with one
    field made non-integer, or none."""
    lines = [base, *body, fibration]
    i, at = at % len(lines), at // len(lines)
    words = lines[i].split()
    if how == "cut":
        lines[i] = " ".join(words[: at % len(words)])
    elif how == "non-integer":
        j = at % len(words)
        lines[i] = " ".join(words[:j] + [words[j].replace("=", "=x", 1) + "x"] + words[j + 1:])
    return "\n".join(lines) + "\n"


_plan_text = st.builds(
    _plan, st.sampled_from(["base P2", "base P1xP1", "base P1xP1", "base F1"]),
    st.lists(_plan_line, max_size=12), _fibration_line,
    st.sampled_from(["keep", "keep", "cut", "non-integer"]), st.integers(0, 10**4),
)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# each ended in a traceback before: a KeyError for the undeclared curve of a
# blowup center or of the fibration, the SimulationError of a fiber check
# raised while the report was built
REPLAY_ERRORS = (
    "base P2\nblowup free-on A\nfibration width=1 horizontal=A base-fibers=A\n",
    "base P1xP1\ncurve B selfint 0\nfibration width=0 horizontal=A base-fibers=A\n",
    "base P1xP1\ncurve A selfint 1\nfibration width=0 horizontal=A base-fibers=A\n",
)


def test_simulate_replay_errors_are_one_line(tmp_path):
    for text in REPLAY_ERRORS:
        assert_one_line_error(run("simulate", plan_file(tmp_path, text)), 1, "simulation error:")


@settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(text=(fixtures.data_dir() / "plans" / "ex31a.plan").read_text())
@given(text=_plan_text)
def test_simulate_generated_plans_exit_cleanly(tmp_path, text):
    with time_limit(10):
        res = run("simulate", plan_file(tmp_path, text))
    assert res.exit_code in (0, 1, 2), (text, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (text, res.exception)
