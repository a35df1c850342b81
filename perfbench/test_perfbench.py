"""Tests of the benchmark itself, on its tiny input size.

    PYTHONPATH=src python -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import relabel_corpus, symmetric_types  # noqa: E402
from spans import Tracer  # noqa: E402

from delpezzo3 import fixtures, notation  # noqa: E402
from delpezzo3.boundary import canonical_form  # noqa: E402
from delpezzo3.reports import Report  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
REFERENCE = json.loads((HERE / "reference.json").read_text())


def tiny_run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--size", "tiny", "--seconds", "0.01", *args])
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (w, trace): tiny_run("--workload", w, "--seed", "3", "--trace", str(trace))
        for w in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(results, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = results[workload, trace]
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_tracing_sees_swaps_only_in_the_cascade(results):
    """The reverse-swap path runs only in cascade-w3.  verify-corpus reaches
    swaps solely through the vertical-primitivity line of dp3 simulate,
    which runs forward swaps; canon-symmetric never enters swaps."""
    swaps = [m["name"] for m in BENCHMARK["per_layer"]
             if m["name"].startswith("swaps.") and m["name"].endswith(".calls")]
    reverse = ("swaps.cascade.calls", "swaps.reverse_moves.calls", "swaps.reverse_swap.calls")
    cascade = results["cascade-w3", 1][1]["metrics"]
    assert all(cascade[name]["value"] > 0 for name in swaps)
    verify = results["verify-corpus", 1][1]["metrics"]
    assert all(verify[name]["value"] == 0 for name in reverse)
    canon = results["canon-symmetric", 1][1]["metrics"]
    assert all(canon[name]["value"] == 0 for name in swaps)


def test_verify_corpus_swaps_calls_come_from_primitivity_checks():
    workload = workloads.build("verify-corpus", 0, "tiny", REFERENCE)
    tracer = Tracer()
    tracer.install()
    try:
        for call in workload.calls:
            assert not call.check(call.run()), call.name
    finally:
        tracer.uninstall()
    table = tracer.per_layer()
    for name in ("swaps.to_graph", "swaps.from_graph"):
        assert table[name][0] > 0
        assert tracer.calls_under(name, "swaps.is_vertically_primitive") == table[name][0]


def test_corrupted_reference_fails(tmp_path):
    reference = json.loads(json.dumps(REFERENCE))
    reference["cascade-w3"]["tiny"]["w3a"]["counts"]["MATCHED"] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result = tiny_run("--workload", "cascade-w3", "--seed", "1", "--reference", str(path))
    assert code == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_corpus_keeps_canonical_forms(tmp_path, seed):
    copy = relabel_corpus(fixtures.DATA_DIR, tmp_path / "data", seed)
    pairs = [("primitive", p.name) for p in sorted((copy / "primitive").glob("*.types"))]
    pairs += [("tables", f"{stem}.types") for stem in ("char0", "char3")]
    changed = 0
    for sub, name in pairs:
        original = fixtures.parse_fixture_file(fixtures.DATA_DIR / sub / name)
        relabelled = fixtures.parse_fixture_file(copy / sub / name)
        assert len(original) == len(relabelled)
        for a, b in zip(original, relabelled):
            changed += a.text != b.text
            assert len(a.node_labels) == len(b.node_labels)
            for assignment in fixtures.row_assignments(a, 4):
                assert canonical_form(notation.substitute(a.expr, assignment)) == canonical_form(
                    notation.substitute(b.expr, assignment)
                ), (a.text, b.text)
    assert changed > 0


def test_cascade_rows_digest_ignores_the_canonical_column():
    """The node-set hash must survive a change of canonical-form encoding,
    which changes the first column and the row order, and nothing else."""
    rows = [("1", "PASS", "14/5", "EXTRA"), ("2", "PRUNED", "", "inequality"),
            ("2", "PASS", "3", "w3.a a=1,b=2")]

    def digest(keys, rows):
        report = Report("cascade", ("canonical", "depth", "status", "lhs", "match"))
        for key, row in zip(keys, rows):
            report.add(key, *row)
        report.count("PASS", 2)
        return workloads.cascade_rows_digest(report.render_csv())

    reference = digest(["c1", "c2", "c3"], rows)
    assert digest(['\n"x",2,PASS,1,y', "\r\x00", "c,1"], rows[::-1]) == reference
    assert digest(["c1", "c2", "c3"], [*rows[:2], ("2", "PASS", "4", rows[2][3])]) != reference


@pytest.mark.parametrize("seed", [1, 2])
def test_symmetric_copies_keep_canonical_forms(seed):
    for t in symmetric_types(seed, "tiny"):
        d, copy = (notation.substitute(notation.parse(x), {}) for x in (t.text, t.relabelled))
        assert canonical_form(d) == canonical_form(copy), t
