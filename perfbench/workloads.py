"""The three benchmark workloads: one job each, as a list of timed calls
with an exactness check per call.

* ``cascade-w3``: ``dp3 cascade`` on the roots w3a and w3b at one depth.
* ``verify-corpus``: ``dp3 verify-tables``, ``dp3 enum-abcd``, ``dp3
  simulate`` on every plan and ``dp3 homology`` on both fixtures and both
  constructions.
* ``canon-symmetric``: ``canonical_form`` of a type and of a relabelled,
  reordered copy, then ``graph_automorphisms``, on types made of identical
  components.

Commands run in-process through click's test runner, against the corpus
named by ``DP_FIXTURES``.  Every output is compared with the reference
values recorded in ``reference.json``: report summary counts, the
verdicts and values listed in NOTES.md, and a SHA-256 of the report.
None of these depends on label names or component order, so none on the
seed.  A cascade report is hashed without its first column, a prefix of
each node's canonical form, and with its rows sorted, since the rows are
ordered by canonical form: the hash pins the node set (depth, status,
lhs and fixture match of every node), not the encoding of the keys.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable

from click.testing import CliRunner

from delpezzo3 import boundary, cli, fixtures, notation
from delpezzo3 import simulator as sim

from inputs import symmetric_types

ROOTS = ("w3a", "w3b")
HOMOLOGY = (("--fixture", "1"), ("--fixture", "2"), ("--construct", "x1"), ("--construct", "x2"))
SIZES = {
    "full": {"depth": 4, "table": "all", "cutoff": 12, "abcd_max": 50},
    "tiny": {"depth": 2, "table": "char3", "cutoff": 4, "abcd_max": 10},
}


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # mismatches; empty when exact


@dataclass
class Workload:
    calls: list[Call]  # one job
    items: int  # work items finished per job
    counters: dict  # work counters of one job
    cascade_keys: int = 0  # distinct nodes the job's cascades record


def load_corpus():
    """Parse the whole corpus under DP_FIXTURES: tables, negative
    fixtures, the (a,b,c,d) table, matrices, primitive roots and plans."""
    data = fixtures.data_dir()
    fixtures.load_all_tables()
    fixtures.load_negative()
    fixtures.load_abcd_table()
    for stem in ("exotic_matrix_1", "exotic_matrix_2"):
        fixtures.load_matrix(stem)
    for path in sorted((data / "primitive").glob("*.types")):
        notation.substitute(fixtures.parse_fixture_file(path)[0].expr, {})
    for path in sorted((data / "plans").glob("*.plan")):
        sim.load_plan(path)


# -- checks --------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summary_counts(text: str) -> dict[str, int]:
    """The ``# key: n`` summary lines of a CSV report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line[2:].partition(": ")
        if line.startswith("# ") and sep and value.isdigit():
            out[key] = int(value)
    return out


# the last four columns of a cascade row: depth, status, lhs, match.  Read
# from the end of the line, so that whatever the canonical column holds
# (quoted or not, one line or several) does not matter.
_CASCADE_ROW = re.compile(r',(\d+),(PASS|PRUNED),([^,"\n]*),("(?:[^"]|"")*"|[^,"\n]*)$', re.M)


def cascade_rows_digest(text: str) -> str:
    """SHA-256 of a cascade report's rows, sorted, without the canonical
    column."""
    rows = sorted(",".join(m.groups()) for m in _CASCADE_ROW.finditer(text))
    return digest("\n".join(rows))


def report_items(text: str) -> dict[str, str]:
    """First two columns of a two-column CSV report."""
    return dict(
        line.split(",", 1) for line in text.splitlines()[2:] if not line.startswith("#")
    )


def _cli_problems(result, ref: dict) -> list[str]:
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return [f"raised {result.exception!r}"]
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    counts = summary_counts(result.stdout)
    for key, want in ref.get("counts", {}).items():
        if counts.get(key, 0) != want:
            problems.append(f"{key} = {counts.get(key, 0)}, reference {want}")
    items = report_items(result.stdout) if "items" in ref else {}
    for key, want in ref.get("items", {}).items():
        if items.get(key) != want:
            problems.append(f"{key} = {items.get(key)}, reference {want}")
    if "stdout" in ref and result.stdout.strip() != ref["stdout"]:
        problems.append(f"printed {result.stdout.strip()!r}, reference {ref['stdout']!r}")
    if "sha256" in ref and digest(result.stdout) != ref["sha256"]:
        problems.append("report differs from the reference")
    if "rows_sha256" in ref and cascade_rows_digest(result.stdout) != ref["rows_sha256"]:
        problems.append("cascade node set differs from the reference")
    return problems


def _cli_call(runner: CliRunner, name: str, args: list[str], ref: dict) -> Call:
    return Call(
        name,
        lambda: runner.invoke(cli.main, args),
        lambda result: _cli_problems(result, ref),
    )


# -- workloads -------------------------------------------------------------------


def cascade_w3(ref: dict, size: str) -> Workload:
    runner = CliRunner()
    depth = str(SIZES[size]["depth"])
    calls = [
        _cli_call(runner, f"cascade {root}", ["cascade", "--root", root, "--depth", depth], ref[root])
        for root in ROOTS
    ]
    counters = {root: dict(ref[root]["counts"]) for root in ROOTS}
    keys = sum(c["PASS"] + c["PRUNED"] for c in counters.values())
    return Workload(calls, keys, counters, cascade_keys=keys)


def verify_corpus(ref: dict, size: str) -> Workload:
    """``ref``: the verify-corpus section for this size, plus the shared
    simulate and homology sections."""
    runner = CliRunner()
    params = SIZES[size]
    calls = [
        _cli_call(
            runner, "verify-tables",
            ["verify-tables", "--table", params["table"], "--cutoff", str(params["cutoff"])],
            ref["verify-tables"],
        ),
        _cli_call(runner, "enum-abcd", ["enum-abcd", "--max", str(params["abcd_max"])],
                  ref["enum-abcd"]),
    ]
    plans = sorted((fixtures.data_dir() / "plans").glob("*.plan"))
    for path in plans:
        calls.append(_cli_call(runner, f"simulate {path.stem}", ["simulate", str(path)],
                               ref["simulate"][path.stem]))
    for option, value in HOMOLOGY:
        key = f"{option} {value}"
        calls.append(_cli_call(runner, f"homology {key}", ["homology", option, value],
                               {"stdout": ref["homology"][key]}))
    tables = ref["verify-tables"]["counts"]
    counters = {
        "instances": tables["PASS"] + tables.get("FAIL", 0),
        "abcd_solutions": ref["enum-abcd"]["counts"]["solutions"],
        "plans": len(plans),
        "matrices": len(HOMOLOGY),
    }
    return Workload(calls, sum(counters.values()), counters)


def _canon_call(t) -> Call:
    d = notation.substitute(notation.parse(t.text), {})
    copy = notation.substitute(notation.parse(t.relabelled), {})

    def run():
        # looked up on the module at call time, so that tracing sees them
        return (
            boundary.canonical_form(d),
            boundary.canonical_form(copy),
            boundary.graph_automorphisms(d).order,
        )

    def check(out) -> list[str]:
        form, copy_form, order = out
        problems = []
        if form != copy_form:
            problems.append(f"{t.relabelled} has another canonical form than {t.text}")
        if order != t.aut_order:
            problems.append(f"|Aut({t.text})| = {order}, closed form {t.aut_order}")
        return problems

    return Call(f"canon {t.profile}", run, check)


def canon_symmetric(seed: int, size: str) -> Workload:
    types = symmetric_types(seed, size)
    calls = [_canon_call(t) for t in types]
    counters = {"types": len(types), "aut_orders": {t.profile: t.aut_order for t in types}}
    return Workload(calls, len(types), counters)


def build(name: str, seed: int, size: str, reference: dict) -> Workload:
    if name == "cascade-w3":
        return cascade_w3(reference["cascade-w3"][size], size)
    if name == "verify-corpus":
        shared = {k: reference[k] for k in ("simulate", "homology")}
        return verify_corpus(dict(reference["verify-corpus"][size], **shared), size)
    if name == "canon-symmetric":
        return canon_symmetric(seed, size)
    raise ValueError(f"unknown workload {name!r}")
