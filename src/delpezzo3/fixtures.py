"""Loading of the bundled fixture corpus.

Fixture files hold one type expression per line; ``#`` comments carry
per-row directives:

    # name: <identifier>       row name used in reports
    # sing: <expression>       expected undecorated singularity type
    # root: <model>            primitive model whose cascade reaches the row
    # lhs: <p/q or n>          expected width-form lhs (negative fixtures)
    # expand: <chain family>   expand {T}/{Trev}/{Tdual} placeholders over the
                               admissible chains T with d(T)<=n (from 2 to n),
                               d(T)=n or d(T) in {n,m,...}; a trailing
                               ", T != (2)_l" leaves out the chains of 2s only
    # abcd-table: 1            parameter assignments come from the stored
                               (a,b,c,d) solution table
    # node-labels: <i,j,...>   labels of vertical (-1)-curves through a
                               crossing of two boundary components

Spaces in a chain family are ignored.  The (a,b,c,d) table and the exotic
matrices skip blank and ``#`` lines; an (a,b,c,d) line is exactly four
fields ``n``, ``lo..hi`` or ``lo..inf``.  Malformed data is a ValueError.

The directory can be overridden with the DP_FIXTURES environment variable.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from delpezzo3 import notation
from delpezzo3.chains import chains_with_discriminant, dual_chain, run_chain_terms

DATA_DIR = Path(__file__).parent / "data"


def data_dir() -> Path:
    override = os.environ.get("DP_FIXTURES")
    return Path(override) if override else DATA_DIR


@dataclass(frozen=True)
class FixtureRow:
    name: str
    text: str
    expr: notation.TypeExpr
    sing: notation.TypeExpr | None = None
    root: str | None = None
    lhs: Fraction | None = None
    abcd_table: bool = False
    chain_choice: str | None = None  # rendered T for expanded rows
    node_labels: frozenset = frozenset()  # labels meeting the boundary in a node


_FAMILY = re.compile(
    r"d\(T\)(?:<=(?P<le>\d+)|=(?P<eq>\d+)|in\{(?P<ds>\d+(?:,\d+)*)\})(?P<ex>,T!=\(2\)_l)?")


def _chain_family(spec: str):
    """The chains of an "expand:" directive, ordered by length, then weights."""
    m = _FAMILY.fullmatch(spec.replace(" ", ""))
    if m is None:
        raise ValueError(f"bad expand directive {spec!r}")
    ds = range(2, int(m["le"]) + 1) if m["le"] else map(int, (m["eq"] or m["ds"]).split(","))
    return sorted((t for d in ds for t in chains_with_discriminant(d)
                   if not m["ex"] or any(w != 2 for w in t)), key=lambda t: (len(t), t))


def _chain_text(t) -> str:
    return "[" + ",".join(str(w) for w in t) + "]"


def _expand_placeholders(line: str, t) -> str:
    return (line.replace("{T}", _chain_text(t)).replace("{Trev}", _chain_text(reversed(t)))
            .replace("{Tdual}", _chain_text(dual_chain(t))))


def parse_fixture_file(path: Path, root: str | None = None) -> list[FixtureRow]:
    """The rows of a fixture file in order, an ``expand:`` row once per
    chain of its family.  Given ``root``, only the rows whose ``# root:``
    names it are parsed and returned.  A row without a ``name:`` is named
    ``<stem>:<n>`` by its place among all the rows of the file, so a row
    has one name with or without ``root``."""
    rows: list[FixtureRow] = []
    count = 0  # rows so far, parsed or not
    pending: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*(name|sing|root|lhs|expand|abcd-table|node-labels):\s*(.*)", line)
            if m:
                pending[m.group(1)] = m.group(2).strip()
            continue
        name = pending.get("name", f"{path.stem}:{count + 1}")
        family = _chain_family(pending["expand"]) if "expand" in pending else None
        count += 1 if family is None else len(family)
        if root is not None and pending.get("root") != root:
            pending = {}
            continue
        try:
            lhs = Fraction(pending["lhs"]) if "lhs" in pending else None
        except ZeroDivisionError as err:  # "1/0"; other text Fraction rejects is a ValueError
            raise ValueError(f"bad lhs {pending['lhs']!r}: {err}") from None
        abcd = pending.get("abcd-table") == "1"
        nodes = frozenset(int(x) for x in pending.get("node-labels", "").split(",") if x.strip())
        sing_text = pending.get("sing")
        if family is not None:
            variants = [
                (f"{name}(T={_chain_text(t)})", _expand_placeholders(line, t),
                 sing_text and _expand_placeholders(sing_text, t), _chain_text(t))
                for t in family
            ]
        else:
            variants = [(name, line, sing_text, None)]
        for row_name, text, sing, choice in variants:
            rows.append(
                FixtureRow(
                    name=row_name,
                    text=text,
                    expr=notation.parse(text),
                    sing=notation.parse(sing, require_declared=False) if sing else None,
                    root=pending.get("root"),
                    lhs=lhs,
                    abcd_table=abcd,
                    chain_choice=choice,
                    node_labels=nodes,
                )
            )
        pending = {}
    return rows


def load_table(stem: str, root: str | None = None) -> list[FixtureRow]:
    """The rows of a table, only those of ``root`` if given."""
    return parse_fixture_file(data_dir() / "tables" / f"{stem}.types", root)


def load_negative() -> list[FixtureRow]:
    return parse_fixture_file(data_dir() / "fixtures" / "negative.types")


TABLE_STEMS = ("char0", "char3", "char2_moduli", "char2", "nonlt_char2")


def load_all_tables(stems=TABLE_STEMS, root: str | None = None) -> dict[str, list[FixtureRow]]:
    return {stem: load_table(stem, root) for stem in stems}


# ---------------------------------------------------------------------------
# The (a,b,c,d) table.


@dataclass(frozen=True)
class AbcdBox:
    lo: tuple[int, int, int, int]
    hi: tuple[int | None, int | None, int | None, int | None]

    def expand(self, cap: int):
        return itertools.product(*(range(lo, (cap if hi is None else min(hi, cap)) + 1)
                                   for lo, hi in zip(self.lo, self.hi)))


def _data_lines(stem: str) -> list[str]:
    """The stripped lines of ``fixtures/<stem>.txt`` except blank and ``#`` lines."""
    lines = (data_dir() / "fixtures" / f"{stem}.txt").read_text().splitlines()
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


_ABCD_LINE = re.compile(r"\s+".join([r"(\d+)(?:\.\.(\d+|inf))?"] * 4))


def load_abcd_table() -> list[AbcdBox]:
    boxes = []
    for line in _data_lines("table1_abcd"):
        m = _ABCD_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"table1_abcd: {line!r} is not four fields n, lo..hi or lo..inf")
        lo, hi = m.groups()[::2], m.groups()[1::2]
        boxes.append(AbcdBox(tuple(map(int, lo)),
                             tuple(None if h == "inf" else int(h or l) for l, h in zip(lo, hi))))
    return boxes


def abcd_solutions(cap: int) -> set[tuple[int, int, int, int]]:
    out: set[tuple[int, int, int, int]] = set()
    for box in load_abcd_table():
        out.update(box.expand(cap))
    return out


def row_assignments(row: FixtureRow, cutoff: int):
    """Parameter assignments for a fixture row, honoring abcd-table rows."""
    if row.abcd_table:
        for a, b, c, d in sorted(abcd_solutions(cutoff)):
            yield {"a": a, "b": b, "c": c, "d": d}
    else:
        yield from notation.assignments(row.expr, cutoff)


def load_matrix(stem: str) -> list[list[int]]:
    return [[int(x) for x in line.split()] for line in _data_lines(stem)]


_ABCD_EXPR = (
    "@3[(2)_{c-1},b@2,dh@4,a@1,2h@5,(2)_{b-2}]@2"
    "+@1[(2)_{a-1},c+1h@3,2@5,(2)_{d-1}]@4"
    " ; a>=2 ; b>=2 ; c>=2 ; d>=2 ; width=3"
)


@functools.cache
def _abcd_expr() -> notation.TypeExpr:
    return notation.parse(_ABCD_EXPR)


def abcd_passes(a: int, b: int, c: int, d: int) -> bool:
    """Whether ``_ABCD_EXPR`` at (a, b, c, d) satisfies its width-3
    inequality ld(H1) + ld(H2) + ld(H3) > 1, the verdict of
    ``width_check(substitute(...))`` without building the type.

    ``notation.chain_runs`` reads each chain at the point as runs
    (weight, count) straight from the pieces of the compiled plan: a
    constant tuple or an ``EntryExpr`` weight is a run of one, and each
    ``(2)_{e}`` (here c-1, b-2, a-1 and d-1 long) one run of 2s, so the
    chains are six and four runs whatever the point.  Run continuants
    (``chains.run_chain_terms``) give each chain's discriminant and the
    ld numerators of its horizontal entries, and the lhs is summed as one
    integer fraction num/den, as ``width_check`` sums it; den is a product
    of discriminants of chains of weights at least 2, so positive, and
    ``num > den`` is the inequality exactly."""
    num, den = 0, 1
    for runs, marked in notation.chain_runs(_abcd_expr(), {"a": a, "b": b, "c": c, "d": d}):
        if marked:
            disc, nums = run_chain_terms(runs, [k for k, _ in marked])
            total = sum([2 * n if two else n for n, (_, two) in zip(nums, marked)])
            num, den = num * disc + total * den, den * disc
    return num > den


def abcd_enumerate(cap: int) -> set[tuple[int, int, int, int]]:
    """All (a,b,c,d) in [2,cap]^4 with (a,b) != (2,2) satisfying the
    width-3 inequality (``abcd_passes``).  Log discrepancies only drop
    when any parameter grows (weighted-subgraph monotonicity), so each
    axis is scanned until the first failure.  Each column of the table is
    unbounded along one axis at most, so the scan visits a number of
    points linear in ``cap`` (450 at 50, 8050 at 1000), and as
    ``abcd_passes`` costs about the same at every point, it takes time
    linear in ``cap``."""
    out = set()
    for a in range(2, cap + 1):
        b_seen = False
        for b in range(2, cap + 1):
            if (a, b) == (2, 2):
                continue
            c_seen = False
            for c in range(2, cap + 1):
                d_count = 0
                for d in range(2, cap + 1):
                    if abcd_passes(a, b, c, d):
                        out.add((a, b, c, d))
                        d_count += 1
                    else:
                        break
                if d_count:
                    c_seen = True
                else:
                    break
            if c_seen:
                b_seen = True
            elif b > 2:
                break
        if not b_seen and a > 3:
            break
    return out
