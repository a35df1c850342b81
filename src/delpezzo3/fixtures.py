"""Loading of the bundled fixture corpus.

Fixture files hold one type expression per line; ``#`` comments carry
per-row directives:

    # name: <identifier>       row name used in reports
    # sing: <expression>       expected undecorated singularity type
    # root: <model>            primitive model whose cascade reaches the row
    # lhs: <p/q or n>          expected width-form lhs (negative fixtures)
    # expand: <chain family>   expand {T}/{Trev}/{Tdual} placeholders over
                               admissible chains (d(T)<=n, d(T)=n, or
                               d(T) in {..} with an optional "T != (2)_l")
    # abcd-table: 1            parameter assignments come from the stored
                               (a,b,c,d) solution table
    # node-labels: <i,j,...>   labels of vertical (-1)-curves through a
                               crossing of two boundary components

The directory can be overridden with the DP_FIXTURES environment variable.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from delpezzo3 import notation
from delpezzo3.chains import chains_with_discriminant, dual_chain

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


def _chain_family(spec: str):
    """Chains matching an "expand:" directive."""
    spec = spec.replace(" ", "")
    exclude_rep = "T!=(2)_l" in spec
    spec = spec.replace(",T!=(2)_l", "").replace("T!=(2)_l", "")
    chains = []
    m = re.fullmatch(r"d\(T\)<=(\d+)", spec)
    if m:
        for d in range(2, int(m.group(1)) + 1):
            chains.extend(chains_with_discriminant(d))
    else:
        m = re.fullmatch(r"d\(T\)=(\d+)", spec)
        if m:
            chains = chains_with_discriminant(int(m.group(1)))
        else:
            m = re.fullmatch(r"d\(T\)in\{([\d,]+)\}", spec)
            if not m:
                raise ValueError(f"bad expand directive {spec!r}")
            for d in (int(x) for x in m.group(1).split(",")):
                chains.extend(chains_with_discriminant(d))
    if exclude_rep:
        chains = [t for t in chains if any(w != 2 for w in t)]
    return sorted(chains, key=lambda t: (len(t), t))


def _chain_text(t) -> str:
    return "[" + ",".join(str(w) for w in t) + "]"


def _expand_placeholders(line: str, t) -> str:
    out = line.replace("{T}", _chain_text(t))
    out = out.replace("{Trev}", _chain_text(tuple(reversed(t))))
    out = out.replace("{Tdual}", _chain_text(dual_chain(t)))
    return out


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
        lhs = None
        if "lhs" in pending:
            lhs = Fraction(pending["lhs"])
        abcd = pending.get("abcd-table") == "1"
        nodes = frozenset(
            int(x) for x in pending.get("node-labels", "").split(",") if x.strip()
        )
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
        ranges = []
        for lo, hi in zip(self.lo, self.hi):
            top = cap if hi is None else min(hi, cap)
            ranges.append(range(lo, top + 1))
        for a in ranges[0]:
            for b in ranges[1]:
                for c in ranges[2]:
                    for d in ranges[3]:
                        yield (a, b, c, d)


def load_abcd_table() -> list[AbcdBox]:
    path = data_dir() / "fixtures" / "table1_abcd.txt"
    boxes = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lo, hi = [], []
        for fieldtext in line.split():
            if ".." in fieldtext:
                a, b = fieldtext.split("..")
                lo.append(int(a))
                hi.append(None if b == "inf" else int(b))
            else:
                lo.append(int(fieldtext))
                hi.append(int(fieldtext))
        boxes.append(AbcdBox(tuple(lo), tuple(hi)))
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
    path = data_dir() / "fixtures" / f"{stem}.txt"
    return [
        [int(x) for x in line.split()]
        for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


_ABCD_EXPR = (
    "@3[(2)_{c-1},b@2,dh@4,a@1,2h@5,(2)_{b-2}]@2"
    "+@1[(2)_{a-1},c+1h@3,2@5,(2)_{d-1}]@4"
    " ; a>=2 ; b>=2 ; c>=2 ; d>=2 ; width=3"
)


@functools.cache
def _abcd_expr() -> notation.TypeExpr:
    return notation.parse(_ABCD_EXPR)


def abcd_passes(a: int, b: int, c: int, d: int) -> bool:
    from delpezzo3.boundary import width_check

    dec = notation.substitute(_abcd_expr(), {"a": a, "b": b, "c": c, "d": d})
    res = width_check(dec)
    return res is not None and res.satisfied


def abcd_enumerate(cap: int) -> set[tuple[int, int, int, int]]:
    """All (a,b,c,d) in [2,cap]^4 with (a,b) != (2,2) satisfying the
    width-3 inequality.  Log discrepancies only drop when any parameter
    grows (weighted-subgraph monotonicity), so each axis is scanned until
    the first failure."""
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
