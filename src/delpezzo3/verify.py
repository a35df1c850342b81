"""The verification pipeline over the fixture tables.  ``dp3
verify-tables``, ``dp3 check``, the fixture matching of ``dp3 cascade``
and the acceptance suite only render or assert on its records.
``verify_instances`` substitutes each table instance once into an
``Instance`` that keeps no ``DecoratedType``; ``distinctness`` substitutes
again only the few instances whose singularity type another row shares,
and ``cascade_targets`` each instance of the rows that name its root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from delpezzo3 import fixtures, notation, swaps
from delpezzo3.boundary import (
    DecoratedType,
    canonical_form,
    singularity_type_of,
    width_check,
)

# primitive models: name used by "# root:" directives -> file stem under data/primitive
ROOTS = {
    "w3a": "w3_a", "w3b": "w3_b",
    "w2a": "w2_a", "w2b": "w2_b", "w2c": "w2_c",
    "w2x2a": "w2x2_a", "w2x2b": "w2x2_b", "w2x2c": "w2x2_c",
    "w1a": "w1_a", "w1b": "w1_b", "w1c3": "w1_c3_notGK",
}

# the tables whose rows name a primitive root
CASCADE_STEMS = ("char0", "char3")

# the table of non-log-terminal types: its rows pass when log canonical
# and not admissible, and take no part in the distinctness check
LC_ONLY_STEM = "nonlt_char2"

# the exotic pair: two non-isomorphic surfaces share one type
EXOTIC_PAIR = frozenset({"w3.rivet_A", "w3.nu_3=1_c2"})

ALLOWED_COINCIDENCES = {
    EXOTIC_PAIR,
    # one family presented along two fibration choices
    frozenset({"w3.nu_3=1_s1", "w3.chains"}),
}


def fmt_assignment(assignment) -> str:
    return " ".join(f"{k}={v}" for k, v in assignment)


# -- primitive roots -------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    name: str
    dtype: DecoratedType
    node_labels: frozenset  # labels meeting the boundary in a node

    def cascade(self, depth: int, jobs: int = 1) -> swaps.CascadeResult:
        return swaps.cascade(self.dtype, depth, jobs=jobs, excluded_labels=self.node_labels)


def load_root(name: str) -> Root:
    """The one type of ``primitive/<stem>.types``; any other number of
    rows is a ValueError."""
    path = fixtures.data_dir() / "primitive" / f"{ROOTS[name]}.types"
    rows = fixtures.parse_fixture_file(path)
    if len(rows) != 1:
        raise ValueError(f"{path.name} holds {len(rows)} types, not one")
    return Root(name, notation.substitute(rows[0].expr, {}), rows[0].node_labels)


# -- per-instance verdicts ---------------------------------------------------------


def table_cases(tables: dict, cutoff: int) -> list[tuple[str, fixtures.FixtureRow, tuple]]:
    """(stem, row, assignment) for every instance of the tables, in order;
    assignments are sorted (parameter, value) pairs."""
    return [
        (stem, row, tuple(sorted(assignment.items())))
        for stem, rows in tables.items()
        for row in rows
        for assignment in fixtures.row_assignments(row, cutoff)
    ]


@dataclass(frozen=True)
class Instance:
    name: str
    assignment: tuple  # sorted (parameter, value) pairs
    admissible: bool
    lhs: Fraction | None  # the width form's lhs; None if not admissible or lc-only
    status: str  # "PASS" or "FAIL"
    detail: str
    sing: tuple  # singularity_type_of the instance


def evaluate(name: str, d: DecoratedType, assignment: tuple,
             expected: notation.TypeExpr | None = None, lc_only: bool = False) -> Instance:
    """The verdict on the instance ``d`` of row ``name``.  It passes when
    admissible and satisfying the width inequality or, with ``lc_only``,
    when log canonical and not admissible; and, given the ``expected``
    singularity type expression, only if the types agree."""
    sing = singularity_type_of(d)
    lhs = None
    if lc_only:
        admissible = d.is_admissible()
        ok = d.is_log_canonical() and not admissible
    else:
        res = width_check(d)
        if res is None:
            return Instance(name, assignment, False, None, "FAIL", "not admissible", sing)
        admissible, ok, lhs = True, res.satisfied, res.lhs
    detail = ""
    if expected is not None and singularity_type_of(
            notation.substitute(expected, dict(assignment))) != sing:
        ok, detail = False, "singularity type mismatch"
    return Instance(name, assignment, admissible, lhs, "PASS" if ok else "FAIL", detail, sing)


def verify_instances(cases) -> list[Instance]:
    """One ``Instance`` per case, in case order."""
    return [
        evaluate(row.name, notation.substitute(row.expr, dict(assignment)), assignment,
                 row.sing, stem == LC_ONLY_STEM)
        for stem, row, assignment in cases
    ]


# -- distinctness ------------------------------------------------------------------


@dataclass(frozen=True)
class Coincidence:
    sing: tuple
    hits: tuple  # (row name without its "(T=...)" suffix, assignment) per instance
    rows: frozenset  # the row names of the hits
    kind: str  # "duplicate-presentation", "documented-coincidence" or "FAIL"


def distinctness(cases, instances) -> list[Coincidence]:
    """Singularity types shared by two or more (row, assignment) pairs
    outside the lc-only table, in order of first occurrence: a duplicate
    presentation if all have one canonical form, else a documented
    coincidence if its rows are allowed, else a failure."""
    seen: dict = {}
    for (stem, row, assignment), inst in zip(cases, instances):
        if stem != LC_ONLY_STEM:
            seen.setdefault(inst.sing, []).append((row, assignment))
    out = []
    for sing, hits in seen.items():
        named = tuple((row.name.split("(")[0], a) for row, a in hits)
        if len(set(named)) == 1:
            continue
        forms = {canonical_form(notation.substitute(row.expr, dict(a))) for row, a in hits}
        rows = frozenset(name for name, _ in named)
        kind = ("duplicate-presentation" if len(forms) == 1
                else "documented-coincidence" if rows in ALLOWED_COINCIDENCES else "FAIL")
        out.append(Coincidence(sing, named, rows, kind))
    return out


# -- cascade coverage --------------------------------------------------------------


def table_roots(tables: dict) -> list[str]:
    """The primitive roots named by the rows of the tables, sorted."""
    return sorted({row.root for stem in CASCADE_STEMS
                   for row in tables.get(stem, ()) if row.root})


@dataclass(frozen=True)
class Target:
    name: str
    assignment: tuple  # sorted (parameter, value) pairs
    depth: int  # boundary entries beyond the root's
    key: bytes  # canonical form


def cascade_targets(tables: dict, root: Root, cutoff: int,
                    max_depth: int | None = None) -> tuple[list[Target], int]:
    """The instances of the rows naming ``root`` that lie within
    ``max_depth`` reverse swaps of it (all of them if None), and the
    number of those beyond.
    Each reverse swap adds one boundary entry, so a cascade node at depth
    k has exactly k entries more than the root."""
    size = len(root.dtype.entries())
    targets, beyond = [], 0
    for stem in CASCADE_STEMS:
        for row in tables.get(stem, ()):
            if row.root != root.name:
                continue
            for assignment in fixtures.row_assignments(row, cutoff):
                d = notation.substitute(row.expr, assignment)
                depth = len(d.entries()) - size
                if max_depth is not None and depth > max_depth:
                    beyond += 1
                    continue
                targets.append(Target(row.name, tuple(sorted(assignment.items())), depth,
                                      canonical_form(d)))
    return targets, beyond


def coverage(root: Root, targets, depth: int, jobs: int = 1) -> tuple[list[Target], int]:
    """The targets that the cascade of ``root`` to ``depth`` misses, and
    the number of its nodes other than the root, the one node at depth 0,
    that match no target."""
    nodes = root.cascade(depth, jobs).nodes
    keys = {t.key for t in targets}
    extra = sum(node.depth > 0 and key not in keys for key, node in nodes.items())
    return [t for t in targets if t.key not in nodes], extra
