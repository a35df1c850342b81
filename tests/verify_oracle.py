"""The per-instance verification that ``verify.evaluate`` replaced, kept as
an oracle for the tests.

Each instance is substituted into a whole ``DecoratedType``, whose
constructor checks it, and its verdict is read from the type:
``singularity_type_of``, ``width_check``, or for the lc-only table
``is_admissible`` and ``is_log_canonical``.  A row's ``sing:`` annotation
is substituted into a second type only to read its singularity type.
The package reads the same verdicts from each row's compiled plan
(``notation.readings``) with no type built; both give equal ``Instance``
records, and raise the same errors in the same order.
"""

from __future__ import annotations

from delpezzo3 import notation
from delpezzo3.boundary import DecoratedType, _walk_terms, singularity_type_of, width_check
from delpezzo3.verify import LC_ONLY_STEM, Instance


def is_log_canonical(d: DecoratedType) -> bool:
    """Whether every fork of ``d`` has an excess of at least 0: the rule
    ``DecoratedType.is_admissible`` reads with > 0."""
    return all(term[0] >= 0 for term in _walk_terms(*d.walk()))


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
        ok = is_log_canonical(d) and not admissible
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
    """One ``Instance`` per case of ``verify.table_cases``, in case order."""
    return [
        evaluate(row.name, notation.substitute(row.expr, dict(assignment)), assignment,
                 row.sing, stem == LC_ONLY_STEM)
        for stem, row, assignment in cases
    ]
