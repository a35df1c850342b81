"""Combinatorics of rank-one del Pezzo surfaces of height 3.

Exact chain/fork arithmetic, boundary graphs with fibration decorations,
a parser for the bracket notation, a blowup simulator, the vertical-swap
cascade enumerator, and integer Smith normal form for the homology of the
exotic pair.
"""

from delpezzo3.chains import (
    Fork,
    discriminant,
    dual_chain,
    fork_triples,
    is_admissible,
    ld_chain,
    ld_fork,
)
from delpezzo3.notation import star_compose

__all__ = [
    "Fork",
    "discriminant",
    "dual_chain",
    "fork_triples",
    "is_admissible",
    "ld_chain",
    "ld_fork",
    "star_compose",
]
