"""Exact arithmetic on weighted chains and forks.

A chain ``[a_1, ..., a_n]`` is stored as a tuple of integers, each entry
being minus the self-intersection of the corresponding rational curve.  A
fork ``<b; T_1, T_2, T_3>`` is a branch weight together with three chains,
each ordered from its far tip, so its last entry is adjacent to the branch.

Everything here is exact: discriminants are Python integers, log
discrepancies are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Chain = tuple[int, ...]


@dataclass(frozen=True)
class Fork:
    """A fork; each twig is ordered from its far tip toward the branch,
    so the LAST entry of a twig is the one meeting the branch."""

    branch: int
    twigs: tuple[Chain, Chain, Chain]

    def __post_init__(self) -> None:
        if len(self.twigs) != 3 or any(len(t) == 0 for t in self.twigs):
            raise ValueError("a fork needs exactly three nonempty twigs")

    def sorted_twigs(self) -> tuple[Chain, Chain, Chain]:
        """Twigs in a canonical order (by discriminant, then weights)."""
        return tuple(sorted(self.twigs, key=lambda t: (discriminant(t), t)))  # type: ignore[return-value]


def discriminant(t: Chain | Fork | list) -> int:
    """det(-intersection matrix); 1 for the empty divisor.

    Accepts a chain, a fork, or a list of components (disjoint union,
    where the discriminant is the product over components).
    """
    if isinstance(t, Fork):
        return _disc_fork(t)
    if isinstance(t, list):
        out = 1
        for comp in t:
            out *= discriminant(comp)
        return out
    return _disc_chain(tuple(t))


@lru_cache(maxsize=None)
def _disc_chain(weights: Chain) -> int:
    # d([a_1..a_n]) = a_n * d([a_1..a_{n-1}]) - d([a_1..a_{n-2}])
    prev2, prev1 = 0, 1
    for a in weights:
        prev2, prev1 = prev1, a * prev1 - prev2
    return prev1


def _disc_fork(f: Fork) -> int:
    # Peel the fork at the branch: d = b * prod(d_i) - sum over twigs of
    # d(twig minus its branch-adjacent entry) * prod of the others.
    ds = [_disc_chain(t) for t in f.twigs]
    total = f.branch * ds[0] * ds[1] * ds[2]
    for i, t in enumerate(f.twigs):
        rest = 1
        for j, d in enumerate(ds):
            if j != i:
                rest *= d
        total -= _disc_chain(t[:-1]) * rest
    return total


def det(m) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968),
    with a row swap for a zero pivot; a pivot column that is zero on and
    below the diagonal makes the matrix singular and the result 0.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _fork_excess(f: Fork) -> int | None:
    """D (sum of 1/d(T_i) - 1) with D = d(T_1) d(T_2) d(T_3), an integer
    of the sign of sum 1/d(T_i) - 1; None if the branch is below 2 or a
    twig is not admissible."""
    if f.branch < 2 or not all(is_admissible(t) for t in f.twigs):
        return None
    ds = [_disc_chain(t) for t in f.twigs]
    big_d = ds[0] * ds[1] * ds[2]
    return sum(big_d // d for d in ds) - big_d


def is_admissible(t: Chain | Fork) -> bool:
    """Chains: all weights >= 2. Forks: branch >= 2, admissible twigs and
    sum of reciprocal twig discriminants > 1."""
    if isinstance(t, Fork):
        excess = _fork_excess(t)
        return excess is not None and excess > 0
    return all(a >= 2 for a in t)


def is_log_canonical_fork(f: Fork) -> bool:
    """Branch >= 2, admissible twigs, sum of 1/d(T_i) >= 1 (allows = 1)."""
    excess = _fork_excess(f)
    return excess is not None and excess >= 0


def fork_triples(max_k: int) -> list[tuple[int, int, int]]:
    """All multisets {d1 <= d2 <= d3} with 2 <= di <= max_k and
    sum 1/di > 1, by brute force."""
    out = []
    for d1 in range(2, max_k + 1):
        for d2 in range(d1, max_k + 1):
            for d3 in range(d2, max_k + 1):
                if Fraction(1, d1) + Fraction(1, d2) + Fraction(1, d3) > 1:
                    out.append((d1, d2, d3))
    return out


def hirzebruch_jung(d: int, d_tail: int) -> Chain:
    """The admissible chain [c_1, ..., c_m] with discriminant ``d`` whose
    tail (minus the first entry) has discriminant ``d_tail``."""
    if d < 1:
        raise ValueError(f"invalid Hirzebruch-Jung data ({d}, {d_tail})")
    if d == 1:
        return ()
    if not 1 <= d_tail < d or gcd(d, d_tail) != 1:
        raise ValueError(f"invalid Hirzebruch-Jung data ({d}, {d_tail})")
    out = []
    while d > 1:
        c = -(-d // d_tail)  # ceil
        out.append(c)
        d, d_tail = d_tail, c * d_tail - d
    return tuple(out)


def chains_with_discriminant(d: int) -> list[Chain]:
    """All admissible chains of discriminant ``d`` (the empty chain for 1)."""
    if d == 1:
        return [()]
    return [hirzebruch_jung(d, e) for e in range(1, d) if gcd(d, e) == 1]


def dual_chain(t: Chain) -> Chain:
    """The adjoint chain T* such that [T, 1, T*] contracts to a 0-curve.

    d(T*) = d(T) and d(T* minus its first tip) = d(T) - d(T minus its
    last tip); T* is recovered by Hirzebruch-Jung expansion.
    """
    t = tuple(t)
    if t == (1,):
        return ()
    if not t or not is_admissible(t):
        raise ValueError(f"dual chain undefined for {list(t)}")
    d = _disc_chain(t)
    return hirzebruch_jung(d, d - _disc_chain(t[:-1]))


def ld_chain(t: Chain, j: int) -> Fraction:
    """Log discrepancy of the j-th component (1-based) of an admissible
    chain: (d(T^{>j}) + d(T^{<j})) / d(T)."""
    t = tuple(t)
    if not 1 <= j <= len(t):
        raise IndexError(f"position {j} out of range for chain of length {len(t)}")
    if not is_admissible(t):
        raise ValueError(f"log discrepancies need an admissible chain, got {list(t)}")
    return Fraction(_disc_chain(t[j:]) + _disc_chain(t[: j - 1]), _disc_chain(t))


def ld_fork(f: Fork, position: str | tuple[int, int]) -> Fraction:
    """Log discrepancy of a fork component.

    ``position`` is either ``"branch"`` or a pair ``(twig_index, j)``
    with both indices 1-based; twig entries are counted from the far tip,
    as they are stored, so ``(i, len(T_i))`` meets the branch.
    """
    lds = fork_lds(f, [position])
    if lds is None:
        raise ValueError("log discrepancies need an admissible fork")
    return lds[0]


def fork_lds(f: Fork, positions) -> list[Fraction] | None:
    """``ld_fork`` at each of ``positions``, reading the twig
    discriminants once; None if the fork is not admissible.

    With D = d(T_1) d(T_2) d(T_3), delta - 1 = (sum of D/d(T_i) - D) / D
    and branch - e = d(fork) / D, so ld(branch) = (sum D/d(T_i) - D) / d(fork).
    """
    num = _fork_excess(f)
    if num is None or num <= 0:  # delta <= 1
        return None
    den = _disc_fork(f)
    out = []
    for position in positions:
        if position == "branch":
            out.append(Fraction(num, den))
            continue
        i, j = position
        t = f.twigs[i - 1]
        if not 1 <= j <= len(t):
            raise IndexError(f"position {j} out of range for twig of length {len(t)}")
        out.append(Fraction(num * _disc_chain(t[: j - 1]) + den * _disc_chain(t[j:]),
                            den * _disc_chain(t)))
    return out
