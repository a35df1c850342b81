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

#: Sentinel standing for the formal chain ``[(2)_{-1}]`` used by the star
#: composition conventions.
TWO_NEG1 = "(2)_{-1}"


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


def tree_determinant(weights: list[int], edges: list[tuple[int, int]]) -> int:
    """det(-intersection matrix) of an arbitrary weighted graph: the
    matrix with ``weights`` on the diagonal and -1 for each edge.  Used as
    the independent oracle for the chain/fork recursions.
    """
    n = len(weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        m[i][i] = w
    for i, j in edges:
        m[i][j] -= 1
        m[j][i] -= 1
    return det(m)


def is_admissible(t: Chain | Fork) -> bool:
    """Chains: all weights >= 2. Forks: branch >= 2, admissible twigs and
    sum of reciprocal twig discriminants > 1."""
    if isinstance(t, Fork):
        if t.branch < 2:
            return False
        if not all(is_admissible(tw) for tw in t.twigs):
            return False
        s = sum(Fraction(1, _disc_chain(tw)) for tw in t.twigs)
        return s > 1
    return all(a >= 2 for a in t)


def is_log_canonical_fork(f: Fork) -> bool:
    """Branch >= 2, admissible twigs, sum of 1/d(T_i) >= 1 (allows = 1)."""
    if f.branch < 2 or not all(is_admissible(tw) for tw in f.twigs):
        return False
    return sum(Fraction(1, _disc_chain(tw)) for tw in f.twigs) >= 1


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


def star_compose(t1: Chain | str, t2: Chain) -> Chain:
    """The '*' composition of chain types.

    [a_1..a_k] * [b_1..b_l] = [a_1..a_{k-1}, a_k + b_1 - 1, b_2..b_l],
    with [(2)_{-1}] * [b_1..b_l] = [b_1 + 1, b_2..b_l].  The companion
    convention [(2)_{-1}, b_1, ...] = [b_2, ...] is exposed as
    :func:`drop_after_two_neg1`.
    """
    t2 = tuple(t2)
    if t1 == TWO_NEG1:
        if not t2:
            raise ValueError("[(2)_{-1}] * [] is undefined")
        return (t2[0] + 1,) + t2[1:]
    t1 = tuple(t1)
    if not t1:
        raise ValueError("left operand of * must be nonempty")
    if not t2:
        raise ValueError("right operand of * must be nonempty")
    return t1[:-1] + (t1[-1] + t2[0] - 1,) + t2[1:]


def smooth_point_extension(t_star: Chain, k: int) -> Chain:
    """The tail T' making [T, 1, T'] contract to a smooth point.

    ``t_star`` is the dual chain of T; the parameter k >= -1 indexes the
    family so that the contraction increases the self-intersection of a
    curve meeting the first tip of [T, 1, T'] by exactly k + 2.  k = -1
    drops the last entry of T*; k >= 0 star-composes with [(2)_{k+1}].
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    t_star = tuple(t_star)
    if k == -1:
        return t_star[:-1]
    return star_compose(t_star, (2,) * (k + 1)) if t_star else (2,) * (k + 1)


def drop_after_two_neg1(t: Chain) -> Chain:
    """[(2)_{-1}, b_1, b_2, ...] = [b_2, ...] (convention of the star
    calculus; the argument is [b_1, b_2, ...])."""
    if not t:
        raise ValueError("[(2)_{-1}] needs a following entry to absorb")
    return tuple(t)[1:]


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
    if f.branch < 2 or not all(is_admissible(t) for t in f.twigs):
        return None
    ds = [_disc_chain(t) for t in f.twigs]
    big_d = ds[0] * ds[1] * ds[2]
    num = sum(big_d // d for d in ds) - big_d
    if num <= 0:  # delta <= 1
        return None
    den = f.branch * big_d - sum(
        _disc_chain(t[:-1]) * (big_d // d) for t, d in zip(f.twigs, ds)
    )
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
                            den * ds[i - 1]))
    return out


# ---------------------------------------------------------------------------
# Blowdown simulation on abstract weight chains (oracle for dual_chain and
# the star-extension rule).

def _contract_moves(w: Chain) -> list[Chain]:
    moves = []
    for i, a in enumerate(w):
        if a != 1:
            continue
        if len(w) == 1:
            moves.append((0,))
            continue
        if i == 0:
            moves.append((w[1] - 1,) + w[2:])
        elif i == len(w) - 1:
            moves.append(w[:-2] + (w[-2] - 1,))
        else:
            moves.append(w[: i - 1] + (w[i - 1] - 1, w[i + 1] - 1) + w[i + 2 :])
    return moves


@lru_cache(maxsize=None)
def contracts_to_zero_curve(w: Chain) -> bool:
    """Whether the chain can be contracted to a single 0-curve by
    repeatedly blowing down (-1)-components."""
    if w == (0,):
        return True
    return any(contracts_to_zero_curve(m) for m in _contract_moves(w))


@lru_cache(maxsize=None)
def contract_marker_gain(state: tuple[int, Chain]) -> int | None:
    """Contract the whole chain to nothing; the marker weight sits to the
    left of the first entry.  Returns the total decrease of the marker
    weight (= increase of the marked curve's self-intersection), or None
    if no contraction order empties the chain."""
    marker, w = state
    if not w:
        return 0
    results = []
    for i, a in enumerate(w):
        if a != 1:
            continue
        if i == 0:
            rest = (w[1] - 1,) + w[2:] if len(w) > 1 else ()
            sub = contract_marker_gain((marker - 1, rest))
            if sub is not None:
                results.append(sub + 1)
        elif i == len(w) - 1:
            sub = contract_marker_gain((marker, w[:-2] + (w[-2] - 1,)))
            if sub is not None:
                results.append(sub)
        else:
            rest = w[: i - 1] + (w[i - 1] - 1, w[i + 1] - 1) + w[i + 2 :]
            sub = contract_marker_gain((marker, rest))
            if sub is not None:
                results.append(sub)
    if not results:
        return None
    # All successful orders give the same numerical outcome.
    assert len(set(results)) == 1, (state, results)
    return results[0]
