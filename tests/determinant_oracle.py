"""Determinants and invariant factors by their definitions: the oracles
for the discriminant recursions of ``chains``, for its log discrepancy
numerators (by Cramer's rule) and for the Smith normal form of
``homology``.

``minors_invariant_factors`` takes gcds of minors, each by Gaussian
elimination over ``Fraction`` (``_det_fraction``), not ``chains.det``:
the Smith normal form uses ``chains.det`` for its own checks, and
``chains.det`` is itself checked against the cofactor expansion
(``_det_exact``).
"""

import itertools
from fractions import Fraction
from math import gcd

from delpezzo3.chains import det


def neg_intersection_matrix(weights: list[int], edges: list[tuple[int, int]]) -> list[list[int]]:
    """-M for an arbitrary weighted graph: the matrix with ``weights`` on
    the diagonal and -1 for each edge."""
    n = len(weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        m[i][i] = w
    for i, j in edges:
        m[i][j] -= 1
        m[j][i] -= 1
    return m


def tree_determinant(weights: list[int], edges: list[tuple[int, int]]) -> int:
    """det(-intersection matrix) of an arbitrary weighted graph.  Used as
    the independent oracle for the chain/fork recursions.
    """
    return det(neg_intersection_matrix(weights, edges))


def cramer_ld_numerators(weights: list[int], edges: list[tuple[int, int]]) -> list[int]:
    """Each entry's log discrepancy times det(-M), by Cramer's rule.

    Adjunction gives K·E_k = w_k - 2, so the discrepancies a solve
    M a = w - 2 and ld_k = 1 + a_k (Kollár & Mori, *Birational Geometry of
    Algebraic Varieties*, §4.1); with N = -M, N a = 2 - w and
    ld_k det(N) = det(N) + det(N with column k replaced by 2 - w).
    """
    n = neg_intersection_matrix(weights, edges)
    d = det(n)
    out = []
    for k in range(len(weights)):
        replaced = [row[:k] + [2 - w] + row[k + 1:] for row, w in zip(n, weights)]
        out.append(d + det(replaced))
    return out


def minors_invariant_factors(m) -> tuple[int, ...]:
    """Invariant factors of a ``homology.IntMatrix`` via gcds of k x k
    minors; the independent oracle for the Smith normal form."""
    entries = [list(r) for r in m.entries]
    n = min(m.rows, m.cols)
    dets_prev = 1
    out = []
    for k in range(1, n + 1):
        g = 0
        for rows, cols in itertools.product(itertools.combinations(range(m.rows), k),
                                            itertools.combinations(range(m.cols), k)):
            g = gcd(g, _det_fraction([[entries[i][j] for j in cols] for i in rows]))
            if g == 1:
                break
        if g == 0:
            out.extend([0] * (n - len(out)))
            break
        out.append(g // dets_prev)
        dets_prev = g
    return tuple(out)


def _det_exact(sub) -> int:
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * _det_exact(minor)
    return total


def _det_fraction(sub) -> int:
    """The determinant by Gaussian elimination in integer row operations:
    row r below the pivot row c becomes pivot * row r - m[r][c] * row c,
    which multiplies the determinant by the pivot.  So the determinant is
    the product of the pivots, negated for each row swap, over the product
    of those multipliers: a ``Fraction`` whose denominator must be 1."""
    m = [list(row) for row in sub]
    n = len(m)
    num = den = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            num = -num
        pivot = m[c][c]
        num *= pivot
        for r in range(c + 1, n):
            if m[r][c]:
                m[r] = [pivot * x - m[r][c] * y for x, y in zip(m[r], m[c])]
                den *= pivot
    det = Fraction(num, den)
    assert det.denominator == 1
    return int(det)
