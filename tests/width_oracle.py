"""Two earlier forms of the width criterion, kept as oracles for
``boundary.width_check`` and the fork functions of ``chains``.

The first computes it entry by entry: admissibility, component shape and
every fork's delta/e recomputed for each horizontal entry, and each log
discrepancy a ``Fraction`` of discriminants looked up slice by slice
(``delpezzo_check_width``, ``ld_chain``, ``ld_fork``), together with the
general ampleness criterion, of which the width forms are special cases.

The second is the integer width check that one pass of twig continuants
replaced (``width_check``): each fork built as a ``chains.Fork``, its
twigs checked again and its discriminants looked up per twig and per
twig minus its branch-adjacent entry (``_fork_excess``, ``_disc_fork``),
its marked entries' terms read in ``fork_ld_terms``, and each marked
chain's terms in ``chain_ld_terms``, the position-selecting form that
``chains.chain_terms`` replaced.

Every discriminant here comes from ``disc_chain``, a continuant
recurrence of this module's own, which with ``dual_chain`` is also the
oracle for ``chains.discriminant``, ``continuants`` and ``dual_chain``.
"""

from fractions import Fraction

from delpezzo3.boundary import BoundaryGraph, CheckResult, DecoratedType, Entry
from delpezzo3.chains import Fork, continuants, hirzebruch_jung, is_admissible


def disc_chain(t) -> int:
    """d(t), by the recurrence d([a_1..a_n]) = a_n d([a_1..a_{n-1}]) -
    d([a_1..a_{n-2}]) of its own: the oracle for ``chains.discriminant``."""
    prev2, prev1 = 0, 1
    for a in t:
        prev2, prev1 = prev1, a * prev1 - prev2
    return prev1


def dual_chain(t) -> tuple[int, ...]:
    """``chains.dual_chain`` of a nonempty admissible chain, as it was
    computed from d(T) and d(T minus its last entry), each by ``disc_chain``."""
    d = disc_chain(t)
    return hirzebruch_jung(d, d - disc_chain(t[:-1]))


def comp_weights(comp) -> tuple | Fork:
    """Undecorated shape of a component: a weight tuple or a chains.Fork."""
    if comp[0] == "chain":
        return tuple(e.weight for e in comp[1])
    return Fork(comp[1].weight, tuple(tuple(e.weight for e in t) for t in comp[2]))


def fork_delta_e(f: Fork) -> tuple[Fraction, Fraction]:
    """delta = sum 1/d(T_i), e = sum d(T_i minus last tip)/d(T_i)."""
    delta = sum(Fraction(1, disc_chain(t)) for t in f.twigs)
    e = sum(Fraction(disc_chain(t[:-1]), disc_chain(t)) for t in f.twigs)
    return delta, e


def ld_chain(t, j: int) -> Fraction:
    """(d(T^{>j}) + d(T^{<j})) / d(T), each slice's discriminant looked
    up on its own."""
    return Fraction(disc_chain(t[j:]) + disc_chain(t[: j - 1]), disc_chain(t))


def fork_admissible(f: Fork) -> bool:
    """Branch >= 2, admissible twigs and sum 1/d(T_i) > 1, by the moved
    ``_fork_excess``."""
    excess = _fork_excess(f)
    return excess is not None and excess > 0


def admissible(d: DecoratedType) -> bool:
    """Every component of ``d`` admissible, forks by ``fork_admissible``."""
    return all(
        fork_admissible(shape) if isinstance(shape, Fork) else is_admissible(shape)
        for shape in map(comp_weights, d.components)
    )


def ld_fork(f: Fork, position) -> Fraction:
    if position != "branch":
        if not isinstance(position, (tuple, list)) or len(position) != 2:
            raise ValueError(f"fork position {position!r} is neither 'branch' nor a pair (twig, j)")
        i, j = position
        if not 1 <= i <= 3:
            raise IndexError(f"twig {i} out of range for a fork of three twigs")
        t = f.twigs[i - 1]
        if not 1 <= j <= len(t):
            raise IndexError(f"position {j} out of range for twig of length {len(t)}")
    if not fork_admissible(f):
        raise ValueError("log discrepancies need an admissible fork")
    delta, e = fork_delta_e(f)
    ld_branch = (delta - 1) / (f.branch - e)
    if position == "branch":
        return ld_branch
    return (ld_branch * disc_chain(t[: j - 1]) + disc_chain(t[j:])) / disc_chain(t)


def horizontal_positions(d: DecoratedType) -> list[tuple[int, object]]:
    """(component index, position) of each horizontal entry, where the
    position is a 1-based chain index, "branch", or (twig, index)."""
    out = []
    for ci, comp in enumerate(d.components):
        if comp[0] == "chain":
            for j, e in enumerate(comp[1], start=1):
                if e.horizontal:
                    out.append((ci, j))
        else:
            if comp[1].horizontal:
                out.append((ci, "branch"))
            for ti, twig in enumerate(comp[2], start=1):
                for j, e in enumerate(twig, start=1):
                    if e.horizontal:
                        out.append((ci, (ti, j)))
    return out


def entry_at(d: DecoratedType, ci: int, pos) -> Entry:
    comp = d.components[ci]
    if comp[0] == "chain":
        return comp[1][pos - 1]
    if pos == "branch":
        return comp[1]
    ti, j = pos
    return comp[2][ti - 1][j - 1]


def ld(d: DecoratedType, ci: int, pos) -> Fraction:
    """Log discrepancy of the entry, within its connected component."""
    comp = d.components[ci]
    shape = comp_weights(comp)
    if comp[0] == "chain":
        return ld_chain(shape, pos)
    return ld_fork(shape, pos)


def delpezzo_check_width(d: DecoratedType) -> CheckResult:
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    positions = horizontal_positions(d)
    if not admissible(d):
        raise ValueError("log discrepancies undefined: non-admissible component")
    if d.width == 3:
        lhs = sum((ld(d, ci, pos) for ci, pos in positions), Fraction(0))
        rhs = Fraction(1)
    elif d.width == 2:
        lhs = Fraction(0)
        for ci, pos in positions:
            mult = 2 if entry_at(d, ci, pos).two_section else 1
            lhs += ld(d, ci, pos) * mult
        rhs = Fraction(1)
    else:
        (ci, pos), = positions
        lhs = ld(d, ci, pos)
        rhs = Fraction(1, 3)
    return CheckResult(lhs > rhs, lhs, rhs)


def delpezzo_check_general(
    d: DecoratedType,
    fiber_degrees: list[int],
    fiber_dot_boundary: int,
) -> CheckResult:
    """The ampleness criterion: sum of ld(H_j) (H_j . F) > D . F - 2.

    ``fiber_degrees`` lists H_j . F for the horizontal entries in document
    order; log discrepancies are taken within each component.
    """
    positions = horizontal_positions(d)
    if len(fiber_degrees) != len(positions):
        raise ValueError(
            f"{len(positions)} horizontal components but {len(fiber_degrees)} degrees"
        )
    if not admissible(d):
        raise ValueError("log discrepancies undefined: non-admissible component")
    lhs = Fraction(0)
    for degree, (ci, pos) in zip(fiber_degrees, positions):
        lhs += ld(d, ci, pos) * degree
    rhs = Fraction(fiber_dot_boundary - 2)
    return CheckResult(lhs > rhs, lhs, rhs)


# -- the integer width check that the one pass of twig continuants replaced ------


def _disc_fork(f: Fork) -> int:
    # Peel the fork at the branch: d = b * prod(d_i) - sum over twigs of
    # d(twig minus its branch-adjacent entry) * prod of the others.
    ds = [disc_chain(t) for t in f.twigs]
    total = f.branch * ds[0] * ds[1] * ds[2]
    for i, t in enumerate(f.twigs):
        rest = 1
        for j, d in enumerate(ds):
            if j != i:
                rest *= d
        total -= disc_chain(t[:-1]) * rest
    return total


def _fork_excess(f: Fork) -> int | None:
    """D (sum of 1/d(T_i) - 1) with D = d(T_1) d(T_2) d(T_3), an integer
    of the sign of sum 1/d(T_i) - 1; None if the branch is below 2 or a
    twig is not admissible."""
    if f.branch < 2 or not all(is_admissible(t) for t in f.twigs):
        return None
    ds = [disc_chain(t) for t in f.twigs]
    big_d = ds[0] * ds[1] * ds[2]
    return sum(big_d // d for d in ds) - big_d


def chain_ld_terms(t, js) -> list[tuple[int, int]]:
    """The log discrepancy of the j-th component (1-based) of an
    admissible chain, (d(T^{>j}) + d(T^{<j})) / d(T), as a pair
    (numerator, denominator) of integers for each j of ``js``."""
    prefix, suffix = continuants(t)
    return [(suffix[j] + prefix[j - 1], prefix[-1]) for j in js]


def fork_ld_terms(f: Fork, positions) -> list[tuple[int, int]] | None:
    """``ld_fork`` at each of ``positions`` as a pair (numerator,
    denominator) of integers, reading each twig's continuants once;
    None if the fork is not admissible.

    With D = d(T_1) d(T_2) d(T_3), delta - 1 = (sum of D/d(T_i) - D) / D
    and branch - e = d(fork) / D, so ld(branch) = (sum D/d(T_i) - D) / d(fork).
    """
    num = _fork_excess(f)
    if num is None or num <= 0:  # delta <= 1
        return None
    den = _disc_fork(f)
    twigs: dict = {}
    out = []
    for position in positions:
        if position == "branch":
            out.append((num, den))
            continue
        i, j = position
        t = f.twigs[i - 1]
        if not 1 <= j <= len(t):
            raise IndexError(f"position {j} out of range for twig of length {len(t)}")
        if i not in twigs:
            twigs[i] = continuants(t)
        prefix, suffix = twigs[i]
        out.append((num * prefix[j - 1] + den * suffix[j], den * prefix[-1]))
    return out


def width_check(d: DecoratedType | BoundaryGraph) -> CheckResult | None:
    """The width form of the ampleness criterion, or None if a component
    is not admissible, so the result also decides admissibility.

    Width 3: ld(H1)+ld(H2)+ld(H3) > 1; width 2: ld(H1)+2 ld(H2) > 1 with
    H2 the 2-section; width 1: ld(H) > 1/3.  The returned lhs/rhs follow
    these normalizations.  Only an admissible type with a width outside
    1-3 raises ValueError.  One pass over the components of ``d.walk()``:
    the lhs is summed as one integer fraction from each marked chain's
    continuants and each fork's discriminants, and reduced once.  Chains
    are always admissible: every weight is at least 2."""
    entries, layout = d.walk()
    num, den = 0, 1
    for part in layout:
        if part[0] == "chain":
            marked = [(j, i) for j, i in enumerate(part[1], start=1) if entries[i].horizontal]
            if not marked:
                continue
            weights = tuple([entries[i].weight for i in part[1]])
            terms = chain_ld_terms(weights, [j for j, _ in marked])
        else:
            marked = [("branch", part[1])] if entries[part[1]].horizontal else []
            for ti, twig in enumerate(part[2], start=1):
                marked += [((ti, j), i) for j, i in enumerate(twig, start=1) if entries[i].horizontal]
            twigs = tuple([tuple([entries[i].weight for i in t]) for t in part[2]])
            terms = fork_ld_terms(Fork(entries[part[1]].weight, twigs), [pos for pos, _ in marked])
            if terms is None:
                return None
        for (x, y), (_, i) in zip(terms, marked):
            num, den = num * y + (2 * x if entries[i].two_section else x) * den, den * y
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    lhs = Fraction(num, den)
    rhs = Fraction(1, 3) if d.width == 1 else Fraction(1)
    return CheckResult(lhs > rhs, lhs, rhs)
