"""The width criterion as it was computed before the one-pass
``boundary.width_check``: admissibility, component shape and every fork's
delta/e recomputed for each horizontal entry, and each log discrepancy a
``Fraction`` of discriminants looked up slice by slice.  Kept as the
oracle for the one-pass verdict with its integer lhs and for the
continuant formulas of ``chains.ld_chain`` and ``chains.fork_lds``,
together with the general ampleness criterion, of which the width forms
are special cases."""

from fractions import Fraction

from delpezzo3.boundary import CheckResult, DecoratedType, Entry, comp_weights
from delpezzo3.chains import Fork, _disc_chain, is_admissible


def fork_delta_e(f: Fork) -> tuple[Fraction, Fraction]:
    """delta = sum 1/d(T_i), e = sum d(T_i minus last tip)/d(T_i)."""
    delta = sum(Fraction(1, _disc_chain(t)) for t in f.twigs)
    e = sum(Fraction(_disc_chain(t[:-1]), _disc_chain(t)) for t in f.twigs)
    return delta, e


def ld_chain(t, j: int) -> Fraction:
    """(d(T^{>j}) + d(T^{<j})) / d(T), each slice's discriminant looked
    up on its own."""
    return Fraction(_disc_chain(t[j:]) + _disc_chain(t[: j - 1]), _disc_chain(t))


def ld_fork(f: Fork, position) -> Fraction:
    if not is_admissible(f):
        raise ValueError("log discrepancies need an admissible fork")
    delta, e = fork_delta_e(f)
    ld_branch = (delta - 1) / (f.branch - e)
    if position == "branch":
        return ld_branch
    i, j = position
    t = f.twigs[i - 1]
    if not 1 <= j <= len(t):
        raise IndexError(f"position {j} out of range for twig of length {len(t)}")
    return (ld_branch * _disc_chain(t[: j - 1]) + _disc_chain(t[j:])) / _disc_chain(t)


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
    if not d.is_admissible():
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
    if not d.is_admissible():
        raise ValueError("log discrepancies undefined: non-admissible component")
    lhs = Fraction(0)
    for degree, (ci, pos) in zip(fiber_degrees, positions):
        lhs += ld(d, ci, pos) * degree
    rhs = Fraction(fiber_dot_boundary - 2)
    return CheckResult(lhs > rhs, lhs, rhs)
