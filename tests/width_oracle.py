"""The width criterion as it was computed before the one-pass
``boundary.width_check``: admissibility, component shape and every fork's
delta/e recomputed for each horizontal entry.  Kept as the oracle for the
one-pass verdict and for ``chains.fork_lds``."""

from fractions import Fraction

from delpezzo3.boundary import CheckResult, DecoratedType, comp_weights
from delpezzo3.chains import Fork, _disc_chain, is_admissible, ld_chain


def fork_delta_e(f: Fork) -> tuple[Fraction, Fraction]:
    """delta = sum 1/d(T_i), e = sum d(T_i minus last tip)/d(T_i)."""
    delta = sum(Fraction(1, _disc_chain(t)) for t in f.twigs)
    e = sum(Fraction(_disc_chain(t[:-1]), _disc_chain(t)) for t in f.twigs)
    return delta, e


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


def ld(d: DecoratedType, ci: int, pos) -> Fraction:
    comp = d.components[ci]
    shape = comp_weights(comp)
    if comp[0] == "chain":
        return ld_chain(shape, pos)
    return ld_fork(shape, pos)


def delpezzo_check_width(d: DecoratedType) -> CheckResult:
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    positions = d.horizontal_positions()
    if not d.is_admissible():
        raise ValueError("log discrepancies undefined: non-admissible component")
    if d.width == 3:
        lhs = sum((ld(d, ci, pos) for ci, pos in positions), Fraction(0))
        rhs = Fraction(1)
    elif d.width == 2:
        lhs = Fraction(0)
        for ci, pos in positions:
            mult = 2 if d.entry_at(ci, pos).two_section else 1
            lhs += ld(d, ci, pos) * mult
        rhs = Fraction(1)
    else:
        (ci, pos), = positions
        lhs = ld(d, ci, pos)
        rhs = Fraction(1, 3)
    return CheckResult(lhs > rhs, lhs, rhs)
