"""Exact arithmetic on weighted chains and forks.

A chain ``[a_1, ..., a_n]`` is stored as a tuple of integers, each entry
being minus the self-intersection of the corresponding rational curve.  A
fork ``<b; T_1, T_2, T_3>`` is a branch weight together with three chains,
each ordered from its far tip, so its last entry is adjacent to the branch.

Everything here is exact: discriminants are Python integers, log
discrepancies are ``fractions.Fraction``.

The two kinds of record that the package's modules define are made here,
so that importing them compiles little: ``tuple_record`` turns a class
body into a ``collections.namedtuple``, which compiles only its
``__new__``, and ``Record`` is the frozen base of the slotted value
classes, ``Fork`` the first of them, which compile nothing.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, prod
from operator import add

Chain = tuple[int, ...]

# what a class body holds besides its fields, defaults, docstring and methods
_NOT_COPIED = frozenset(("__module__", "__annotations__", "__dict__", "__weakref__"))


def tuple_record(cls):
    """The ``collections.namedtuple`` of the fields annotated in ``cls``,
    in order, with the defaults, docstring and methods of its body: the
    class that ``typing.NamedTuple`` builds, without evaluating the
    annotations.  A field without a default after one with a default
    raises TypeError."""
    fields = list(cls.__annotations__)
    body = {k: v for k, v in vars(cls).items() if k not in _NOT_COPIED}
    if body["__doc__"] is None:
        del body["__doc__"]  # keep the namedtuple's own
    defaults = [body.pop(f) for f in fields if f in body]
    if any(f in cls.__dict__ for f in fields[:len(fields) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    out = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    out.__qualname__ = cls.__qualname__
    for name, value in body.items():
        setattr(out, name, value)
    return out


class Record:
    """A frozen value whose fields, ``_fields``, are slots set once by the
    subclass's own ``__init__`` (with ``object.__setattr__``).  Records
    of one class with equal fields are equal and hash alike (a record
    with an unhashable field is unhashable); ``repr`` reads
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``; a copy or an unpickled record is
    built again by the constructor from the fields, as ``replace`` is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """The record with the fields named in ``changes`` replaced, built
        by the constructor; an unknown field is a TypeError."""
        for f in self._fields:
            if f not in changes:
                changes[f] = getattr(self, f)
        return type(self)(**changes)


class Fork(Record):
    """A fork; each twig is ordered from its far tip toward the branch,
    so the LAST entry of a twig is the one meeting the branch."""

    __slots__ = _fields = ("branch", "twigs")

    def __init__(self, branch: int, twigs: tuple[Chain, Chain, Chain]) -> None:
        if len(twigs) != 3 or any(len(t) == 0 for t in twigs):
            raise ValueError("a fork needs exactly three nonempty twigs")
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "twigs", twigs)

    def sorted_twigs(self) -> tuple[Chain, Chain, Chain]:
        """Twigs in a canonical order (``twig_key``)."""
        return tuple(sorted(self.twigs, key=twig_key))  # type: ignore[return-value]


def twig_key(t: Chain) -> tuple:
    """The canonical order of a fork's twigs: by discriminant, then weights."""
    return discriminant(t), t


def discriminant(t: Chain | Fork | list) -> int:
    """det(-intersection matrix); 1 for the empty divisor.

    Accepts a chain, a fork, or a list of components (disjoint union,
    where the discriminant is the product over components).
    """
    if isinstance(t, Fork):
        return fork_excess(t.branch, t.twigs)[1]
    if isinstance(t, list):
        return prod(map(discriminant, t))
    return _prefixes(t)[-1]


def _prefixes(t) -> list[int]:
    """``[d(t[:k]) for k = 0..len(t)]``, by the continuant recurrence
    d([a_1..a_k]) = a_k d([a_1..a_{k-1}]) - d([a_1..a_{k-2}])."""
    out, prev2, prev1 = [1], 0, 1
    for a in t:
        prev2, prev1 = prev1, a * prev1 - prev2
        out.append(prev1)
    return out


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


def _fork_weights_ok(f: Fork) -> bool:
    """Branch and every twig weight at least 2."""
    return f.branch >= 2 and all(a >= 2 for t in f.twigs for a in t)


def is_admissible(t: Chain | Fork) -> bool:
    """Chains: all weights >= 2. Forks: branch >= 2, admissible twigs and
    sum of reciprocal twig discriminants > 1."""
    if isinstance(t, Fork):
        return _fork_weights_ok(t) and fork_excess(t.branch, t.twigs)[0] > 0
    return all(a >= 2 for a in t)


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
    *_, d_head, d = _prefixes(t)
    return hirzebruch_jung(d, d - d_head)


def continuants(t: Chain) -> tuple[list[int], list[int]]:
    """The prefix and suffix discriminants of a chain, in one pass each
    way: ``prefix[k] = d(t[:k])`` and ``suffix[k] = d(t[k:])`` for
    ``k = 0..len(t)``, so ``d(t) = prefix[-1] = suffix[0]``."""
    suffix = _prefixes(reversed(t))
    suffix.reverse()
    return _prefixes(t), suffix


def run_prefixes(runs) -> list[int]:
    """``_prefixes`` stepped over runs ``(weight, count)``, each ``count``
    (at least 0) entries of one weight: ``[d(R_1 ... R_k) for k =
    0..len(runs)]``.  A run of n 2s is one step: along it d grows by the
    constant difference d - d', with d' the discriminant before the last
    entry, so (d, d') -> ((n+1) d - n d', n d - (n-1) d').  A run of
    another weight steps entry by entry."""
    out, prev2, prev1 = [1], 0, 1
    for w, n in runs:
        if w == 2:
            prev2, prev1 = n * prev1 - (n - 1) * prev2, (n + 1) * prev1 - n * prev2
        else:
            for _ in range(n):
                prev2, prev1 = prev1, w * prev1 - prev2
        out.append(prev1)
    return out


def run_chain_terms(runs: list, marked) -> tuple[int, list[int]]:
    """``chain_terms`` of the chain that ``runs`` expands to, read at the
    single entries ``marked`` (indices into ``runs`` of runs of count 1):
    ``(d, nums)`` with d = d(T) and ``nums[i] = d(T^{<j}) + d(T^{>j})``
    for the entry j of run ``marked[i]``, in one pass of ``run_prefixes``
    each way, so in time linear in the number of runs.  A marked run of
    another count raises ValueError."""
    prefix = run_prefixes(runs)
    suffix = run_prefixes(reversed(runs))  # suffix[m]: the last m runs
    last = len(runs) - 1
    nums = []
    for k in marked:
        if runs[k][1] != 1:
            raise ValueError(f"run {k} of {runs} is not a single entry")
        nums.append(prefix[k] + suffix[last - k])
    return prefix[-1], nums


def chain_terms(t: Chain) -> tuple[int, list[int]]:
    """Every entry's log discrepancy over d(T) of an admissible chain, in
    one pass of continuants: ``(d, nums)`` with d = d(T) and
    ``nums[j - 1] = d(T^{>j}) + d(T^{<j})``, so ld_j = nums[j - 1] / d."""
    prefix, suffix = continuants(t)
    return prefix[-1], list(map(add, prefix, suffix[1:]))


def fork_excess(branch: int, twigs) -> tuple[int, int]:
    """The excess and the discriminant of ``fork_terms``, from the last
    two prefix discriminants of each twig alone."""
    return _excess_and_disc(branch, *[_prefixes(t)[-2:] for t in twigs])


def _excess_and_disc(branch: int, t1, t2, t3) -> tuple[int, int]:
    """``fork_excess`` from each twig's (d(T minus its branch-adjacent
    entry), d(T))."""
    (e1, d1), (e2, d2), (e3, d3) = t1, t2, t3
    q1, q2, q3 = d2 * d3, d1 * d3, d1 * d2  # D / d(T_i)
    return q1 + q2 + q3 - d1 * q1, branch * d1 * q1 - e1 * q1 - e2 * q2 - e3 * q3


def fork_terms(branch: int, twigs) -> tuple[int, int, list[int] | None]:
    """One pass of continuants over the twigs of ``<branch; twigs>``,
    whose weights it does not check: the excess D (sum of 1/d(T_i) - 1)
    with D = d(T_1) d(T_2) d(T_3), an integer of the sign of
    sum 1/d(T_i) - 1; the discriminant d(fork); and, if the excess is
    positive and no twig discriminant is 0, every entry's log discrepancy
    times d(fork), in ``boundary.comp_entries`` order (the branch, then
    each twig as stored), else None.

    A twig T is stored from its far tip, so d(T) = prefix[-1] and
    d(T minus its branch-adjacent entry) = prefix[-2].  Peeling the fork
    at the branch gives d(fork) = b D - sum of d(T_i minus that entry)
    D/d(T_i) (``fork_excess``); as delta - 1 = excess / D and
    branch - e = d(fork) / D, ld(branch) = excess / d(fork), and the j-th
    entry of T_i has ld = (ld(branch) d(T_i^{<j}) + d(T_i^{>j})) / d(T_i).
    The division by d(T) is exact for any weights, as d(T^{<j}) is
    congruent to d(T minus its last entry) d(T^{>j}) modulo d(T).
    """
    conts = [continuants(t) for t in twigs]
    excess, disc = _excess_and_disc(branch, *[prefix[-2:] for prefix, _ in conts])
    if excess <= 0 or 0 in [prefix[-1] for prefix, _ in conts]:  # D = 0
        return excess, disc, None
    nums = [excess]
    for prefix, suffix in conts:
        nums += [(excess * p + disc * s) // prefix[-1] for p, s in zip(prefix, suffix[1:])]
    return excess, disc, nums


def ld_chain(t: Chain, j: int) -> Fraction:
    """Log discrepancy of the j-th component (1-based) of an admissible
    chain: (d(T^{>j}) + d(T^{<j})) / d(T)."""
    t = tuple(t)
    if not 1 <= j <= len(t):
        raise IndexError(f"position {j} out of range for chain of length {len(t)}")
    if not is_admissible(t):
        raise ValueError(f"log discrepancies need an admissible chain, got {list(t)}")
    d, nums = chain_terms(t)
    return Fraction(nums[j - 1], d)


def ld_fork(f: Fork, position: str | tuple[int, int]) -> Fraction:
    """Log discrepancy of a fork component.

    ``position`` is either ``"branch"`` or a pair ``(twig_index, j)``
    with both indices 1-based; twig entries are counted from the far tip,
    as they are stored, so ``(i, len(T_i))`` meets the branch.  A twig
    index outside 1..3 or an entry index outside its twig raises
    IndexError; a position that is neither ``"branch"`` nor a pair, or a
    fork that is not admissible, raises ValueError.
    """
    k = 0  # the position's index in fork_terms' nums
    if position != "branch":
        if not isinstance(position, (tuple, list)) or len(position) != 2:
            raise ValueError(f"fork position {position!r} is neither 'branch' nor a pair (twig, j)")
        i, j = position
        if not 1 <= i <= 3:
            raise IndexError(f"twig {i} out of range for a fork of three twigs")
        t = f.twigs[i - 1]
        if not 1 <= j <= len(t):
            raise IndexError(f"position {j} out of range for twig of length {len(t)}")
        k = sum(map(len, f.twigs[:i - 1])) + j
    _, disc, nums = fork_terms(f.branch, f.twigs)
    if nums is None or not _fork_weights_ok(f):
        raise ValueError("log discrepancies need an admissible fork")
    return Fraction(nums[k], disc)
