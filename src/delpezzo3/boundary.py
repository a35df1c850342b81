"""Decorated boundary graphs and the ampleness criterion.

A :class:`DecoratedType` is a disjoint union of weighted chains and forks
whose entries carry fibration decorations: horizontal marks (bold numbers
in the usual notation), the 2-section mark (underline), and labels of the
vertical (-1)-curves meeting that component.  A label occurring twice on
one entry means the (-1)-curve meets it in a node (contact 2).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from delpezzo3.chains import (
    Fork,
    fork_lds,
    is_admissible,
    is_log_canonical_fork,
    ld_chain,
    ld_fork,
)

CHAR_TAGS = ("any", "ne2", "eq2", "ne23", "eq3")


@dataclass(frozen=True)
class Entry:
    """One boundary component: a weight with its decorations."""

    weight: int
    horizontal: bool = False
    two_section: bool = False
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.two_section and not self.horizontal:
            raise ValueError("the 2-section mark implies the horizontal mark")
        labels = tuple(sorted(self.labels))
        mults = tuple(sorted(map(labels.count, set(labels)))) if len(labels) > 1 else (1,) * len(labels)
        if mults and mults[-1] > 2:
            raise ValueError("a (-1)-curve meets a component at most twice")
        object.__setattr__(self, "labels", labels)
        # not a field: equality, hashing and repr ignore it
        object.__setattr__(
            self, "_skeleton", (self.weight, self.horizontal, self.two_section, mults)
        )

    def skeleton(self) -> tuple:
        """Label-name-free data used by canonical forms."""
        return self._skeleton


Component = tuple  # ("chain", entries) | ("fork", branch, (t1, t2, t3))


def chain_comp(entries) -> Component:
    return ("chain", tuple(entries))


def fork_comp(branch: Entry, twigs) -> Component:
    twigs = tuple(tuple(t) for t in twigs)
    if len(twigs) != 3 or any(not t for t in twigs):
        raise ValueError("a fork needs three nonempty twigs")
    return ("fork", branch, twigs)


def walk_components(adj) -> list:
    """Split the graph on nodes ``0..n-1`` (``adj[i]`` lists the
    neighbors of node i) into chains and forks of node indices.

    Components come in order of their smallest node, as
    ``("chain", [i, ...])`` read from the smaller tip, or
    ``("fork", b, (twig1, twig2, twig3))`` with the twigs in order of
    their node next to the branch b, each listed tip first.  A cycle, or
    a tree that is neither a chain nor a fork, raises ``ValueError``.
    """
    seen = [False] * len(adj)
    out = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for i in comp:
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        if sum(len(adj[i]) for i in comp) != 2 * (len(comp) - 1):
            raise ValueError("boundary component contains a cycle")
        branch = [i for i in comp if len(adj[i]) >= 3]
        if not branch:
            tip = min(i for i in comp if len(adj[i]) <= 1)
            out.append(("chain", _walk_path(adj, tip, None)))
        elif len(branch) == 1 and len(adj[branch[0]]) == 3:
            b = branch[0]
            twigs = tuple(_walk_path(adj, first, b)[::-1] for first in sorted(adj[b]))
            out.append(("fork", b, twigs))
        else:
            raise ValueError("boundary component is not a chain or fork")
    return out


def _walk_path(adj, start: int, prev) -> list[int]:
    """The path from ``start`` away from ``prev`` to the end of its arm."""
    path = [start]
    while True:
        nxts = [i for i in adj[path[-1]] if i != prev]
        if not nxts:
            return path
        prev = path[-1]
        path.append(nxts[0])


def place_entries(layout, entries) -> tuple[Component, ...]:
    """The components of a ``walk_components`` layout, with
    ``entries[i]`` at node i."""
    return tuple(
        chain_comp([entries[i] for i in part[1]])
        if part[0] == "chain"
        else fork_comp(entries[part[1]], [[entries[i] for i in t] for t in part[2]])
        for part in layout
    )


def comp_entries(comp: Component) -> list[Entry]:
    if comp[0] == "chain":
        return list(comp[1])
    return [comp[1]] + [e for t in comp[2] for e in t]


def comp_weights(comp: Component):
    """Undecorated shape: a weight tuple or a chains.Fork."""
    if comp[0] == "chain":
        return tuple(e.weight for e in comp[1])
    return Fork(
        comp[1].weight, tuple(tuple(e.weight for e in t) for t in comp[2])
    )


@dataclass(frozen=True)
class DecoratedType:
    components: tuple[Component, ...]
    width: int | None = None
    char_tag: str = "any"
    free_labels: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.char_tag not in CHAR_TAGS:
            raise ValueError(f"unknown characteristic tag {self.char_tag!r}")
        for e in self.entries():
            if e.weight < 2:
                raise ValueError("boundary weights must be >= 2")
        two_sections = [e for e in self.entries() if e.two_section]
        horizontals = [e for e in self.entries() if e.horizontal]
        if self.width is not None:
            if len(horizontals) != self.width:
                raise ValueError(
                    f"width {self.width} needs {self.width} horizontal marks,"
                    f" found {len(horizontals)}"
                )
            if self.width == 2 and len(two_sections) != 1:
                raise ValueError("width 2 needs exactly one 2-section mark")
            if self.width != 2 and two_sections:
                raise ValueError("2-section marks only occur in width 2")
        for label, total in self.attachment_multiplicities().items():
            if total > 3:
                raise ValueError(f"(-1)-curve {label} meets the boundary {total} > 3 times")

    # -- basic accessors ---------------------------------------------------

    def entries(self) -> list[Entry]:
        return [e for c in self.components for e in comp_entries(c)]

    def labels(self) -> frozenset[int]:
        out = set(self.free_labels)
        for e in self.entries():
            out.update(e.labels)
        return frozenset(out)

    def attachment_multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {l: 0 for l in self.free_labels}
        for e in self.entries():
            for l in e.labels:
                out[l] = out.get(l, 0) + 1
        return out

    def horizontal_positions(self) -> list[tuple[int, object]]:
        """(component index, position) of each horizontal entry, where the
        position is a 1-based chain index, "branch", or (twig, index)."""
        out = []
        for ci, comp in enumerate(self.components):
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

    def entry_at(self, ci: int, pos) -> Entry:
        comp = self.components[ci]
        if comp[0] == "chain":
            return comp[1][pos - 1]
        if pos == "branch":
            return comp[1]
        ti, j = pos
        return comp[2][ti - 1][j - 1]

    def ld(self, ci: int, pos) -> Fraction:
        """Log discrepancy of the entry, within its connected component."""
        comp = self.components[ci]
        shape = comp_weights(comp)
        if comp[0] == "chain":
            return ld_chain(shape, pos)
        return ld_fork(shape, pos)

    def is_admissible(self) -> bool:
        return all(is_admissible(comp_weights(c)) for c in self.components)

    def is_log_canonical(self) -> bool:
        for c in self.components:
            shape = comp_weights(c)
            if isinstance(shape, Fork):
                if not is_log_canonical_fork(shape):
                    return False
            elif not is_admissible(shape):
                return False
        return True


@dataclass(frozen=True)
class CheckResult:
    satisfied: bool
    lhs: Fraction
    rhs: Fraction


def delpezzo_check_general(
    d: DecoratedType,
    fiber_degrees: list[int],
    fiber_dot_boundary: int,
) -> CheckResult:
    """The ampleness criterion: sum of ld(H_j) (H_j . F) > D . F - 2.

    ``fiber_degrees`` lists H_j . F for the horizontal entries in document
    order; log discrepancies are taken within each component.
    """
    positions = d.horizontal_positions()
    if len(fiber_degrees) != len(positions):
        raise ValueError(
            f"{len(positions)} horizontal components but {len(fiber_degrees)} degrees"
        )
    if not d.is_admissible():
        raise ValueError("log discrepancies undefined: non-admissible component")
    lhs = Fraction(0)
    for degree, (ci, pos) in zip(fiber_degrees, positions):
        lhs += d.ld(ci, pos) * degree
    rhs = Fraction(fiber_dot_boundary - 2)
    return CheckResult(lhs > rhs, lhs, rhs)


def delpezzo_check_width(d: DecoratedType) -> CheckResult:
    """Width-specific form of the criterion.

    Width 3: ld(H1)+ld(H2)+ld(H3) > 1; width 2: ld(H1)+2 ld(H2) > 1 with
    H2 the 2-section; width 1: ld(H) > 1/3.  The returned lhs/rhs follow
    these normalizations.
    """
    res = width_check(d)
    if res is None:
        raise ValueError("log discrepancies undefined: non-admissible component")
    return res


def width_check(d: DecoratedType) -> CheckResult | None:
    """``delpezzo_check_width`` in one pass over the components, but None
    if one is not admissible, so the result also decides admissibility.
    Only an admissible type with a width outside 1-3 raises ValueError.
    Each component's shape is built once, a fork's discriminants once for
    all its horizontal entries.  Chains are always admissible: every
    weight is at least 2.  The 2-section, which only width 2 allows,
    counts twice."""
    lhs = Fraction(0)
    for comp in d.components:
        shape = comp_weights(comp)
        if comp[0] == "chain":
            for j, e in enumerate(comp[1], start=1):
                if e.horizontal:
                    lhs += ld_chain(shape, j) * (2 if e.two_section else 1)
            continue
        marked = [("branch", comp[1])] if comp[1].horizontal else []
        for ti, twig in enumerate(comp[2], start=1):
            marked += [((ti, j), e) for j, e in enumerate(twig, start=1) if e.horizontal]
        lds = fork_lds(shape, [pos for pos, _ in marked])
        if lds is None:
            return None
        for ld, (_, e) in zip(lds, marked):
            lhs += ld * (2 if e.two_section else 1)
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    rhs = Fraction(1, 3) if d.width == 1 else Fraction(1)
    return CheckResult(lhs > rhs, lhs, rhs)


def singularity_type_of(d: DecoratedType) -> tuple:
    """The undecorated type: chains up to reversal, forks up to twig
    permutation, components sorted canonically."""
    out = []
    for comp in d.components:
        shape = comp_weights(comp)
        if isinstance(shape, Fork):
            out.append(("fork", shape.branch, shape.sorted_twigs()))
        else:
            out.append(("chain", min(shape, tuple(reversed(shape)))))
    return tuple(sorted(out))


def render_singularity_type(sing: tuple) -> str:
    parts = []
    for comp in sing:
        if comp[0] == "chain":
            parts.append("[" + ",".join(str(w) for w in comp[1]) + "]")
        else:
            twigs = ",".join(
                "[" + ",".join(str(w) for w in t) + "]" for t in comp[2]
            )
            parts.append(f"<{comp[1]};{twigs}>")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Canonical forms and graph automorphisms.


def _variants(comp: Component) -> list[Component]:
    """The orientations of a component, as components: a chain read from
    either end, a fork with its twigs in each order."""
    if comp[0] == "chain":
        return [comp, ("chain", comp[1][::-1])] if len(comp[1]) > 1 else [comp]
    return [("fork", comp[1], twigs) for twigs in itertools.permutations(comp[2])]


def _variant_skeleton(variant: Component) -> tuple:
    """A label-name-free key of one orientation: its shape, then each
    entry's skeleton and its labels' ids.  A label's id is the number of
    labels met before its first entry, so the fresh labels of one entry
    share an id and no name decides the key."""
    if variant[0] == "chain":
        shape: tuple = ("chain",)
    else:
        shape = ("fork", tuple(len(t) for t in variant[2]))
    partition: dict = {}
    local = []
    for e in comp_entries(variant):
        if e.labels:
            seen = len(partition)
            ids = [partition.setdefault(l, seen) for l in e.labels]
            ids.sort()
            local.append((e._skeleton, tuple(ids)))
        else:
            local.append((e._skeleton, ()))
    return shape + tuple(local)


def _canonical_variants(comp: Component):
    keyed = [(_variant_skeleton(v), v) for v in _variants(comp)]
    best = min(k for k, _ in keyed)
    return best, [v for k, v in keyed if k == best]


def _arrangement_items(ordered_variants) -> list:
    """Each variant's head followed by its entries, in order."""
    items: list = []
    for variant in ordered_variants:
        if variant[0] == "chain":
            items.append(("chain", len(variant[1])))
        else:
            items.append(("fork", tuple(len(t) for t in variant[2])))
        items.extend(comp_entries(variant))
    return items


def _encode_arrangement(ordered_variants):
    """Linearize an arrangement, renaming labels by first occurrence:
    the minimal encoding and the number of namings that reach it.

    While no entry brings more than one fresh label the renaming is
    forced, so one linear pass gives the encoding; from the first entry
    that brings several, ``_encode_search`` goes through the orders in
    which they can be named.
    """
    items = _arrangement_items(ordered_variants)
    rename: dict = {}
    out: list = []
    for i, e in enumerate(items):
        if isinstance(e, tuple):
            out.append(e)
            continue
        fresh = {l for l in e.labels if l not in rename}
        if len(fresh) > 1:
            return _encode_search(items, i, rename, out)
        for l in fresh:
            rename[l] = len(rename)
        out.append((e.weight, e.horizontal, e.two_section,
                    tuple(sorted([rename[l] for l in e.labels]))))
    return tuple(out), 1


def _encode_search(items, start: int = 0, rename=None, prefix=()):
    """The minimal encoding of ``items[start:]`` after ``prefix`` (with
    the labels named so far in ``rename``) over every order in which
    each entry's fresh labels can be named, and how many orders reach it."""
    best: list = [None, 0]

    def rec(i, rename, acc):
        if i == len(items):
            out = tuple(acc)
            if best[0] is None or out < best[0]:
                best[:] = [out, 1]
            elif out == best[0]:
                best[1] += 1
            return
        e = items[i]
        if isinstance(e, tuple):
            rec(i + 1, rename, acc + [e])
            return
        fresh = sorted({l for l in e.labels if l not in rename})
        for order in itertools.permutations(fresh):
            r2 = dict(rename)
            for l in order:
                r2[l] = len(r2)
            enc = (e.weight, e.horizontal, e.two_section,
                   tuple(sorted(r2[l] for l in e.labels)))
            rec(i + 1, r2, acc + [enc])

    rec(start, rename or {}, list(prefix))
    return best[0], best[1]


def _arrangements(components):
    canon = [_canonical_variants(c) for c in components]
    order = sorted(range(len(canon)), key=lambda i: canon[i][0])
    groups = []
    for _, grp in itertools.groupby(order, key=lambda i: canon[i][0]):
        groups.append(list(grp))
    for perm_choice in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        comp_order = [i for g in perm_choice for i in g]
        variant_lists = [canon[i][1] for i in comp_order]
        yield from itertools.product(*variant_lists)


def _label_blocks(d: DecoratedType) -> list[tuple[Component, ...]]:
    """The label-connected blocks of ``d``: maximal sets of components
    joined by shared (-1)-curve labels, found by union-find over labels."""
    parent = list(range(len(d.components)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for ci, comp in enumerate(d.components):
        for e in comp_entries(comp):
            for l in e.labels:
                parent[find(ci)] = find(owner.setdefault(l, ci))
    blocks: dict[int, list[Component]] = {}
    for ci, comp in enumerate(d.components):
        blocks.setdefault(find(ci), []).append(comp)
    return [tuple(b) for b in blocks.values()]


def _block_search(block: tuple[Component, ...]) -> tuple[bytes, int]:
    """The code of one label-connected block, the minimal encoding over
    every arrangement of its components, and the number of (arrangement,
    naming) pairs that reach it."""
    best, count = None, 0
    for variants in _arrangements(block):
        code, n = _encode_arrangement(variants)
        if best is None or code < best:
            best, count = code, n
        elif code == best:
            count += n
    return repr(best).encode(), count


def _twin_labels(block: tuple[Component, ...]) -> int:
    """The product of k! over each class of k labels that meet the same
    entries of ``block`` the same number of times."""
    met: dict[int, list[int]] = {}
    for i, e in enumerate(e for c in block for e in comp_entries(c)):
        for l in e.labels:
            met.setdefault(l, []).append(i)
    classes = Counter(tuple(entries) for entries in met.values())
    return math.prod(math.factorial(k) for k in classes.values())


def canonical_form(d: DecoratedType) -> bytes:
    """Byte string equal for isomorphic decorated graphs: invariant under
    chain reversal, twig permutation, component reordering and any
    relabeling of the (-1)-curves; deterministic across runs.

    An isomorphism maps label-connected blocks (components joined by
    shared labels) onto blocks, so the form is the sorted list of block
    codes plus the number of free labels.  A block's code is the least
    encoding over its arrangements: its components in every order that
    sorts them by a label-name-free key, each in every orientation of
    least key, with the labels named in order of first occurrence (every
    order, among the fresh labels of one entry).  The cost is factorial
    only in identical components that labels link into one block;
    identical components in separate blocks cost nothing extra.
    """
    codes = sorted(_block_search(b)[0] for b in _label_blocks(d))
    return repr((tuple(codes), len(d.free_labels))).encode()


@dataclass(frozen=True)
class AutGroup:
    order: int


def graph_automorphisms(d: DecoratedType) -> AutGroup:
    """The self-isomorphisms in the sense of canonical_form equality,
    counted as permutations of the boundary entries.

    An automorphism permutes the label-connected blocks, mapping each onto
    an isomorphic one, and permutes the free labels.  So the order is
    |free|! times the product, over classes of m isomorphic blocks, of
    |Aut(block)|^m * m!.  The same search that gives a block's code gives
    |Aut(block)|: the (arrangement, naming) pairs that reach the code are
    one orbit of the block's isomorphisms of entries and labels, each
    reached once, since the searched pairs are closed under isomorphism.
    Renaming labels that meet the same entries the same number of times
    moves no entry, so |Aut(block)| is that count divided by k! for each
    class of k such labels.
    """
    classes: dict[bytes, list[int]] = {}
    for block in _label_blocks(d):
        code, count = _block_search(block)
        classes.setdefault(code, []).append(count // _twin_labels(block))
    order = math.factorial(len(d.free_labels))
    for orders in classes.values():
        order *= orders[0] ** len(orders) * math.factorial(len(orders))
    return AutGroup(order)
