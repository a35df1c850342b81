"""Decorated boundary graphs and the ampleness criterion.

A :class:`DecoratedType` is a disjoint union of weighted chains and forks
whose entries carry fibration decorations: horizontal marks (bold numbers
in the usual notation), the 2-section mark (underline), and labels of the
vertical (-1)-curves meeting that component.  A label occurring twice on
one entry means the (-1)-curve meets it in a node (contact 2).
"""

from __future__ import annotations

import itertools
import marshal
import math
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction

from delpezzo3.chains import (
    Fork,
    chain_ld_terms,
    fork_ld_terms,
    is_admissible,
    is_log_canonical_fork,
)

CHAR_TAGS = ("any", "ne2", "eq2", "ne23", "eq3")


class Entry:
    """One boundary component: a weight with its decorations.

    Entries are immutable and interned: equal field values give one object
    per process, validated and built once, so ``==`` is ``is``.  The labels
    are kept sorted and the marks as bools: ``Entry(2, 1, labels=[3, 1])``
    is ``Entry(2, True, False, (1, 3))``.  The hash is that of the field
    tuple ``(weight, horizontal, two_section, labels)``.
    """

    __slots__ = ("weight", "horizontal", "two_section", "labels", "_skeleton", "_hash")

    def __new__(cls, weight: int, horizontal: bool = False, two_section: bool = False,
                labels: tuple[int, ...] = ()) -> Entry:
        key = (weight, horizontal, two_section, labels)
        try:
            return _ENTRIES[key]
        except KeyError:
            pass
        except TypeError:  # unhashable labels, such as a list
            return cls(weight, horizontal, two_section, tuple(labels))
        if two_section and not horizontal:
            raise ValueError("the 2-section mark implies the horizontal mark")
        labels = tuple(sorted(labels))
        mults = tuple(sorted(map(labels.count, set(labels)))) if len(labels) > 1 else (1,) * len(labels)
        if mults and mults[-1] > 2:
            raise ValueError("a (-1)-curve meets a component at most twice")
        fields = (weight, bool(horizontal), bool(two_section), labels)
        self = _ENTRIES.get(fields)
        if self is None:
            self = object.__new__(cls)
            init = object.__setattr__
            init(self, "weight", weight)
            init(self, "horizontal", fields[1])
            init(self, "two_section", fields[2])
            init(self, "labels", labels)
            init(self, "_skeleton", fields[:3] + (mults,))
            init(self, "_hash", hash(fields))
            _ENTRIES[fields] = self
        _ENTRIES[key] = self
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"Entry(weight={self.weight!r}, horizontal={self.horizontal!r}, "
                f"two_section={self.two_section!r}, labels={self.labels!r})")

    def __reduce__(self):
        # unpickling and copying call Entry again, which interns
        return Entry, (self.weight, self.horizontal, self.two_section, self.labels)

    def skeleton(self) -> tuple:
        """Label-name-free data used by canonical forms."""
        return self._skeleton


# every Entry made so far, under its field tuple and under each other
# argument tuple it was called with
_ENTRIES: dict[tuple, Entry] = {}


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
        for i in adj[path[-1]]:
            if i != prev:
                break
        else:
            return path
        prev = path[-1]
        path.append(i)


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


def graph_of(components) -> tuple[list[Entry], list[list[int]]]:
    """The graph form of a boundary: its entries in ``comp_entries``
    order, and ``adj``, where ``adj[i]`` lists the neighbours of entry i.
    A chain is a path; a fork's branch meets each twig's LAST entry."""
    entries: list[Entry] = []
    adj: list[list[int]] = []
    for comp in components:
        if comp[0] == "chain":
            branch, arms = None, [comp[1]]
        else:
            branch, arms = len(entries), comp[2]
            entries.append(comp[1])
            adj.append([])
        for arm in arms:
            first, last = len(entries), len(entries) + len(arm) - 1
            entries.extend(arm)
            adj.extend([j for j in (i - 1, i + 1) if first <= j <= last]
                       for i in range(first, last + 1))
            if branch is not None:
                adj[last].append(branch)
                adj[branch].append(last)
    return entries, adj


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
        horizontals = two_sections = 0
        mults = dict.fromkeys(self.free_labels, 0)
        for e in self.entries():
            if e.weight < 2:
                raise ValueError("boundary weights must be >= 2")
            horizontals += e.horizontal
            two_sections += e.two_section
            for l in e.labels:
                mults[l] = mults.get(l, 0) + 1
        if self.width is not None:
            if horizontals != self.width:
                raise ValueError(
                    f"width {self.width} needs {self.width} horizontal marks,"
                    f" found {horizontals}"
                )
            if self.width == 2 and two_sections != 1:
                raise ValueError("width 2 needs exactly one 2-section mark")
            if self.width != 2 and two_sections:
                raise ValueError("2-section marks only occur in width 2")
        for label, total in mults.items():
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


def width_check(d: DecoratedType) -> CheckResult | None:
    """The width form of the ampleness criterion, or None if a component
    is not admissible, so the result also decides admissibility.

    Width 3: ld(H1)+ld(H2)+ld(H3) > 1; width 2: ld(H1)+2 ld(H2) > 1 with
    H2 the 2-section; width 1: ld(H) > 1/3.  The returned lhs/rhs follow
    these normalizations.  Only an admissible type with a width outside
    1-3 raises ValueError.  One pass over the components: the lhs is
    summed as one integer fraction from each marked chain's continuants
    and each fork's discriminants, and reduced once.  Chains are always
    admissible: every weight is at least 2."""
    num, den = 0, 1
    for comp in d.components:
        if comp[0] == "chain":
            marked = [(j, e) for j, e in enumerate(comp[1], start=1) if e.horizontal]
            if not marked:
                continue
            terms = chain_ld_terms(tuple(e.weight for e in comp[1]), [j for j, _ in marked])
        else:
            marked = [("branch", comp[1])] if comp[1].horizontal else []
            for ti, twig in enumerate(comp[2], start=1):
                marked += [((ti, j), e) for j, e in enumerate(twig, start=1) if e.horizontal]
            terms = fork_ld_terms(comp_weights(comp), [pos for pos, _ in marked])
            if terms is None:
                return None
        for (x, y), (_, e) in zip(terms, marked):
            num, den = num * y + (2 * x if e.two_section else x) * den, den * y
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    lhs = Fraction(num, den)
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


def _component_key(comp: Component, first: int):
    """A component's label-free key and its readings of least key.

    The entries get the block-local ids ``first, first + 1, ...`` in
    ``comp_entries`` order, and a reading lists them in the order the key
    reads them: a chain from its end of smaller key, or from both ends if
    it is a palindrome; a fork's branch, then its twigs sorted by key, each
    tip first, in every order of the twigs of equal key.  The readings are
    the component's label-free automorphisms, one each."""
    if comp[0] == "chain":
        ids = list(range(first, first + len(comp[1])))
        skeletons = tuple([e._skeleton for e in comp[1]])
        back = skeletons[::-1]
        if skeletons < back:
            return ("chain", skeletons), [ids]
        if back < skeletons:
            return ("chain", back), [ids[::-1]]
        return ("chain", skeletons), [ids, ids[::-1]] if len(ids) > 1 else [ids]
    arms = []
    start = first + 1
    for twig in comp[2]:
        arms.append((tuple([e._skeleton for e in twig]), list(range(start, start + len(twig)))))
        start += len(twig)
    arms.sort(key=lambda arm: arm[0])
    key = ("fork", comp[1]._skeleton, (arms[0][0], arms[1][0], arms[2][0]))
    if key[2][0] != key[2][1] != key[2][2]:
        return key, [[first, *arms[0][1], *arms[1][1], *arms[2][1]]]
    readings = [[first]]
    for _, group in itertools.groupby(arms, key=lambda arm: arm[0]):
        ids = [arm[1] for arm in group]
        readings = [
            r + [i for arm in order for i in arm]
            for r in readings
            for order in itertools.permutations(ids)
        ]
    return key, readings


def _placement_code(keys: tuple, order, labels) -> tuple:
    """The code of one placement: the key sequence, then each label's
    sorted list of (position, contact), the lists sorted.  A pair is
    written as the one number 2 * position + contact - 1, which keeps its
    order and takes a third of the space in the form.  ``order`` lists the
    block-local entry ids by position, ``labels[i]`` is entry i's sorted
    labels, where a label met twice is listed twice."""
    met: dict = {}
    for pos, i in enumerate(order):
        for l in labels[i]:
            if l not in met:
                met[l] = [2 * pos]
            elif met[l][-1] == 2 * pos:
                met[l][-1] += 1
            else:
                met[l].append(2 * pos)
    return keys, tuple(sorted(map(tuple, met.values())))


def _block_search(block: tuple[Component, ...]) -> tuple[tuple, int]:
    """The code of one label-connected block and |Aut(block)|.

    A placement puts the components in order of key, each in one of its
    readings, and numbers the entries by position.  If the keys are
    distinct, every placement is tried.  Otherwise ``_refined_placements``
    gives the placements to try.  Either way the set tried is closed
    under the block's automorphisms, which act on it freely, and two
    placements have one code exactly when an automorphism maps one to the
    other; so the least code is an invariant and the placements that reach
    it number |Aut(block)|.  A block with repeated keys has a repeated key
    in its code and one without has none, so the codes of the two kinds
    never meet."""
    parts = []
    labels: list = []
    for comp in block:
        key, readings = _component_key(comp, len(labels))
        parts.append((key, readings))
        labels += [e.labels for e in comp_entries(comp)]
    parts.sort(key=lambda part: part[0])
    keys = tuple([key for key, _ in parts])
    if len(set(keys)) < len(keys):
        orders = _refined_placements(parts, labels, graph_of(block)[1])
    elif all(len(readings) == 1 for _, readings in parts):
        return _placement_code(keys, [i for _, (r,) in parts for i in r], labels), 1
    else:
        placements = itertools.product(*(readings for _, readings in parts))
        orders = ([i for r in choice for i in r] for choice in placements)
    best, count = None, 0
    for order in orders:
        code = _placement_code(keys, order, labels)
        if best is None or code < best:
            best, count = code, 1
        elif code == best:
            count += 1
    return best, count


def _refined_placements(parts, labels, adjacent):
    """The placements of a block with repeated keys that the leaves of an
    individualization-refinement search give, each once.

    Colour refinement runs over the entries and labels.  An entry starts
    from its component's key and its least position over that component's
    readings.  Then an entry's colour takes in its neighbours' colours and
    its labels' colours with their contacts, and a label's colour is the
    colours of the entries it meets with their contacts, until no cell
    splits.  While a cell of several entries is left, the first one is
    split by individualizing each of its entries in turn.  A leaf ranks the
    entries and places the components in order of key and least ranks,
    each in its reading of least ranks.  Every choice reads colours only,
    so the placements given are closed under the block's automorphisms.
    ``adjacent`` is the block's ``graph_of`` neighbour lists, whose ids
    are the block-local ones of ``labels``.
    """
    n = len(labels)
    contacts = [tuple(Counter(ls).items()) for ls in labels]
    start: list = [None] * n
    for key, readings in parts:
        for reading in readings:
            for pos, i in enumerate(reading):
                if start[i] is None or pos < start[i][1]:
                    start[i] = (key, pos)
    met: dict = {}
    for i, pairs in enumerate(contacts):
        for l, c in pairs:
            met.setdefault(l, []).append((i, c))

    def refine(colour: list[int]) -> list[int]:
        while True:
            label_colour = {
                l: tuple(sorted((colour[i], c) for i, c in pairs)) for l, pairs in met.items()
            }
            signature = [
                (colour[i], tuple(sorted(colour[j] for j in adjacent[i])),
                 tuple(sorted((label_colour[l], c) for l, c in contacts[i])))
                for i in range(n)
            ]
            names = {s: k for k, s in enumerate(sorted(set(signature)))}
            if len(names) == len(set(colour)):
                return colour
            colour = [names[s] for s in signature]

    def leaves(colour: list[int]):
        colour = refine(colour)
        sizes = Counter(colour)
        if len(sizes) == n:
            yield colour
            return
        cell = min(c for c, k in sizes.items() if k > 1)
        for v in range(n):
            if colour[v] == cell:
                yield from leaves([2 * c + (c == cell and i != v) for i, c in enumerate(colour)])

    names = {s: k for k, s in enumerate(sorted(set(start)))}
    seen = set()
    for colour in leaves([names[s] for s in start]):
        placed = sorted(
            (key, *min(([colour[i] for i in r], r) for r in readings)) for key, readings in parts
        )
        order = tuple(i for _, _, reading in placed for i in reading)
        if order not in seen:
            seen.add(order)
            yield order


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
                cj = owner.setdefault(l, ci)
                if cj != ci:
                    parent[find(ci)] = find(cj)
    blocks: dict[int, list[Component]] = {}
    for ci, comp in enumerate(d.components):
        blocks.setdefault(find(ci), []).append(comp)
    return [tuple(b) for b in blocks.values()]


def canonical_form(d: DecoratedType) -> bytes:
    """Byte string equal for isomorphic decorated graphs: invariant under
    chain reversal, twig permutation, component reordering and any
    relabeling of the (-1)-curves; deterministic across runs.

    An isomorphism maps label-connected blocks (components joined by
    shared labels) onto blocks, so the form is the sorted list of block
    codes plus the number of free labels.  A block's code is its key
    sequence, each component's label-free key in sorted order, and then
    each label's sorted list of (position, contact), the least such over
    the placements ``_block_search`` tries.  When the keys are distinct
    these are the few readings of least key, usually one, and the cost is
    linear in the block.  Only identical components that labels link into
    one block run colour refinement, whose leaves number about |Aut(block)|
    times the ties left after refinement; identical components in separate
    blocks cost nothing extra.
    """
    codes = sorted(_block_search(b)[0] for b in _label_blocks(d))
    # marshal's version 0 writes no references between objects, so equal
    # codes give equal bytes; it takes a tenth of the time of repr
    return marshal.dumps((tuple(codes), len(d.free_labels)), 0)


@dataclass(frozen=True)
class AutGroup:
    order: int


def graph_automorphisms(d: DecoratedType) -> AutGroup:
    """The self-isomorphisms in the sense of canonical_form equality,
    counted as permutations of the boundary entries.

    An automorphism permutes the label-connected blocks, mapping each onto
    an isomorphic one, and permutes the free labels.  So the order is
    |free|! times the product, over classes of m isomorphic blocks, of
    |Aut(block)|^m * m!.  The search that gives a block's code gives
    |Aut(block)| too: a placement fixes every entry, so the placements
    that reach the code are one orbit of the block's automorphisms of
    entries, each reached once.  Labels that meet the same entries the
    same number of times have equal incidence lists, so renaming them
    counts nothing.  The cost is that of ``canonical_form``.
    """
    classes: dict[tuple, list[int]] = {}
    for block in _label_blocks(d):
        code, count = _block_search(block)
        classes.setdefault(code, []).append(count)
    order = math.factorial(len(d.free_labels))
    for orders in classes.values():
        order *= orders[0] ** len(orders) * math.factorial(len(orders))
    return AutGroup(order)
