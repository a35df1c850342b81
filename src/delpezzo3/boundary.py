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
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from delpezzo3.chains import chain_terms, fork_excess, fork_terms, twig_key

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
            init(self, "_skeleton", fields[:3] + (mults,))  # what canonical forms compare
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
    neighbors of node i) into chains and forks of node indices, each by
    ``walk_component``, in order of their smallest node.  A cycle, or a
    tree that is neither a chain nor a fork, raises ``ValueError``.
    """
    seen: set = set()
    return [walk_component(adj, start, seen) for start in range(len(adj)) if start not in seen]


def walk_component(adj, start: int, seen: set):
    """The component of node ``start``, as ``("chain", [i, ...])`` read
    from the smaller tip, or ``("fork", b, (twig1, twig2, twig3))`` with
    the twigs in order of their node next to the branch b, each listed tip
    first; its nodes are added to ``seen``.  A cycle, or a tree that is
    neither a chain nor a fork, raises ``ValueError``."""
    seen.add(start)
    comp, degrees, branch, tips = [start], 0, [], []
    for i in comp:
        k = len(adj[i])
        degrees += k
        if k >= 3:
            branch.append(i)
        elif k <= 1:
            tips.append(i)
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                comp.append(j)
    if degrees != 2 * (len(comp) - 1):
        raise ValueError("boundary component contains a cycle")
    if not branch:
        return ("chain", _walk_path(adj, min(tips), None))
    if len(branch) == 1 and len(adj[branch[0]]) == 3:
        b = branch[0]
        return ("fork", b, tuple(_walk_path(adj, first, b)[::-1] for first in sorted(adj[b])))
    raise ValueError("boundary component is not a chain or fork")


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


def comp_entries(comp):
    """A component's entries, or a ``walk_components`` part's nodes, in
    order: a chain's own sequence, or a fork's branch and then its twigs'."""
    return comp[1] if comp[0] == "chain" else [comp[1], *comp[2][0], *comp[2][1], *comp[2][2]]


def neighbours(layout, n: int) -> list[list[int]]:
    """``adj``, where ``adj[i]`` lists the neighbours of node i of the
    ``walk_components`` parts ``layout`` over the nodes ``0..n-1``.  A
    chain is a path; a fork's branch meets each twig's LAST entry."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for part in layout:
        for path in [part[1]] if part[0] == "chain" else [[*t, part[1]] for t in part[2]]:
            for i, j in zip(path, path[1:]):
                adj[i].append(j)
                adj[j].append(i)
    return adj


def layout_of(components) -> tuple[list[Entry], list]:
    """The components' entries in ``comp_entries`` order and, counted without
    a walk, their ``walk_components`` layout, in index ranges for lists.
    A chain or twig without entries raises ValueError: a walk has no empty
    parts."""
    entries, layout = [], []
    for comp in components:
        first = len(entries)
        if comp[0] == "chain":
            if not comp[1]:
                raise ValueError("a chain component needs at least one entry")
            entries += comp[1]
            layout.append(("chain", range(first, len(entries))))
            continue
        if len(comp[2]) != 3 or not all(comp[2]):
            raise ValueError("a fork needs three nonempty twigs")
        entries.append(comp[1])
        twigs = []
        for twig in comp[2]:
            twigs.append(range(len(entries), len(entries) + len(twig)))
            entries += twig
        layout.append(("fork", first, tuple(twigs)))
    return entries, layout


# one object per distinct layout, tuple of label blocks and label set, which
# every DecoratedType that has it shares, as equal entries are one Entry
_SHARED: dict = {}


def _shared(value):
    return _SHARED.setdefault(value, value)


@dataclass(frozen=True, init=False, eq=False)
class DecoratedType:
    """A disjoint union of decorated chains and forks, held as its walk:
    its entries, a tuple in the order ``walk_components`` reads them, and
    their layout, the walk's parts as index ranges (``layout_of``).  The
    constructor builds the walk once, from ``components`` (``from_walk``
    from walked parts), and checks it and the labels it stores in one
    pass over the entries; the label blocks are found on the first read
    and kept.  Layouts, blocks and label sets are shared between the
    types that have equal ones.

    ``components`` is a view, built from the walk on each read, for
    notation, rendering and the oracles.  A component without entries is
    rejected: a walk has no empty parts.  The constructor, equality,
    hashing, ``repr`` and ``dataclasses.replace`` read the same fields
    as ever, so types with equal components and decorations are equal;
    a copied or unpickled type keeps the walk and blocks it was built
    with."""

    __slots__ = ("_entries", "_layout", "_blocks", "_labels", "width", "char_tag", "free_labels")

    # the fields that the constructor, repr and dataclasses.replace read;
    # components is the property below
    components: tuple[Component, ...]
    width: int | None
    char_tag: str
    free_labels: frozenset[int]

    def __init__(self, components, width: int | None = None, char_tag: str = "any",
                 free_labels: frozenset[int] = frozenset()) -> None:
        entries, layout = layout_of(components)
        self._build(tuple(entries), layout, width, char_tag, free_labels)

    @classmethod
    def from_walk(cls, parts, nodes, width: int | None = None, char_tag: str = "any",
                  free_labels: frozenset[int] = frozenset()) -> DecoratedType:
        """The type whose components are the ``walk_components`` ``parts``,
        with ``nodes[i]`` the entry at node i, built with no components."""
        ids, layout = layout_of(parts)
        self = object.__new__(cls)
        self._build(tuple([nodes[i] for i in ids]), layout, width, char_tag, free_labels)
        return self

    def _build(self, entries: tuple, layout: list, width, char_tag, free_labels) -> None:
        """Check the walk in one pass over its entries, and store it."""
        if char_tag not in CHAR_TAGS:
            raise ValueError(f"unknown characteristic tag {char_tag!r}")
        free_labels = frozenset(free_labels)
        horizontals = two_sections = 0
        mults = dict.fromkeys(free_labels, 0)
        for e in entries:
            if e.weight < 2:
                raise ValueError("boundary weights must be >= 2")
            horizontals += e.horizontal
            two_sections += e.two_section
            for l in e.labels:
                mults[l] = mults.get(l, 0) + 1
        if width is not None:
            if horizontals != width:
                raise ValueError(f"width {width} needs {width} horizontal marks, found {horizontals}")
            if width == 2 and two_sections != 1:
                raise ValueError("width 2 needs exactly one 2-section mark")
            if width != 2 and two_sections:
                raise ValueError("2-section marks only occur in width 2")
        for label, total in mults.items():
            if total > 3:
                raise ValueError(f"(-1)-curve {label} meets the boundary {total} > 3 times")
            if total and label in free_labels:
                raise ValueError(f"free (-1)-curve {label} meets the boundary")
        # the label blocks are found on the first read of label_blocks
        self.__setstate__((entries, tuple(layout), None, frozenset(mults), width, char_tag,
                           free_labels))

    @property
    def components(self) -> tuple[Component, ...]:
        return place_entries(self._layout, self._entries)

    def _key(self) -> tuple:
        return self._entries, self._layout, self.width, self.char_tag, self.free_labels

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __getstate__(self) -> tuple:
        return (self._entries, self._layout, self._blocks, self._labels, self.width,
                self.char_tag, self.free_labels)

    def __setstate__(self, state: tuple) -> None:
        # a copy or an unpickled type is the walk it was built and checked
        # as; its layout, blocks and labels are shared in this process
        entries, layout, blocks, labels, width, char_tag, free_labels = state
        init = object.__setattr__
        init(self, "_entries", entries)
        init(self, "_layout", _shared(layout))
        init(self, "_blocks", None if blocks is None else _shared(blocks))
        init(self, "_labels", _shared(labels))
        init(self, "width", width)
        init(self, "char_tag", char_tag)
        init(self, "free_labels", free_labels)

    # -- basic accessors ---------------------------------------------------

    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    def walk(self) -> tuple[tuple[Entry, ...], tuple]:
        return self._entries, self._layout

    def label_blocks(self) -> tuple[tuple[Entry, ...], tuple[tuple, ...]]:
        """The entries and their ``_label_blocks``, as tuples, found on the
        first call and kept: a type that is never keyed does not pay for
        them."""
        if self._blocks is None:
            blocks = tuple(map(tuple, _label_blocks(self._entries, self._layout)))
            object.__setattr__(self, "_blocks", _shared(blocks))
        return self._entries, self._blocks

    def labels(self) -> frozenset[int]:
        return self._labels

    def _fork_excesses(self):
        """Each fork's ``fork_excess``, of the sign of sum 1/d(T_i) - 1;
        every weight is at least 2, so chains and twigs are admissible."""
        entries = self._entries
        for part in self._layout:
            if part[0] == "fork":
                twigs = [[entries[i].weight for i in t] for t in part[2]]
                yield fork_excess(entries[part[1]].weight, twigs)[0]

    def is_admissible(self) -> bool:
        return all(x > 0 for x in self._fork_excesses())

    def is_log_canonical(self) -> bool:
        return all(x >= 0 for x in self._fork_excesses())


@dataclass(frozen=True, slots=True)
class BoundaryGraph:
    """A boundary read as a DecoratedType without being one: ``entries``,
    their ``walk_components`` layout and its ``_label_blocks``.  Nothing
    is checked; the cascade builds it from a blow-up of a checked type
    (``swaps._Frame``), which passes the checks of a DecoratedType."""

    entries: list[Entry]
    layout: list
    blocks: list[list]
    width: int | None = None
    char_tag: str = "any"
    free_labels: frozenset[int] = frozenset()

    def walk(self) -> tuple[list[Entry], list]:
        return self.entries, self.layout

    def label_blocks(self) -> tuple[list[Entry], list[list]]:
        return self.entries, self.blocks


@dataclass(frozen=True)
class CheckResult:
    satisfied: bool
    lhs: Fraction
    rhs: Fraction


# the rhs of the width forms of the criterion: width 1, and widths 2 and 3
RHS_WIDTH_1 = Fraction(1, 3)
RHS_WIDTH_2_3 = Fraction(1)


def width_check(d: DecoratedType | BoundaryGraph) -> CheckResult | None:
    """The width form of the ampleness criterion, or None if a component
    is not admissible, so the result also decides admissibility.

    Width 3: ld(H1)+ld(H2)+ld(H3) > 1; width 2: ld(H1)+2 ld(H2) > 1 with
    H2 the 2-section; width 1: ld(H) > 1/3.  The returned lhs/rhs follow
    these normalizations.  Only an admissible type with a width outside
    1-3 raises ValueError.  One pass over the parts of ``d.walk()``: each
    component gives every entry's ld over its discriminant
    (``chains.chain_terms``, ``chains.fork_terms``, which also decides a
    fork's admissibility), its marked numerators are summed, the
    2-section's twice, and the lhs gains one integer fraction per
    component, reduced once at the end.  Every weight of ``d`` is at least
    2 (a DecoratedType checks its weights, and a BoundaryGraph is a
    blow-up of one), so chains are always admissible and no weight is
    checked again."""
    entries, layout = d.walk()
    num, den = 0, 1
    for part in layout:
        ids = comp_entries(part)
        marked = [(k, entries[i].two_section) for k, i in enumerate(ids) if entries[i].horizontal]
        if part[0] == "chain":
            if not marked:
                continue
            disc, nums = chain_terms([entries[i].weight for i in ids])
        else:
            twigs = [[entries[i].weight for i in t] for t in part[2]]
            _, disc, nums = fork_terms(entries[part[1]].weight, twigs)
            if nums is None:
                return None
        total = sum([2 * nums[k] if two else nums[k] for k, two in marked])
        num, den = num * disc + total * den, den * disc
    if d.width not in (1, 2, 3):
        raise ValueError("decorated type carries no usable width")
    rhs = RHS_WIDTH_1 if d.width == 1 else RHS_WIDTH_2_3
    # den > 0: a product of positive discriminants
    satisfied = 3 * num > den if d.width == 1 else num > den
    return CheckResult(satisfied, Fraction(num, den), rhs)


def singularity_type_of(d: DecoratedType) -> tuple:
    """The undecorated type: chains up to reversal, forks up to twig
    permutation, components sorted canonically."""
    out = []
    entries, layout = d.walk()
    for part in layout:
        if part[0] == "chain":
            weights = tuple([entries[i].weight for i in part[1]])
            out.append(("chain", min(weights, weights[::-1])))
        else:
            twigs = [tuple([entries[i].weight for i in t]) for t in part[2]]
            out.append(("fork", entries[part[1]].weight, tuple(sorted(twigs, key=twig_key))))
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


def _component_key(entries, part):
    """The label-free key of the layout ``part`` and its readings of least
    key, each a sequence of the part's own indices into ``entries`` in the
    order the key reads them: a chain from its end of smaller key, or from
    both ends if it is a palindrome; a fork's branch, then its twigs sorted
    by key, each tip first, in every order of the twigs of equal key.  The
    readings are the component's label-free automorphisms, one each."""
    if part[0] == "chain":
        ids = part[1]
        skeletons = tuple([entries[i]._skeleton for i in ids])
        back = skeletons[::-1]
        if skeletons < back:
            return ("chain", skeletons), [ids]
        if back < skeletons:
            return ("chain", back), [ids[::-1]]
        return ("chain", skeletons), [ids, ids[::-1]] if len(ids) > 1 else [ids]
    (k0, t0), (k1, t1), (k2, t2) = sorted(
        [(tuple([entries[i]._skeleton for i in twig]), twig) for twig in part[2]],
        key=lambda arm: arm[0])
    b = part[1]
    key = ("fork", entries[b]._skeleton, (k0, k1, k2))
    if k0 == k1 == k2:
        return key, [[b, *x, *y, *z] for x, y, z in itertools.permutations((t0, t1, t2))]
    readings = [[b, *t0, *t1, *t2]]
    if k0 == k1 or k1 == k2:
        readings.append([b, *t1, *t0, *t2] if k0 == k1 else [b, *t0, *t2, *t1])
    return key, readings


def _placement_code(keys: tuple, placement, entries) -> tuple:
    """The code of one placement: the key sequence, then each label's
    sorted list of (position, contact), the lists sorted.  A pair is
    written as the one number 2 * position + contact - 1, which keeps its
    order and takes a third of the space in the form.  ``placement`` holds
    one reading per component; together they list the indices into
    ``entries`` by position."""
    met: dict = {}
    pos = 0
    for reading in placement:
        for i in reading:
            for l in entries[i].labels:
                if l not in met:
                    met[l] = [pos]
                elif met[l][-1] == pos:
                    met[l][-1] += 1
                else:
                    met[l].append(pos)
            pos += 2
    return keys, tuple(sorted(map(tuple, met.values())))


def _block_search(entries, block: list) -> tuple[tuple, int]:
    """The code of one label-connected block, a list of layout parts over
    ``entries``, and |Aut(block)|.

    A placement puts the components in order of key, each in one of its
    readings, and numbers the entries by position.  With distinct keys
    every placement is tried in the entries' own indices, except that a
    component no label meets takes its first reading only and multiplies
    the count by its number of readings, which all give one code.
    Otherwise ``_refined_placements`` gives the placements, over
    block-local ids.  Either way the set tried is closed under the block's
    automorphisms, which act on it freely, and two placements have one
    code exactly when an automorphism maps one to the other; so the least
    code is an invariant and the placements that reach it number
    |Aut(block)|.  A block with repeated keys has a repeated key in its
    code and one without has none, so their codes never meet."""
    parts = sorted([_component_key(entries, part) for part in block], key=lambda part: part[0])
    keys = tuple([key for key, _ in parts])
    best, reached, count = None, 0, 1
    if len(set(keys)) < len(keys):
        ids = [i for part in block for i in comp_entries(part)]
        local = {i: k for k, i in enumerate(ids)}
        adj = neighbours(block, len(entries))
        adjacent = [[local[j] for j in adj[i]] for i in ids]
        parts = [(key, [[local[i] for i in r] for r in readings]) for key, readings in parts]
        orders = _refined_placements(parts, [entries[i].labels for i in ids], adjacent)
        placements = (([ids[k] for k in order],) for order in orders)
    else:
        choices = []
        for _, readings in parts:
            if len(readings) > 1 and not any([entries[i].labels for i in readings[0]]):
                count *= len(readings)
                readings = readings[:1]
            choices.append(readings)
        placements = itertools.product(*choices)
    for placement in placements:
        code = _placement_code(keys, placement, entries)
        if best is None or code < best:
            best, reached = code, 1
        elif code == best:
            reached += 1
    return best, reached * count


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
    ``adjacent`` is the block's neighbour lists, whose ids are the
    block-local ones of ``labels``.
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


def _label_blocks(entries, layout) -> list[list]:
    """The label-connected blocks of the boundary ``entries`` laid out by
    ``layout``, the maximal sets of parts joined by shared (-1)-curve
    labels, each a list of its parts in layout order, in order of its
    first part."""
    block = list(range(len(layout)))  # each part's block, named by one of its parts
    owner: dict[int, int] = {}  # label -> the first part it meets
    for ci, part in enumerate(layout):
        for i in comp_entries(part):
            for l in entries[i].labels:
                cj = owner.setdefault(l, ci)
                if block[cj] != block[ci]:
                    old, new = block[ci], block[cj]
                    block = [new if b == old else b for b in block]
    blocks: dict[int, list] = {}
    for part, name in zip(layout, block):
        blocks.setdefault(name, []).append(part)
    return list(blocks.values())


def canonical_form(d: DecoratedType | BoundaryGraph) -> bytes:
    """Byte string equal for isomorphic decorated graphs: invariant under
    chain reversal, twig permutation, component reordering and any
    relabeling of the (-1)-curves; deterministic across runs.  It reads
    ``d.label_blocks()``, so a :class:`BoundaryGraph` has the form of its
    type.

    An isomorphism maps label-connected blocks (components joined by
    shared labels) onto blocks, so the form is the sorted list of block
    codes plus the number of free labels.  A block's code is its sorted
    key sequence and then each label's sorted list of (position, contact),
    the least such over the placements ``_block_search`` tries in the
    entries' own indices: with distinct keys, the few readings of least
    key of the labelled components, usually one, at a cost linear in the
    block.  Only identical components that labels link into one block get
    block-local ids, for colour refinement, whose leaves number about
    |Aut(block)| times the ties left after refinement.
    """
    entries, blocks = d.label_blocks()
    codes = sorted(_block_search(entries, b)[0] for b in blocks)
    # marshal's version 0 writes no references between objects, so equal
    # codes give equal bytes; it takes a tenth of the time of repr
    return marshal.dumps((tuple(codes), len(d.free_labels)), 0)


@dataclass(frozen=True)
class AutGroup:
    order: int


def graph_automorphisms(d: DecoratedType | BoundaryGraph) -> AutGroup:
    """The self-isomorphisms in the sense of canonical_form equality,
    counted as permutations of the boundary entries.

    An automorphism permutes the label-connected blocks, mapping each onto
    an isomorphic one, and permutes the free labels.  So the order is
    |free|! times the product, over classes of m isomorphic blocks, of
    |Aut(block)|^m * m!.  The search that gives a block's code gives
    |Aut(block)| too: a placement fixes every entry, so the placements
    that reach the code are one orbit of the block's automorphisms of
    entries, each reached once, and a component that no label meets,
    searched in one reading, adds its number of readings as a factor.
    Labels that meet the same entries the same number of times have equal
    incidence lists, so renaming them counts nothing.  The cost is that of
    ``canonical_form``.
    """
    classes: dict[tuple, list[int]] = {}
    entries, blocks = d.label_blocks()
    for block in blocks:
        code, count = _block_search(entries, block)
        classes.setdefault(code, []).append(count)
    order = math.factorial(len(d.free_labels))
    for orders in classes.values():
        order *= orders[0] ** len(orders) * math.factorial(len(orders))
    return AutGroup(order)
