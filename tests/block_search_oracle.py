"""The per-block search that ``delpezzo3.boundary`` used before component
keys and label incidence lists replaced it, kept as an oracle for the
tests: every arrangement of a block's components in every orientation of
least ``_variant_skeleton``, with the labels named in order of first
occurrence (every order, among the fresh labels of one entry).

Its cost is factorial in identical components that labels link into one
block; use it on small blocks only.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from delpezzo3.boundary import (
    Component,
    DecoratedType,
    _label_blocks,
    comp_entries,
    place_entries,
)


def label_blocks(d: DecoratedType) -> list[tuple[Component, ...]]:
    """The label-connected blocks of ``d`` that ``boundary`` finds, each
    as a tuple of components."""
    entries, layout = d.walk()
    return [place_entries(block, entries) for block in _label_blocks(entries, layout)]


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
    """The sorted block codes plus the number of free labels."""
    codes = sorted(_block_search(b)[0] for b in label_blocks(d))
    return repr((tuple(codes), len(d.free_labels))).encode()


def graph_automorphisms_order(d: DecoratedType) -> int:
    """|free|! times prod |Aut(block)|^m m! over classes of m isomorphic
    blocks, with |Aut(block)| the search's count over ``_twin_labels``."""
    classes: dict[bytes, list[int]] = {}
    for block in label_blocks(d):
        code, count = _block_search(block)
        classes.setdefault(code, []).append(count // _twin_labels(block))
    order = math.factorial(len(d.free_labels))
    for orders in classes.values():
        order *= orders[0] ** len(orders) * math.factorial(len(orders))
    return order
