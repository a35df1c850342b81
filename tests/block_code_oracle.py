"""The per-block search that ``delpezzo3.boundary`` used before it read
placements in the type's own entry numbering, kept as an oracle for the
tests: every block is renumbered into block-local ids, each entry's labels
are copied into a per-block list, and every component enters the
placement product with all its readings, labelled or not.

``_component_key``, ``_placement_code`` and ``_block_search`` are the
package's former code, unchanged; the refinement search for blocks with
repeated keys is the package's own, which this oracle shares.
"""

from __future__ import annotations

import itertools
import marshal
import math

from delpezzo3.boundary import (
    BoundaryGraph,
    DecoratedType,
    _refined_placements,
    comp_entries,
    layout_of,
    neighbours,
)


def _component_key(entries, part, first: int):
    """The label-free key and readings of least key of the layout ``part``.

    The entries get the block-local ids ``first, first + 1, ...`` in
    ``comp_entries`` order, and a reading lists them in the order the key
    reads them: a chain from its end of smaller key, or from both ends if
    it is a palindrome; a fork's branch, then its twigs sorted by key, each
    tip first, in every order of the twigs of equal key.  The readings are
    the component's label-free automorphisms, one each."""
    if part[0] == "chain":
        ids = list(range(first, first + len(part[1])))
        skeletons = tuple([entries[i]._skeleton for i in part[1]])
        back = skeletons[::-1]
        if skeletons < back:
            return ("chain", skeletons), [ids]
        if back < skeletons:
            return ("chain", back), [ids[::-1]]
        return ("chain", skeletons), [ids, ids[::-1]] if len(ids) > 1 else [ids]
    arms = []
    start = first + 1
    for twig in part[2]:
        skeletons = tuple([entries[i]._skeleton for i in twig])
        arms.append((skeletons, list(range(start, start + len(twig)))))
        start += len(twig)
    arms.sort(key=lambda arm: arm[0])
    key = ("fork", entries[part[1]]._skeleton, (arms[0][0], arms[1][0], arms[2][0]))
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


def _block_search(entries, block: list) -> tuple[tuple, int]:
    """The code of one label-connected block, a list of layout parts over
    ``entries``, and |Aut(block)|.

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
    for part in block:
        key, readings = _component_key(entries, part, len(labels))
        parts.append((key, readings))
        labels += [entries[i].labels for i in comp_entries(part)]
    parts.sort(key=lambda part: part[0])
    keys = tuple([key for key, _ in parts])
    if len(set(keys)) < len(keys):
        local = layout_of(block)[1]  # the parts over the block-local ids
        orders = _refined_placements(parts, labels, neighbours(local, len(labels)))
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


def block_codes(d: DecoratedType | BoundaryGraph) -> list[tuple[tuple, int]]:
    """(code, |Aut(block)|) of each of ``d.label_blocks()``, in order."""
    entries, blocks = d.label_blocks()
    return [_block_search(entries, block) for block in blocks]


def canonical_form(d: DecoratedType | BoundaryGraph) -> bytes:
    """The package's form, built from this oracle's block codes."""
    codes = sorted(code for code, _ in block_codes(d))
    return marshal.dumps((tuple(codes), len(d.free_labels)), 0)


def graph_automorphisms_order(d: DecoratedType | BoundaryGraph) -> int:
    """|free|! times prod |Aut(block)|^m m! over classes of m isomorphic
    blocks, with this oracle's block codes and counts."""
    classes: dict[tuple, list[int]] = {}
    for code, count in block_codes(d):
        classes.setdefault(code, []).append(count)
    order = math.factorial(len(d.free_labels))
    for orders in classes.values():
        order *= orders[0] ** len(orders) * math.factorial(len(orders))
    return order
