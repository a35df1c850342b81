"""The exhaustive canonical form and automorphism count that the
label-connected block split in ``delpezzo3.boundary`` replaced, kept as an
oracle for the tests.

Both search every order of identical components of the whole type, so
their cost is factorial in the number of identical components; use them
on small types only.  A ``BoundaryGraph`` is read as the type that
``place_entries`` builds from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from delpezzo3.boundary import (
    BoundaryGraph,
    Component,
    DecoratedType,
    Entry,
    comp_entries,
    place_entries,
)


def _chain_variants(comp: Component):
    entries = comp[1]
    yield ("chain",) + tuple(entries)
    if len(entries) > 1:
        yield ("chain",) + tuple(reversed(entries))


def _fork_variants(comp: Component):
    branch, twigs = comp[1], comp[2]
    for perm in itertools.permutations(range(3)):
        yield ("fork", branch, tuple(twigs[i] for i in perm))


def _variants(comp: Component):
    if comp[0] == "chain":
        yield from _chain_variants(comp)
    else:
        yield from _fork_variants(comp)


def _variant_entries(variant) -> list[Entry]:
    if variant[0] == "chain":
        return list(variant[1:])
    return [variant[1]] + [e for t in variant[2] for e in t]


def _variant_skeleton(variant) -> tuple:
    if variant[0] == "chain":
        shape: tuple = ("chain",)
    else:
        shape = ("fork", tuple(len(t) for t in variant[2]))
    entries = _variant_entries(variant)
    partition = {}
    local = []
    for e in entries:
        seen = len(partition)
        ids = []
        for l in e.labels:
            if l not in partition:
                partition[l] = seen
            ids.append(partition[l])
        local.append((e._skeleton, tuple(sorted(ids))))
    return shape + tuple(local)


def _canonical_variants(comp: Component):
    variants = list(_variants(comp))
    keyed = [(_variant_skeleton(v), v) for v in variants]
    best = min(k for k, _ in keyed)
    return best, [v for k, v in keyed if k == best]


def _encode_arrangement(ordered_variants, free_label_count: int):
    """Linearize an arrangement, renaming labels by first occurrence.

    Returns the minimal encoding over the (rare) tie-break choices when
    several fresh labels appear on a single entry.
    """
    best = [None]

    def rec(vi, rename, acc):
        if vi == len(ordered_variants):
            out = tuple(acc) + ("free", free_label_count)
            if best[0] is None or out < best[0]:
                best[0] = out
            return
        variant = ordered_variants[vi]
        entries = _variant_entries(variant)
        if variant[0] == "chain":
            head: tuple = ("chain", len(entries))
        else:
            head = ("fork", tuple(len(t) for t in variant[2]))

        def rec_entries(ei, rename, acc2):
            if ei == len(entries):
                rec(vi + 1, rename, acc2)
                return
            e = entries[ei]
            fresh = sorted({l for l in e.labels if l not in rename})
            for order in itertools.permutations(fresh):
                r2 = dict(rename)
                for l in order:
                    r2[l] = len(r2)
                enc = (e.weight, e.horizontal, e.two_section,
                       tuple(sorted(r2[l] for l in e.labels)))
                rec_entries(ei + 1, r2, acc2 + [enc])

        rec_entries(0, rename, acc + [head])

    rec(0, {}, [])
    return best[0]


def _arrangements(d: DecoratedType | BoundaryGraph):
    components = d.components if isinstance(d, DecoratedType) else place_entries(d.layout, d.entries)
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
        for variants in itertools.product(*variant_lists):
            yield comp_order, list(variants)


def canonical_form(d: DecoratedType | BoundaryGraph) -> bytes:
    """Byte string equal for isomorphic decorated graphs: invariant under
    chain reversal, twig permutation, component reordering and any
    relabeling of the (-1)-curves; deterministic across runs."""
    best = None
    for _, variants in _arrangements(d):
        enc = _encode_arrangement(variants, len(d.free_labels))
        if best is None or enc < best:
            best = enc
    return repr(best).encode()


@dataclass(frozen=True)
class AutGroup:
    order: int
    permutations: tuple[tuple[int, ...], ...]


def graph_automorphisms(d: DecoratedType) -> AutGroup:
    """All self-isomorphisms in the sense of canonical_form equality.

    Returns the group order and the automorphisms as permutations of the
    boundary entries (in document order).
    """
    n = len(d.entries())
    offsets = []
    k = 0
    for c in d.components:
        offsets.append(k)
        k += len(comp_entries(c))

    def orientation_maps(src: Component, tgt: Component):
        """Component-local index maps src position -> tgt position that
        preserve the graph structure (ignoring label names)."""
        maps = []
        if src[0] == "chain" and tgt[0] == "chain":
            if len(src[1]) != len(tgt[1]):
                return []
            m = len(src[1])
            maps.append(list(range(m)))
            if m > 1:
                maps.append(list(range(m - 1, -1, -1)))
        elif src[0] == "fork" and tgt[0] == "fork":
            src_twigs, tgt_twigs = src[2], tgt[2]
            starts = [1]
            for t in tgt_twigs[:-1]:
                starts.append(starts[-1] + len(t))
            for perm in itertools.permutations(range(3)):
                if any(len(src_twigs[i]) != len(tgt_twigs[perm[i]]) for i in range(3)):
                    continue
                index_map = [0]
                for i in range(3):
                    j = perm[i]
                    index_map.extend(range(starts[j], starts[j] + len(tgt_twigs[j])))
                maps.append(index_map)
        return maps

    perms = set()
    indices = range(len(d.components))
    for target in itertools.permutations(indices):
        choices = []
        feasible = True
        for i, j in zip(indices, target):
            maps = orientation_maps(d.components[i], d.components[j])
            src_entries = comp_entries(d.components[i])
            tgt_entries = comp_entries(d.components[j])
            maps = [
                m
                for m in maps
                if all(
                    src_entries[si]._skeleton == tgt_entries[ti]._skeleton
                    for si, ti in enumerate(m)
                )
            ]
            if not maps:
                feasible = False
                break
            choices.append(maps)
        if not feasible:
            continue
        for choice in itertools.product(*choices):
            perm = [0] * n
            label_maps = [{}]
            valid = True
            for i, (j, index_map) in enumerate(zip(target, choice)):
                src_entries = comp_entries(d.components[i])
                tgt_entries = comp_entries(d.components[j])
                for si, ti in enumerate(index_map):
                    src_e, tgt_e = src_entries[si], tgt_entries[ti]
                    perm[offsets[i] + si] = offsets[j] + ti
                    src_ls = sorted(set(src_e.labels))
                    tgt_ls = sorted(set(tgt_e.labels))
                    new_maps = []
                    for m in label_maps:
                        for assign in itertools.permutations(tgt_ls):
                            m2 = dict(m)
                            good = True
                            for a, b in zip(src_ls, assign):
                                if src_e.labels.count(a) != tgt_e.labels.count(b):
                                    good = False
                                    break
                                if m2.get(a, b) != b or (
                                    b in m2.values() and a not in m2
                                ):
                                    good = False
                                    break
                                m2[a] = b
                            if good:
                                new_maps.append(m2)
                    label_maps = new_maps
                    if not label_maps:
                        valid = False
                        break
                if not valid:
                    break
            if valid and label_maps:
                perms.add(tuple(perm))
    free = len(d.free_labels)
    order = len(perms)
    for i in range(2, free + 1):
        order *= i
    return AutGroup(order, tuple(sorted(perms)))
