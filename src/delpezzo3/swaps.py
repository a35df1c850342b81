"""Elementary vertical swaps and the cascade enumerator.

A forward swap contracts a vertical (-1)-curve A meeting exactly one
(-2)-component C of the boundary (and at most one further boundary
component G, all normally): C leaves the boundary and becomes the new
vertical (-1)-curve, G drops one weight.  A reverse swap blows up the
intersection of A with one of its boundary attachments.

The cascade enumerator closes a vertically primitive root under reverse
swaps, keeping the children that stay admissible and satisfy the width
inequality, and deduplicating by canonical form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from delpezzo3.boundary import (
    DecoratedType,
    Entry,
    canonical_form,
    graph_of,
    place_entries,
    walk_components,
    width_check,
)


class SwapError(ValueError):
    pass


# -- graph form --------------------------------------------------------------


def to_graph(d: DecoratedType):
    """The graph form ``(entries, adj)`` of ``d``: ``graph_of`` its components."""
    return graph_of(d.components)


def from_graph(entries, adj, width, char_tag, free_labels) -> DecoratedType:
    try:
        layout = walk_components(adj)
    except ValueError as err:
        raise SwapError(str(err)) from None
    return DecoratedType(place_entries(layout, entries), width, char_tag, frozenset(free_labels))


def _attachments(entries, label):
    out = []
    for i, e in enumerate(entries):
        k = e.labels.count(label)
        if k:
            out.append((i, k))
    return out


def _strip_label(e: Entry, label: int) -> Entry:
    return Entry(e.weight, e.horizontal, e.two_section,
                 tuple(l for l in e.labels if l != label))


def _add_label(e: Entry, label: int) -> Entry:
    return Entry(e.weight, e.horizontal, e.two_section, e.labels + (label,))


# -- the swaps ---------------------------------------------------------------


def forward_swap(d: DecoratedType, label: int,
                 excluded_labels: frozenset = frozenset()) -> DecoratedType:
    """Contract the vertical (-1)-curve with the given label."""
    if label in excluded_labels:
        raise SwapError(f"label {label} meets the boundary in a node")
    entries, adj = to_graph(d)
    att = _attachments(entries, label)
    if not att:
        raise SwapError(f"label {label} has no boundary attachment")
    if any(k > 1 for _, k in att):
        raise SwapError("the curve meets a boundary component twice")
    if sum(k for _, k in att) > 2:
        raise SwapError("the curve meets the boundary more than twice")
    minus_two = [
        i for i, _ in att if entries[i].weight == 2 and not entries[i].horizontal
    ]
    if len(minus_two) != 1:
        raise SwapError("no unique non-horizontal (-2)-attachment")
    c = minus_two[0]
    others = [i for i, _ in att if i != c]
    g = others[0] if others else None
    neighbors = adj[c]

    new_entries = []
    for i, e in enumerate(entries):
        if i == c:
            continue
        e = _strip_label(e, label)
        if i == g:
            if e.weight - 1 < 2:
                raise SwapError("contraction would push a boundary weight below 2")
            e = Entry(e.weight - 1, e.horizontal, e.two_section, e.labels)
        if i in neighbors or i == g:
            e = _add_label(e, label)
        new_entries.append(e)
    # drop c and close the gap it leaves in the numbering
    new_adj = [[j - (j > c) for j in nb if j != c] for i, nb in enumerate(adj) if i != c]
    free = set(d.free_labels)
    if g is None and not neighbors:
        free.add(label)
    return from_graph(new_entries, new_adj, d.width, d.char_tag, free)


def reverse_swap(d: DecoratedType, label: int, target: int,
                 excluded_labels: frozenset = frozenset(), graph=None) -> DecoratedType:
    """Blow up the intersection of the labeled (-1)-curve with the
    boundary entry at graph index ``target``.  ``graph`` is ``to_graph(d)``,
    passed by a caller that builds it once for many swaps of ``d``."""
    if label in excluded_labels:
        raise SwapError(f"label {label} meets the boundary in a node")
    entries, adj = to_graph(d) if graph is None else graph
    att = _attachments(entries, label)
    if target not in {i for i, _ in att}:
        raise SwapError(f"entry {target} is not an attachment of label {label}")
    if any(k > 1 for _, k in att):
        raise SwapError("the curve meets a boundary component twice")
    new_entries, new_adj = _blow_up_graph(entries, adj, att, label, target)
    return from_graph(new_entries, new_adj, d.width, d.char_tag, d.free_labels)


def _blow_up_graph(entries, adj, att, label: int, target: int):
    """The reverse swap in graph form: every entry keeps its index, the
    target gains one weight, the label moves from the other attachments
    ``att`` to the new (-2)-curve, which is appended and meets them.  The
    lists of ``adj`` that do not change are shared, not copied."""
    new_entries = list(entries)
    new_adj = list(adj)
    c = len(entries)
    others = [i for i, _ in att if i != target]
    e = entries[target]
    new_entries[target] = Entry(e.weight + 1, e.horizontal, e.two_section, e.labels)
    for i in others:
        new_entries[i] = _strip_label(entries[i], label)
        new_adj[i] = adj[i] + [c]
    new_entries.append(Entry(2, labels=(label,)))
    new_adj.append(others)
    return new_entries, new_adj


def legal_forward_labels(d: DecoratedType,
                         excluded_labels: frozenset = frozenset()) -> list[int]:
    out = []
    for label in sorted(d.labels()):
        try:
            forward_swap(d, label, excluded_labels)
        except SwapError:
            continue
        out.append(label)
    return out


def is_vertically_primitive(d: DecoratedType,
                            excluded_labels: frozenset = frozenset()) -> bool:
    return not legal_forward_labels(d, excluded_labels)


def reverse_moves(d: DecoratedType, excluded_labels: frozenset = frozenset(),
                  graph=None) -> list[tuple[int, int]]:
    """All (label, target index) pairs that admit a reverse swap.
    ``graph`` is ``to_graph(d)``, passed by a caller that has built it."""
    entries, _ = to_graph(d) if graph is None else graph
    moves = []
    for label in sorted(d.labels()):
        if label in excluded_labels:
            continue
        att = _attachments(entries, label)
        if any(k > 1 for _, k in att):
            continue
        for i, _ in att:
            moves.append((label, i))
    return moves


# -- cascade -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CascadeNode:
    """One node of a cascade.  The root keeps its own type; every other
    node keeps its parent's, and ``dtype`` rebuilds its own from the move
    on every read."""

    depth: int
    parent: bytes | None
    move: tuple[int, int] | None
    status: str  # "ok" | "inadmissible" | "inequality"
    lhs: Fraction | None
    kept: DecoratedType  # the root's own type, else the parent's

    @property
    def dtype(self) -> DecoratedType:
        return self.kept if self.move is None else reverse_swap(self.kept, *self.move)


@dataclass
class CascadeResult:
    nodes: dict  # canonical_form -> CascadeNode
    pruned: dict  # canonical_form -> CascadeNode


def _expand_run(parents, excluded, expand):
    """Generate and classify all reverse-swap children of a run of
    parents, yielding one record list per parent.

    Each parent's graph is built once and shared by its move list and
    every child.  A child whose key the run has already classified gets
    no width check and no record.  A record is (key, move, status, lhs,
    child), with the child only when it is ok and ``expand`` is set."""
    seen: set = set()
    for parent in parents:
        graph = to_graph(parent)
        out = []
        for move in reverse_moves(parent, excluded, graph=graph):
            try:
                child = reverse_swap(parent, *move, excluded_labels=excluded, graph=graph)
            except SwapError:
                continue
            key = canonical_form(child)
            if key in seen:
                continue
            seen.add(key)
            res = width_check(child)
            if res is None:
                out.append((key, move, "inadmissible", None, None))
            elif not res.satisfied:
                out.append((key, move, "inequality", res.lhs, None))
            else:
                out.append((key, move, "ok", res.lhs, child if expand else None))
        yield out


def _expand_run_list(args) -> list:
    """``_expand_run`` as one list, for a pool worker."""
    return list(_expand_run(*args))


def process_pool(jobs: int):
    """A process pool of ``jobs`` workers capped at the core count, or
    None if that leaves one: ProcessPoolExecutor starts all of its
    workers at once."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers < 2:
        return None
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def cascade(
    root: DecoratedType,
    max_depth: int,
    jobs: int = 1,
    excluded_labels: frozenset = frozenset(),
) -> CascadeResult:
    """Breadth-first closure of the root under reverse swaps.

    Children that stay admissible and satisfy the width inequality are
    expanded; the others are recorded with their failure and pruned
    (sound by the weighted-subgraph monotonicity of log discrepancies).
    Each reverse swap adds one boundary entry, so a key can only recur
    within its own level.  A level's sorted frontier is cut into one
    contiguous run per worker (one run in serial mode), and
    ``_expand_run`` width-checks each key once per run.  The runs merge
    in frontier order and deduplicate by canonical form, the first
    occurrence kept, so the result is independent of ``jobs``.
    """
    root_check = width_check(root)
    if root_check is None or not root_check.satisfied:
        raise SwapError("cascade root must be admissible and satisfy the inequality")
    root_key = canonical_form(root)
    nodes = {root_key: CascadeNode(0, None, None, "ok", root_check.lhs, root)}
    pruned: dict = {}
    frontier = [(root_key, root)]
    depth = 0
    workers = min(jobs, os.cpu_count() or 1)
    pool = process_pool(workers)
    try:
        while frontier and depth < max_depth:
            depth += 1
            parents = [p for _, p in frontier]
            size = -(-len(parents) // workers) if pool is not None else len(parents)
            runs = [(parents[i:i + size], excluded_labels, depth < max_depth)
                    for i in range(0, len(parents), size)]
            batches = (chain.from_iterable(pool.map(_expand_run_list, runs))
                       if pool is not None else _expand_run(*runs[0]))
            next_frontier = []
            for (parent_key, parent), batch in zip(frontier, batches):
                for key, move, status, lhs, child in batch:
                    if key in nodes or key in pruned:
                        continue
                    node = CascadeNode(depth, parent_key, move, status, lhs, parent)
                    (nodes if status == "ok" else pruned)[key] = node
                    if child is not None:
                        next_frontier.append((key, child))
            next_frontier.sort(key=lambda kv: kv[0])
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown()
    return CascadeResult(nodes, pruned)
