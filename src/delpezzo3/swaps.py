"""Elementary vertical swaps and the cascade enumerator.

A forward swap contracts a vertical (-1)-curve A meeting exactly one
(-2)-component C of the boundary (and at most one further boundary
component G, all normally): C leaves the boundary and becomes the new
vertical (-1)-curve, G drops one weight.  A reverse swap blows up the
intersection of A with one of its boundary attachments.

The cascade enumerator closes a vertically primitive root under reverse
swaps, keeping the children that stay admissible and satisfy the width
inequality, and deduplicating by canonical form.  A parent's moves are
read in one pass over its entries; what its children share, its graph,
layout, label blocks and each label's targets, is built once from the
parent and its moves (``_Frame``).  A child is classified from that
frame, with only the component of its new curve walked again, and
becomes a DecoratedType only if it is expanded.  Reverse swaps on
different labels commute, so a node skips each move whose child an
earlier sibling also makes by the node's own move (partial-order
reduction, after Godefroid, "Partial-Order Methods for the Verification
of Concurrent Systems", LNCS 1032, 1996).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain

from delpezzo3.boundary import (
    BoundaryGraph,
    DecoratedType,
    Entry,
    canonical_form,
    comp_entries,
    neighbours,
    walk_component,
    walk_components,
    width_check,
)
from delpezzo3.chains import tuple_record


class SwapError(ValueError):
    pass


# -- graph form --------------------------------------------------------------


def to_graph(d: DecoratedType):
    """The graph form ``(entries, adj)`` of ``d``: its walk's entries and
    their ``neighbours`` in its stored layout."""
    entries, layout = d.walk()
    return entries, neighbours(layout, len(entries))


def from_graph(entries, adj, width, char_tag, free_labels) -> DecoratedType:
    """The DecoratedType of the graph form ``(entries, adj)``, built from
    its ``walk_components`` parts.  A graph that is not a union of chains
    and forks, or a type that fails its checks, raises SwapError."""
    try:
        return DecoratedType.from_walk(walk_components(adj), entries, width, char_tag, free_labels)
    except ValueError as err:
        raise SwapError(str(err)) from None


def _label_attachments(entries) -> dict:
    """Each label's attachments over ``entries``, in one pass: its list of
    (entry index, contact), the contact being how often it meets the entry."""
    att: dict = {}
    for i, e in enumerate(entries):
        for l in dict.fromkeys(e.labels):
            att.setdefault(l, []).append((i, e.labels.count(l)))
    return att


def _strip_label(e: Entry, label: int) -> Entry:
    return Entry(e.weight, e.horizontal, e.two_section,
                 tuple(l for l in e.labels if l != label))


def _add_label(e: Entry, label: int) -> Entry:
    return Entry(e.weight, e.horizontal, e.two_section, e.labels + (label,))


# -- the swaps ---------------------------------------------------------------


def forward_swap(d: DecoratedType, label: int) -> DecoratedType:
    """Contract the vertical (-1)-curve with the given label."""
    entries, adj = to_graph(d)
    att = _label_attachments(entries).get(label)
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


def reverse_swap(d: DecoratedType, label: int, target: int) -> DecoratedType:
    """Blow up the intersection of the labeled (-1)-curve with the
    boundary entry at graph index ``target``: a move when the label meets
    each of its attachments once, the target among them."""
    graph = to_graph(d)
    att = _label_attachments(graph[0]).get(label, [])
    if (target, 1) not in att or any(k > 1 for _, k in att):
        raise SwapError(f"({label}, {target}) is not a reverse move")
    return from_graph(*_blow_up_graph(graph, label, target, [i for i, _ in att]),
                      d.width, d.char_tag, d.free_labels)


def _blow_up_graph(graph, label: int, target: int, attached):
    """The reverse swap in graph form at a legal move: every entry keeps
    its index, the target gains one weight, the label moves from its other
    ``attached`` entries to the new (-2)-curve, which is appended and meets
    them.  The lists of ``adj`` that do not change are shared, not copied."""
    entries, adj = graph
    new_entries, new_adj = list(entries), list(adj)
    c = len(entries)
    others = [i for i in attached if i != target]
    e = entries[target]
    new_entries[target] = Entry(e.weight + 1, e.horizontal, e.two_section, e.labels)
    for i in others:
        new_entries[i] = _strip_label(entries[i], label)
        new_adj[i] = adj[i] + [c]
    new_entries.append(Entry(2, labels=(label,)))
    new_adj.append(others)
    return new_entries, new_adj


class _Frame:
    """What the reverse-swap children of one parent share, computed once:
    the parent's entries, layout and label blocks, which it stores, its
    graph form (the entries and their ``neighbours`` in the layout), each
    entry's part, each part's block, and each label's targets in the
    parent's ``moves``, which are its attachments: it meets each once.

    A blow-up changes one weight and joins the new (-2)-curve to the
    label's other attachments, so ``child`` walks only the component of
    the new curve and keeps every other part and block of the parent."""

    __slots__ = ("parent", "graph", "layout", "part_of", "block_of", "blocks", "targets")

    def __init__(self, parent: DecoratedType, moves):
        self.parent = parent
        self.graph = to_graph(parent)
        entries, self.layout = parent.walk()
        self.part_of = [0] * len(entries)
        for p, part in enumerate(self.layout):
            for i in comp_entries(part):
                self.part_of[i] = p
        blocks = parent.label_blocks()[1]
        self.blocks = list(map(list, blocks))
        index = {part: b for b, block in enumerate(blocks) for part in block}
        self.block_of = [index[part] for part in self.layout]  # each part's block in ``blocks``
        self.targets: dict = {}
        for label, target in moves:
            self.targets.setdefault(label, []).append(target)

    def child(self, label: int, target: int) -> BoundaryGraph:
        """The walked blow-up of the parent at ``(label, target)``; a
        SwapError if it is not a move of the parent or the new curve closes
        a cycle or makes a component that is neither a chain nor a fork.

        The new curve's component, the parts of the label's other
        attachments joined by the new curve, is walked again.  In the
        parent's layout it takes the slot of the first part it absorbs, or
        goes last if it absorbs none, which is where ``walk_components``
        puts it: components come in order of their smallest node, and the
        new curve's node is the last.  The label now meets the target and
        the new curve, so the new component joins the target's label
        block, and every other block keeps its parts.  A blow-up of a
        DecoratedType passes its checks: weights only grow, the marks do
        not move, and the label meets the boundary twice."""
        attached = self.targets.get(label, ())
        if target not in attached:
            raise SwapError(f"({label}, {target}) is not a reverse move of the parent")
        entries, adj = _blow_up_graph(self.graph, label, target, attached)
        c = len(entries) - 1
        try:
            merged = walk_component(adj, c, set())
        except ValueError as err:
            raise SwapError(str(err)) from None
        absorbed = {self.part_of[i] for i in adj[c]}
        first = min(absorbed, default=None)
        home = self.block_of[self.part_of[target]]
        layout, block = [], []
        for p, part in enumerate(self.layout):
            if p in absorbed:
                if p != first:
                    continue
                part = merged
            layout.append(part)
            if self.block_of[p] == home:
                block.append(part)
        if first is None:
            layout.append(merged)
            block.append(merged)
        blocks = self.blocks.copy()
        blocks[home] = block
        d = self.parent
        return BoundaryGraph(entries, layout, blocks, d.width, d.char_tag, d.free_labels)


def legal_forward_labels(d: DecoratedType,
                         excluded_labels: frozenset = frozenset()) -> list[int]:
    """The labels outside ``excluded_labels`` that ``forward_swap`` contracts."""
    out = []
    for label in sorted(d.labels() - excluded_labels):
        try:
            forward_swap(d, label)
        except SwapError:
            continue
        out.append(label)
    return out


def is_vertically_primitive(d: DecoratedType,
                            excluded_labels: frozenset = frozenset()) -> bool:
    return not legal_forward_labels(d, excluded_labels)


def reverse_moves(d: DecoratedType,
                  excluded_labels: frozenset = frozenset()) -> list[tuple[int, int]]:
    """All (label, target index) pairs that admit a reverse swap, read
    from ``_label_attachments`` of the walk's entries: every attachment of a
    label that is not excluded and meets each of its attachments once."""
    att = _label_attachments(d.entries())
    return [(label, i) for label in sorted(att.keys() - excluded_labels)
            if all(k == 1 for _, k in att[label]) for i, _ in att[label]]


# -- cascade -----------------------------------------------------------------


@tuple_record
class CascadeNode:
    """One node of a cascade: its depth, its parent's key, the move that
    made it from the parent, its status and lhs.  No node keeps a type;
    the types live only in the frontier."""

    depth: int
    parent: bytes | None
    move: tuple[int, int] | None
    status: str  # "ok" | "inadmissible" | "inequality"
    lhs: Fraction | None


@tuple_record
class CascadeResult:
    nodes: dict  # canonical_form -> CascadeNode
    pruned: dict  # canonical_form -> CascadeNode


def _expand_run(parents, excluded, expand, skips):
    """Generate and classify the reverse-swap children of a run of
    parents, yielding one pair (records, skips) per parent.

    Each parent's ``reverse_moves`` are read once and build its
    ``_Frame``, shared by every child.  The moves in the parent's entry of
    ``skips`` are not tried.  A child is built from the frame as a
    ``BoundaryGraph``, with only the new curve's component walked, which
    gives its key and, for a key new to the run, its width check and a
    record (key, move, status, lhs, child).  The child is there only when
    it is ok and ``expand`` is set, built by ``reverse_swap``; the yielded
    ``skips`` maps its move to the moves it need not try
    (``_commuting_skips``, from the child's layout)."""
    seen: dict = {}  # key -> whether it was ok
    for parent, skip in zip(parents, skips):
        moves = reverse_moves(parent, excluded)
        frame = _Frame(parent, moves)
        records, siblings, expanded = [], {}, {}
        for move in moves:
            if move in skip:
                continue
            try:
                walked = frame.child(*move)
            except SwapError:
                continue
            key = canonical_form(walked)
            ok = seen.get(key)
            if ok is None:
                res = width_check(walked)
                ok = seen[key] = res is not None and res.satisfied
                if res is None:
                    records.append((key, move, "inadmissible", None, None))
                else:
                    child = reverse_swap(parent, *move) if ok and expand else None
                    records.append((key, move, "ok" if ok else "inequality", res.lhs, child))
                    if child is not None:
                        expanded[move] = key, walked.layout
            if ok:
                siblings[move] = key
        yield records, {move: _commuting_skips(layout, move, key, siblings)
                        for move, (key, layout) in expanded.items()}


def _commuting_skips(layout, move, key, siblings) -> tuple:
    """The moves that the child ``key``, made by ``move`` and walked into
    ``layout``, need not try, because a sibling earlier in the frontier
    makes the same children by them; ``siblings`` maps each move of the
    parent to the key of its ok child.

    A move (a, t) of the child on another label, with t an entry of the
    parent, commutes with ``move``: the two blow up different points.
    If the sibling that (a, t) makes from the parent has a key before
    ``key``, that sibling is expanded first, and its move on ``move``'s
    label makes the same child up to the order of the two new entries.
    The child numbers its entries in the order of its walk, as
    ``from_graph`` does, so ``layout`` maps t to the child's index."""
    earlier = [(a, t) for (a, t), k in siblings.items() if a != move[0] and k < key]
    if not earlier:
        return ()
    index = {i: t for t, i in enumerate(chain.from_iterable(map(comp_entries, layout)))}
    return tuple((a, index[t]) for a, t in earlier)


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

    Two reverse swaps on different labels commute, so a node does not
    try the moves that ``_commuting_skips`` finds: each makes a child
    that a sibling earlier in the frontier also makes.  The first
    (parent, move) that makes a key is never skipped, so every node's
    depth, parent, move, status and lhs are those of the full closure;
    like deduplication by key, this takes the types that share a key to
    have children that share keys.  The run that makes a child to
    expand finds its skipped moves from the keys of the child's ok
    siblings and sends them back with the child; they ride in the
    frontier to the run that expands it.
    """
    root_check = width_check(root)
    if root_check is None or not root_check.satisfied:
        raise SwapError("cascade root must be admissible and satisfy the inequality")
    root_key = canonical_form(root)
    nodes = {root_key: CascadeNode(0, None, None, "ok", root_check.lhs)}
    pruned: dict = {}
    frontier = [(root_key, root, ())]
    depth = 0
    workers = min(jobs, os.cpu_count() or 1)
    pool = process_pool(workers)
    try:
        while frontier and depth < max_depth:
            depth += 1
            size = -(-len(frontier) // workers) if pool is not None else len(frontier)
            parts = [frontier[i:i + size] for i in range(0, len(frontier), size)]
            runs = [([p for _, p, _ in part], excluded_labels, depth < max_depth,
                     [s for _, _, s in part]) for part in parts]
            batches = (chain.from_iterable(pool.map(_expand_run_list, runs))
                       if pool is not None else _expand_run(*runs[0]))
            next_frontier = []
            for (parent_key, _, _), (records, skips) in zip(frontier, batches):
                for key, move, status, lhs, child in records:
                    if key in nodes or key in pruned:
                        continue
                    node = CascadeNode(depth, parent_key, move, status, lhs)
                    (nodes if status == "ok" else pruned)[key] = node
                    if child is not None:
                        next_frontier.append((key, child, skips[move]))
            next_frontier.sort(key=lambda item: item[0])
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown()
    return CascadeResult(nodes, pruned)
