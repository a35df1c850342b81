"""The cascade as it was before level-local deduplication and lean
records: every child gets a width check, duplicates included, every
record carries the child's type, and every node keeps its own type.
Kept as the oracle for ``swaps.cascade``, whose nodes keep no type:
``node_types`` replays them from the root.

``expand_run`` and ``commuting_skips`` are ``swaps._expand_run`` and
``swaps._commuting_skips`` as they were before children were classified
in graph form: every child is built as a ``DecoratedType`` by
``reverse_swap``, and the skips blow the child up and walk it again.

``attachments`` and ``reverse_moves`` read each label's attachments by a
scan of its own, as ``swaps`` did before one pass read them all.

With ``check_monotone`` it also checks, on every ok (parent, move) edge,
duplicate children included, that no log discrepancy decreases under
the forward swap from the child back to the parent: the monotonicity
that makes the cascade's pruning sound.

``singularity_type``, ``is_admissible_type`` and ``is_log_canonical_type``
read a type's parts as a ``chains.Fork`` per fork (``part_weights``), the
oracle for the readers of ``boundary`` that read weights from the walk."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import width_oracle

from delpezzo3 import swaps
from delpezzo3.boundary import DecoratedType, canonical_form, walk_components, width_check
from delpezzo3.chains import Fork, is_admissible, ld_chain, ld_fork
from delpezzo3.swaps import (
    CascadeResult,
    SwapError,
    _blow_up_graph,
    process_pool,
    reverse_swap,
    to_graph,
)


@dataclass(frozen=True)
class CascadeNode:
    dtype: DecoratedType
    depth: int
    parent: bytes | None
    move: tuple[int, int] | None
    status: str  # "ok" | "inadmissible" | "inequality" | "invalid"
    lhs: Fraction | None


def attachments(entries, label) -> list:
    """The (entry index, contact) of each entry that ``label`` meets."""
    return [(i, e.labels.count(label)) for i, e in enumerate(entries) if label in e.labels]


def reverse_moves(d: DecoratedType, excluded_labels: frozenset = frozenset()) -> list:
    """All (label, target index) pairs that admit a reverse swap."""
    entries, _ = to_graph(d)
    moves = []
    for label in sorted(d.labels() - excluded_labels):
        att = attachments(entries, label)
        if all(k == 1 for _, k in att):
            moves += [(label, i) for i, _ in att]
    return moves


def blow_up(graph, label, target):
    """``swaps._blow_up_graph`` at a legal move, the label's attachments
    read by ``attachments``."""
    return _blow_up_graph(graph, label, target, [i for i, _ in attachments(graph[0], label)])


def ok_nodes(result: CascadeResult) -> list:
    return [result.nodes[k] for k in sorted(result.nodes)]


def node_types(root: DecoratedType, result: CascadeResult) -> dict:
    """The type of every node of ``result``, ok and pruned, by key: the
    root's is ``root``, and every other node's is its move replayed by
    ``reverse_swap`` on its parent's type, in order of depth."""
    types: dict = {}
    for key, node in sorted({**result.nodes, **result.pruned}.items(), key=lambda kv: kv[1].depth):
        types[key] = root if node.move is None else reverse_swap(types[node.parent], *node.move)
    return types


def part_weights(entries, part):
    """Undecorated shape of the layout ``part`` over ``entries``: a weight
    tuple or a chains.Fork."""
    if part[0] == "chain":
        return tuple([entries[i].weight for i in part[1]])
    return Fork(entries[part[1]].weight,
                tuple(tuple([entries[i].weight for i in t]) for t in part[2]))


# -- the type readers that built a Fork per fork ------------------------------------
# ``boundary.singularity_type_of``, ``DecoratedType.is_admissible`` and
# ``DecoratedType.is_log_canonical`` as they were before they read weights
# from the walk: each part's shape by ``part_weights``, every weight of a
# fork checked again, and a fork's rule by ``width_oracle._fork_excess``.


def singularity_type(d) -> tuple:
    out = []
    entries, layout = d.walk()
    for part in layout:
        shape = part_weights(entries, part)
        if isinstance(shape, Fork):
            out.append(("fork", shape.branch, shape.sorted_twigs()))
        else:
            out.append(("chain", min(shape, tuple(reversed(shape)))))
    return tuple(sorted(out))


def _fork_rule(d, holds) -> bool:
    """Every chain of ``d`` admissible, and ``holds`` of the excess of
    every fork, None for a fork with a weight below 2."""
    entries, layout = d.walk()
    for shape in (part_weights(entries, part) for part in layout):
        if not (holds(width_oracle._fork_excess(shape)) if isinstance(shape, Fork)
                else is_admissible(shape)):
            return False
    return True


def is_admissible_type(d) -> bool:
    return _fork_rule(d, lambda excess: excess is not None and excess > 0)


def is_log_canonical_type(d) -> bool:
    return _fork_rule(d, lambda excess: excess is not None and excess >= 0)


def graph_lds(entries, adj) -> list[Fraction]:
    """Log discrepancy of every graph node, indexed like ``entries``."""
    lds: list = [None] * len(entries)
    layout = walk_components(adj)
    for part in layout:
        shape = part_weights(entries, part)
        if part[0] == "chain":
            for j, i in enumerate(part[1], start=1):
                lds[i] = ld_chain(shape, j)
        else:
            lds[part[1]] = ld_fork(shape, "branch")
            for ti, twig in enumerate(part[2], start=1):
                for j, i in enumerate(twig, start=1):
                    lds[i] = ld_fork(shape, (ti, j))
    return lds


def _check_lds_monotone(parent_graph, parent_lds, move) -> None:
    """Log discrepancies do not decrease under the forward swap from the
    child back to the parent, given the parent's graph and lds.  The
    reverse swap keeps every parent entry at its graph index and appends
    the new (-2)-curve, so indices match."""
    child_lds = graph_lds(*blow_up(parent_graph, *move))
    for i, parent_ld in enumerate(parent_lds):
        if child_lds[i] > parent_ld:
            raise AssertionError(
                f"log discrepancy decreased under forward swap {move}"
            )


def _expand_parent(args):
    """Generate and classify all reverse-swap children of one parent.

    The moves come from the ``reverse_moves`` oracle.  For the
    monotonicity check, the parent's graph and lds are built once and
    shared by every child."""
    parent_key, parent, check_monotone, excluded = args
    graph = to_graph(parent)
    parent_lds = graph_lds(*graph) if check_monotone else None
    out = []
    for move in reverse_moves(parent, excluded):
        try:
            child = reverse_swap(parent, *move)
        except SwapError:
            continue
        key = canonical_form(child)
        res = width_check(child)
        if res is None:
            out.append((key, parent_key, move, "inadmissible", None, child))
            continue
        if not res.satisfied:
            out.append((key, parent_key, move, "inequality", res.lhs, child))
            continue
        if check_monotone:
            _check_lds_monotone(graph, parent_lds, move)
        out.append((key, parent_key, move, "ok", res.lhs, child))
    return out


def cascade(
    root: DecoratedType,
    max_depth: int,
    check_monotone: bool = False,
    jobs: int = 1,
    excluded_labels: frozenset = frozenset(),
) -> CascadeResult:
    """Breadth-first closure of the root under reverse swaps.

    Children that stay admissible and satisfy the width inequality are
    expanded; the others are recorded with their failure and pruned
    (sound by the weighted-subgraph monotonicity of log discrepancies).
    The result is independent of ``jobs``: per-level expansions merge in
    frontier order and deduplicate by canonical form.
    """
    root_check = width_check(root)
    if root_check is None or not root_check.satisfied:
        raise SwapError("cascade root must be admissible and satisfy the inequality")
    root_key = canonical_form(root)
    nodes = {root_key: CascadeNode(root, 0, None, None, "ok", root_check.lhs)}
    pruned: dict = {}
    frontier = [(root_key, root)]
    depth = 0
    pool = process_pool(jobs)
    try:
        while frontier and depth < max_depth:
            depth += 1
            tasks = [(k, p, check_monotone, excluded_labels) for k, p in frontier]
            if pool is not None:
                batches = list(pool.map(_expand_parent, tasks, chunksize=8))
            else:
                batches = [_expand_parent(t) for t in tasks]
            next_frontier = []
            for batch in batches:
                for key, parent_key, move, status, lhs, child in batch:
                    if key in nodes or key in pruned:
                        continue
                    node = CascadeNode(child, depth, parent_key, move, status, lhs)
                    if status == "ok":
                        nodes[key] = node
                        next_frontier.append((key, child))
                    else:
                        pruned[key] = node
            next_frontier.sort(key=lambda kv: kv[0])
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown()
    return CascadeResult(nodes, pruned)


def expand_run(parents, excluded, expand, skips):
    """``swaps._expand_run`` with every child built by ``reverse_swap``;
    the moves come from ``swaps.reverse_moves``, read at each parent, and
    a move on an ``excluded`` label is skipped, as ``_Frame`` rejects it."""
    seen: dict = {}  # key -> whether it was ok
    for parent, skip in zip(parents, skips):
        graph = to_graph(parent)
        records, siblings = [], {}
        for move in swaps.reverse_moves(parent, excluded):
            if move in skip or move[0] in excluded:
                continue
            try:
                child = reverse_swap(parent, *move)
            except SwapError:
                continue
            key = canonical_form(child)
            ok = seen.get(key)
            if ok is None:
                res = width_check(child)
                ok = seen[key] = res is not None and res.satisfied
                if res is None:
                    records.append((key, move, "inadmissible", None, None))
                else:
                    status = "ok" if ok else "inequality"
                    records.append((key, move, status, res.lhs, child if ok and expand else None))
            if ok:
                siblings[move] = key
        yield records, {move: commuting_skips(graph, move, key, siblings)
                        for key, move, _, _, child in records if child is not None}


def commuting_skips(graph, move, key, siblings) -> tuple:
    """``swaps._commuting_skips`` from the parent's graph: blow the child
    up again and walk it to map the parent's entries to the child's."""
    label, target = move
    earlier = [(a, t) for (a, t), k in siblings.items() if a != label and k < key]
    if not earlier:
        return ()
    _, new_adj = blow_up(graph, label, target)
    order = []
    for part in walk_components(new_adj):
        order += part[1] if part[0] == "chain" else [part[1], *chain.from_iterable(part[2])]
    index = {i: t for t, i in enumerate(order)}
    return tuple((a, index[t]) for a, t in earlier)
