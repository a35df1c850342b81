"""The one-pass cascade expansion against the per-child work it replaced:
the lean cascade against ``cascade_oracle``, the moves its
commuting-swap skip leaves out against the children they make, children
built from the parent's shared graph against ``reverse_swap``, children
classified in graph form against the expansion that built every child as
a ``DecoratedType``, the linear label encoding of ``block_search_oracle``
against its exhaustive tie-break search, and the one-pass width verdict
with its integer lhs against ``width_oracle``."""

import concurrent.futures
import os
import random
from collections import Counter, defaultdict
from fractions import Fraction as F

import cascade_oracle
import pytest
import width_oracle as oracle
from block_search_oracle import (
    _arrangement_items,
    _arrangements,
    _encode_arrangement,
    _encode_search,
    label_blocks,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical import fixture_instances, random_type, relabelled_copy
from test_swaps import load_primitive

from delpezzo3 import notation, swaps, verify
from delpezzo3.boundary import (
    DecoratedType,
    Entry,
    _label_blocks,
    canonical_form,
    chain_comp,
    fork_comp,
    place_entries,
    walk_components,
    width_check,
)
from delpezzo3.chains import Fork, chain_terms, fork_terms, is_admissible, ld_chain, ld_fork


def cascade_of(stem, depth):
    root, excluded = load_primitive(stem)
    return swaps.cascade(root, depth, excluded_labels=excluded), excluded


def types_of(stem, result) -> dict:
    """The type of every node of ``result``, the cascade of ``stem``, by key."""
    return cascade_oracle.node_types(load_primitive(stem)[0], result)


ORACLE_ROOTS = [("w3_a", 5), ("w3_b", 5), ("w1_a", 6), ("w1_b", 6), ("w1_c3_notGK", 6)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cascade_matches_oracle(jobs):
    """The same ok and pruned keys as the cascade that kept every type,
    each with the same depth, status, lhs, parent, move and type, every
    node's type replayed from the root by ``cascade_oracle.node_types``."""
    for stem, depth in ORACLE_ROOTS:
        root, excluded = load_primitive(stem)
        new = swaps.cascade(root, depth, jobs=jobs, excluded_labels=excluded)
        old = cascade_oracle.cascade(root, depth, jobs=jobs, excluded_labels=excluded)
        types = cascade_oracle.node_types(root, new)
        assert new.nodes.keys() == old.nodes.keys()
        assert new.pruned.keys() == old.pruned.keys()
        for got, expected in ((new.nodes, old.nodes), (new.pruned, old.pruned)):
            for key, node in got.items():
                twin = expected[key]
                assert (node.depth, node.status, node.lhs, node.parent, node.move) == (
                    twin.depth, twin.status, twin.lhs, twin.parent, twin.move
                )
                assert types[key] == twin.dtype


@pytest.mark.parametrize("stem, depth", [("w3_a", 4), ("w3_b", 4), ("w1_b", 6)])
def test_width_check_once_per_key(stem, depth, monkeypatch):
    """In serial mode the root and each new key get one width check;
    a child whose key its level has already produced gets none."""
    calls = []
    original = swaps.width_check

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(swaps, "width_check", counting)
    result, _ = cascade_of(stem, depth)
    assert len(calls) == len(result.nodes) + len(result.pruned)


@pytest.mark.parametrize("stem, depth", [("w3_a", 4), ("w3_b", 4), ("w1_b", 6)])
def test_monotone_check_on_every_ok_edge(stem, depth, monkeypatch):
    """The oracle's monotonicity check runs on every ok (parent, move)
    edge of the cascade, in frontier and move order: each reverse swap
    of an ok node above the last depth whose child is an ok node, also
    when a sibling or an earlier parent produced that key first."""
    calls = []
    original = cascade_oracle._check_lds_monotone

    def recording(parent_graph, parent_lds, move):
        calls.append((parent_graph, move))
        original(parent_graph, parent_lds, move)

    monkeypatch.setattr(cascade_oracle, "_check_lds_monotone", recording)
    root, excluded = load_primitive(stem)
    new = swaps.cascade(root, depth, excluded_labels=excluded)
    cascade_oracle.cascade(root, depth, check_monotone=True, excluded_labels=excluded)
    types = cascade_oracle.node_types(root, new)
    ok_edges = []
    for level in range(depth):
        for key in sorted(k for k, n in new.nodes.items() if n.depth == level):
            parent = types[key]
            graph = swaps.to_graph(parent)
            for move in swaps.reverse_moves(parent, excluded):
                try:
                    child = swaps.reverse_swap(parent, *move)
                except swaps.SwapError:
                    continue
                if canonical_form(child) in new.nodes:
                    ok_edges.append((graph, move))
    assert calls == ok_edges
    assert len(calls) > len(new.nodes) - 1


@pytest.fixture
def in_process_pool(monkeypatch):
    """Two cores, and a stand-in for ProcessPoolExecutor that runs each
    task in this process, so no pool is ever started.  Returns the list
    of each ``map`` call's tasks, each task added as it starts."""
    maps = []

    class InProcessPool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def map(self, fn, tasks, chunksize=1):
            maps.append([])
            out = []
            for task in tasks:
                maps[-1].append(task)
                out.append(fn(task))
            return out

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return maps


@pytest.mark.parametrize("stem, depth", [("w3_a", 5), ("w3_b", 5), ("w1_b", 6)])
def test_width_check_once_per_key_per_run_with_a_pool(stem, depth, in_process_pool, monkeypatch):
    """At ``jobs=2`` on two cores each level's frontier is cut into one
    run per worker, and each key gets one width check per run."""
    runs = defaultdict(Counter)  # keys width-checked per run, the root's check first
    original = swaps.width_check

    def counting(d):
        runs[sum(map(len, in_process_pool))][canonical_form(d)] += 1
        return original(d)

    monkeypatch.setattr(swaps, "width_check", counting)
    root, excluded = load_primitive(stem)
    result = swaps.cascade(root, depth, jobs=2, excluded_labels=excluded)
    assert all(count == 1 for run in runs.values() for count in run.values())
    frontiers = Counter(n.depth for n in result.nodes.values())
    assert [len(tasks) for tasks in in_process_pool] == [
        min(2, frontiers[d]) for d in range(depth) if frontiers[d]
    ]


def test_skipped_moves_are_made_by_an_earlier_parent(in_process_pool, monkeypatch):
    """Every move that ``_expand_run`` is told to skip is illegal or makes
    a child whose key the cascade records with a parent earlier in
    frontier order, so no first occurrence is lost, at one run per level
    and at two (the in-process pool).  The skips are many, and the same
    for every ``jobs``."""
    expanded = []  # (parent, its skipped moves), in the order the runs see them
    original = swaps._expand_run

    def recording(parents, excluded, expand, skips):
        expanded.extend(zip(parents, skips))
        return original(parents, excluded, expand, skips)

    monkeypatch.setattr(swaps, "_expand_run", recording)
    made = Counter()  # per (jobs, legal): skipped moves
    for stem, depth in (("w3_a", 5), ("w3_b", 5), ("w1_b", 6)):
        root, excluded = load_primitive(stem)
        skipped = {}
        for jobs in (1, 2):
            expanded.clear()
            result = swaps.cascade(root, depth, jobs=jobs, excluded_labels=excluded)
            for parent, skip in expanded:
                parent_key = canonical_form(parent)
                level = result.nodes[parent_key].depth
                for move in skip:
                    try:
                        child = swaps.reverse_swap(parent, *move)
                    except swaps.SwapError:
                        made[jobs, False] += 1
                        continue
                    key = canonical_form(child)
                    node = result.nodes.get(key) or result.pruned[key]
                    assert node.depth == level + 1
                    assert node.parent < parent_key
                    made[jobs, True] += 1
            skipped[jobs] = {canonical_form(parent): skip for parent, skip in expanded}
        assert skipped[1] == skipped[2]
    assert made[1, True] == made[2, True] > 1500
    assert made[1, False] == made[2, False] < made[1, True] / 20


def test_skip_cuts_reverse_swaps(cascades, monkeypatch):
    """The depth-4 w3a and w3b cascades call ``reverse_swap`` once per
    expanded child, an ok node above the last depth (391), with the same
    nodes.  Children are classified from the parent's frame, so the
    commuting-swap skip no longer changes this count; the calls it saves
    are blow-ups, which ``test_skip_cuts_blow_ups`` bounds."""
    calls = []
    original = swaps.reverse_swap

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(swaps, "reverse_swap", counting)
    for (result, excluded), stem in zip(cascades, ("w3_a", "w3_b")):
        again, _ = cascade_of(stem, 4)
        assert again.nodes.keys() == result.nodes.keys()
        assert again.pruned.keys() == result.pruned.keys()
    assert len(calls) == sum(
        0 < n.depth < 4 for result, _ in cascades for n in result.nodes.values()
    )


def test_skip_cuts_blow_ups(cascades, monkeypatch):
    """The depth-4 w3a and w3b cascades blow up at most 3500 graphs, one
    per child classified and one more per child that ``reverse_swap``
    builds to expand (4424 without the commuting-swap skip), with the
    same nodes."""
    calls = []
    original = swaps._blow_up_graph

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(swaps, "_blow_up_graph", counting)
    for (result, excluded), stem in zip(cascades, ("w3_a", "w3_b")):
        again, _ = cascade_of(stem, 4)
        assert again.nodes.keys() == result.nodes.keys()
        assert again.pruned.keys() == result.pruned.keys()
    assert len(calls) <= 3500


@pytest.fixture(scope="module")
def cascades():
    return [cascade_of(stem, 4) for stem in ("w3_a", "w3_b")]


def every_pair(d, excluded_labels=frozenset()):
    """Every (label, graph index) pair, legal reverse swap or not."""
    n = len(d.entries())
    return [(label, i) for label in sorted(d.labels()) for i in range(n)]


def try_moves(monkeypatch, moves, excluded):
    """Make ``_expand_run`` try ``moves`` at each parent, whose ``_Frame``
    is still built from its ``reverse_moves`` and so rejects every other
    pair."""
    frame, legal = swaps._Frame, swaps.reverse_moves
    monkeypatch.setattr(swaps, "_Frame", lambda parent, _: frame(parent, legal(parent, excluded)))
    monkeypatch.setattr(swaps, "reverse_moves", moves)


def test_shared_graph_children_match_reverse_swap(cascades, monkeypatch):
    """For every parent of the depth-4 w3a/w3b cascades, over the run of
    all parents, ``_expand_run`` keeps the key, status and lhs of each
    child that ``reverse_swap`` builds and whose key the run has not
    recorded yet, with the child itself only when it is ok, and no record
    for the others; also with every (label, index) pair tried as a move,
    where each move on an excluded label or that ``reverse_swap`` rejects
    makes no record.  Without ``expand`` no record carries a child."""
    children = rejected = duplicates = 0
    for (result, excluded), stem in zip(cascades, ("w3_a", "w3_b")):
        types = types_of(stem, result)
        parents = [types[k] for k, n in result.nodes.items() if n.depth < 4]
        for moves in (swaps.reverse_moves, every_pair):
            with monkeypatch.context() as m:
                try_moves(m, moves, excluded)
                no_skips = [()] * len(parents)
                batches = [
                    records for records, _ in swaps._expand_run(parents, excluded, True, no_skips)
                ]
                assert len(batches) == len(parents)
                earlier: dict = {}  # key -> (status, lhs) of its record
                for parent, batch in zip(parents, batches):
                    got = {
                        move: (child_key, status, lhs, child)
                        for child_key, move, status, lhs, child in batch
                    }
                    assert len(got) == len(batch)
                    recorded = []
                    for move in moves(parent, excluded):
                        try:
                            child = swaps.reverse_swap(parent, *move)
                        except swaps.SwapError:
                            child = None
                        if child is None or move[0] in excluded:
                            assert move not in got
                            rejected += 1
                            continue
                        if not child.is_admissible():
                            expected = ("inadmissible", None)
                        else:
                            res = oracle.delpezzo_check_width(child)
                            expected = ("ok" if res.satisfied else "inequality", res.lhs)
                        key = canonical_form(child)
                        children += 1
                        if key in earlier:
                            assert earlier[key] == expected
                            assert move not in got
                            duplicates += 1
                            continue
                        earlier[key] = expected
                        kept = child if expected[0] == "ok" else None
                        assert got[move] == (key, *expected, kept)
                        recorded.append(move)
                    assert recorded == list(got)
                lean = (
                    records for records, _ in swaps._expand_run(parents, excluded, False, no_skips)
                )
                assert [[(*r[:4], None) for r in b] for b in batches] == list(lean)
    assert children > 5000 and rejected > 5000 and duplicates > 1000


@pytest.mark.parametrize("moves", [swaps.reverse_moves, every_pair],
                         ids=["reverse_moves", "every_pair"])
def test_expand_run_matches_decorated_type_oracle(moves, monkeypatch):
    """For every parent of the depth-5 cascades of w3a, w3b, w1b, w1c3 and
    w2c, in one run per root, ``_expand_run``, which classifies each child
    in graph form, yields the same (records, skips) as the expansion that
    built every child by ``reverse_swap``; also with every (label, index)
    pair tried as a move, where a move ``reverse_swap`` rejects makes no
    record."""
    records = skipped = 0
    for stem in ("w3_a", "w3_b", "w1_b", "w1_c3_notGK", "w2_c"):
        result, excluded = cascade_of(stem, 5)
        types = types_of(stem, result)
        parents = [types[k] for k, n in result.nodes.items() if n.depth < 5]
        no_skips = [()] * len(parents)
        with monkeypatch.context() as m:
            try_moves(m, moves, excluded)
            new = list(swaps._expand_run(parents, excluded, True, no_skips))
            assert new == list(cascade_oracle.expand_run(parents, excluded, True, no_skips))
        records += sum(len(batch) for batch, _ in new)
        skipped += sum(map(len, (s for _, skips in new for s in skips.values())))
    assert records > 5000 and skipped > 1000


def test_monotone_check_once_per_parent(cascades, monkeypatch):
    """In the oracle's expansion of a parent, every ok edge, a child
    whose key an earlier parent has produced included, gets exactly one
    check of the child's lds against its parent's graph and lds, built
    once per parent."""
    calls = []
    original = cascade_oracle._check_lds_monotone

    def recording(parent_graph, parent_lds, move):
        calls.append((parent_graph, parent_lds, move))
        original(parent_graph, parent_lds, move)

    monkeypatch.setattr(cascade_oracle, "_check_lds_monotone", recording)
    result, excluded = cascades[0]
    types = types_of("w3_a", result)
    parents = [types[k] for k, n in result.nodes.items() if n.depth < 2]
    checked = duplicates = 0
    seen = set()
    for parent in parents:
        calls.clear()
        out = cascade_oracle._expand_parent((None, parent, True, excluded))
        ok_moves = []
        for move in swaps.reverse_moves(parent, excluded):
            try:
                child = swaps.reverse_swap(parent, *move)
            except swaps.SwapError:
                continue
            res = width_check(child)
            if res is not None and res.satisfied:
                ok_moves.append(move)
                duplicates += canonical_form(child) in seen
                seen.add(canonical_form(child))
        assert [move for *_, move in calls] == ok_moves
        assert [move for _, _, move, status, _, _ in out if status == "ok"] == ok_moves
        graph = swaps.to_graph(parent)
        lds = cascade_oracle.graph_lds(*graph)
        for parent_graph, parent_lds, _ in calls:
            assert parent_graph is calls[0][0] and parent_lds is calls[0][1]
            assert (parent_graph, parent_lds) == (graph, lds)
        checked += len(calls)
    assert checked > 30 and duplicates > 0


def encoding_cases(types):
    """Every arrangement of every block of ``types``."""
    for d in types:
        for block in label_blocks(d):
            yield from _arrangements(block)


def assert_linear_matches_search(types):
    linear = ties = 0
    for variants in encoding_cases(types):
        items = _arrangement_items(variants)
        assert _encode_arrangement(variants) == _encode_search(items)
        named: set = set()
        tie = False
        for e in items:
            if not isinstance(e, tuple):
                tie = tie or len(set(e.labels) - named) > 1
                named.update(e.labels)
        ties += tie
        linear += not tie
    return linear, ties


def test_linear_encoding_matches_search_on_fixtures():
    linear, ties = assert_linear_matches_search(fixture_instances(6))
    assert linear > 1000 and ties > 50


def test_linear_encoding_matches_search_on_random_types():
    rng = random.Random(909)
    types = [notation.substitute(notation.parse(text), {}) for text in (
        "[2@1@2]", "[2@1@2]+[3@1,2@2]", "[2@2@1,2@1]+[2@2]", "[2@1@1@2,2@2]",
        "<2@1@2;[2@1],[2@2],[2@3@4]>+[2@3,2@4]",
    )]
    for _ in range(500):
        d = random_type(rng)
        types += [d, relabelled_copy(d, rng)]
    linear, ties = assert_linear_matches_search(types)
    assert linear > 1000 and ties > 200


def assert_width_verdicts_match(types):
    """``width_check`` gives the lhs, rhs and verdict of the integer
    check that one pass of twig continuants replaced
    (``oracle.width_check``), and None exactly where it gave None; on
    admissible types, those of the ``Fraction`` oracle too.  Returns the
    number of admissible types."""
    admissible = 0
    for d in types:
        if d.width not in (1, 2, 3):
            continue
        got = width_check(d)
        assert got == oracle.width_check(d)
        assert (got is not None) == oracle.admissible(d) == d.is_admissible()
        if got is None:
            continue
        assert got == oracle.delpezzo_check_width(d)
        admissible += 1
    return admissible


# Boundary rows of the width criterion, with their lhs: log-canonical
# forks that are not admissible (excess 0, so no lhs), the 2-section on a
# fork's branch and on a twig entry, width-1 forks, an lhs equal to the
# rhs at each width, and multi-digit weights.
WIDTH_BOUNDARY_ROWS = [
    ("<2h;[2],[3h],[6h]> ; width=3", None),
    ("<2;[2h],[4hu],[4]> ; width=2", None),
    ("<2;[3h],[3],[3]> ; width=1", None),
    ("<2hu;[2],[2],[3]> + [2h] ; width=2", F(2)),
    ("<2h;[2],[2],[3hu,2]> ; width=2", F(3, 2)),
    ("<2hu;[2],[2],[2,3,2,2,2,2]> + [6h] ; width=2", F(1)),
    ("<2;[2],[2],[2h]> ; width=1", F(1)),
    ("<2;[2],[2],[2,3h,2,2,2,2]> ; width=1", F(1, 3)),
    ("<2h;[2],[3],[4]> ; width=1", F(1, 11)),
    ("<2h;[2],[2],[2,3h,2,2,2,2]> + [6h] ; width=3", F(1)),
    ("[12h,2,17] + <11;[2],[2h],[13h,25]> ; width=3", F(815795, 1223033)),
    ("<10hu;[2],[2],[11]> + [2,13h] ; width=2", F(172, 1225)),
]


def test_width_verdict_matches_oracle_on_fixtures():
    boundary = [notation.substitute(notation.parse(text), {}) for text, _ in WIDTH_BOUNDARY_ROWS]
    assert [None if res is None else res.lhs for res in map(width_check, boundary)] == [
        lhs for _, lhs in WIDTH_BOUNDARY_ROWS]
    assert assert_width_verdicts_match(boundary) == 9
    assert assert_width_verdicts_match(fixture_instances(12)) > 1200


def test_width_verdict_matches_oracle_on_cascade_nodes():
    """Every node of every primitive root's cascade to depth 5, and of
    the width-1 roots' cascades to depth 6."""
    types = []
    for stem in verify.ROOTS.values():
        result, _ = cascade_of(stem, 6 if stem.startswith("w1") else 5)
        types += types_of(stem, result).values()
    assert len(types) > 10000
    assert assert_width_verdicts_match(types) > 5500


_weights = st.lists(st.integers(2, 5), min_size=1, max_size=5)
# twigs mostly [2] or short runs of 2s, so that most forks are admissible
_twig = st.one_of(st.just([2]), st.lists(st.just(2), min_size=2, max_size=3), _weights)
_shapes = st.one_of(
    _weights.map(lambda ws: (ws,)),
    st.tuples(st.integers(2, 4), _twig, _twig, _twig),
)


@st.composite
def marked_types(draw):
    """One to three chains and forks, with width 1-3 horizontal marks on
    distinct entries, one of them the 2-section at width 2."""
    shapes = draw(st.lists(_shapes, min_size=1, max_size=3))
    size = sum(1 if isinstance(part, int) else len(part) for s in shapes for part in s)
    width = draw(st.integers(1, min(3, size)))
    marked = draw(st.lists(st.integers(0, size - 1), min_size=width, max_size=width, unique=True))
    two_section = marked[draw(st.integers(0, width - 1))] if width == 2 else None
    count = iter(range(size))

    def entry(weight):
        i = next(count)
        return Entry(weight, i in marked, i == two_section)

    components = []
    for s in shapes:
        if len(s) == 1:
            components.append(chain_comp([entry(w) for w in s[0]]))
        else:
            branch = entry(s[0])
            components.append(fork_comp(branch, [[entry(w) for w in t] for t in s[1:]]))
    return DecoratedType(tuple(components), width)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(marked_types())
def test_width_check_matches_fraction_oracle(d):
    """The integer lhs equals the oracle's sum of ``Fraction`` log
    discrepancies, and width_check is None exactly when a component is
    not admissible."""
    assert width_check(d) == oracle.width_check(d)
    if d.is_admissible():
        assert width_check(d) == oracle.delpezzo_check_width(d)
    else:
        assert width_check(d) is None
        with pytest.raises(ValueError):
            oracle.delpezzo_check_width(d)


@st.composite
def labelled_types(draw):
    """A ``marked_types`` type whose entries one to three labels meet, each
    label one to three entries, an entry possibly twice."""
    d = draw(marked_types())
    entries, adj = swaps.to_graph(d)
    met: list = [[] for _ in entries]
    for label in range(1, draw(st.integers(1, 3)) + 1):
        met_by = st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=3)
        for i in draw(met_by.filter(lambda met: max(Counter(met).values()) < 3)):
            met[i].append(label)
    entries = [Entry(e.weight, e.horizontal, e.two_section, tuple(ls)) for e, ls in zip(entries, met)]
    return swaps.from_graph(entries, adj, d.width, d.char_tag, d.free_labels)


def error_class(fn, *args):
    """The class of the ValueError that ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except ValueError as err:
        return type(err)
    return None


def as_lists(part):
    """A layout part with its index ranges as lists."""
    if part[0] == "chain":
        return ("chain", list(part[1]))
    return ("fork", part[1], tuple(map(list, part[2])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(labelled_types(), st.sampled_from([frozenset(), frozenset({1})]))
def test_graph_form_matches_decorated_type(d, excluded):
    """The layout a type stores is the walk of its graph, and the
    parent's ``_Frame``, built from its ``reverse_moves``, has its
    ``_label_blocks``.  For every (label, index) pair that is a move, the
    child that the frame builds, with only the new curve's component
    walked, is the one the whole blow-up gives: its layout is
    ``walk_components`` of the blown-up neighbour lists and its blocks
    ``_label_blocks`` of that layout, its entries make the DecoratedType
    that ``from_graph`` builds from the blow-up, with the same canonical
    form and width check, and that check agrees with the ``Fraction``
    oracle.  A graph that ``from_graph`` rejects (a cycle, or neither a
    chain nor a fork) raises the same error class.  Every other pair
    raises SwapError from the frame, and every pair outside
    ``reverse_moves(d)``, which excludes no label, from ``reverse_swap``."""
    moves, legal = swaps.reverse_moves(d, excluded), swaps.reverse_moves(d)
    frame = swaps._Frame(d, moves)
    graph = frame.graph
    entries, layout = d.walk()
    assert entries == graph[0]
    assert list(map(as_lists, layout)) == walk_components(graph[1])
    assert frame.blocks == _label_blocks(entries, layout)
    for label, target in every_pair(d):
        if (label, target) not in moves:
            assert error_class(frame.child, label, target) is swaps.SwapError
            if (label, target) not in legal:
                assert error_class(swaps.reverse_swap, d, label, target) is swaps.SwapError
            continue
        blown_up = cascade_oracle.blow_up(graph, label, target)
        args = (*blown_up, d.width, d.char_tag, d.free_labels)
        error = error_class(frame.child, label, target)
        assert error == error_class(swaps.from_graph, *args)
        if error is not None:
            continue
        walked, child = frame.child(label, target), swaps.from_graph(*args)
        whole = walk_components(blown_up[1])
        assert walked.entries == blown_up[0]
        assert list(map(as_lists, walked.layout)) == whole
        assert [list(map(as_lists, b)) for b in walked.blocks] == _label_blocks(walked.entries, whole)
        assert place_entries(whole, walked.entries) == child.components
        assert (walked.width, walked.char_tag, walked.free_labels) == (
            child.width, child.char_tag, child.free_labels)
        assert canonical_form(walked) == canonical_form(child)
        assert width_check(walked) == width_check(child)
        if child.is_admissible():
            assert width_check(child) == oracle.delpezzo_check_width(child)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(labelled_types(), st.sampled_from([frozenset(), frozenset({1})]))
def test_one_pass_attachments_match_oracle(d, excluded):
    """The one pass over the entries reads each label's attachments, with
    their contacts, labels meeting an entry twice included, as the scan
    per label does, and ``reverse_moves`` reads the moves it read."""
    entries = d.entries()
    assert swaps._label_attachments(entries) == {
        label: cascade_oracle.attachments(entries, label)
        for label in {l for e in entries for l in e.labels}
    }
    assert swaps.reverse_moves(d, excluded) == cascade_oracle.reverse_moves(d, excluded)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(labelled_types())
def test_legal_forward_labels_raise_nothing(d):
    """A forward swap that would make no type, a label meeting the
    boundary four times among them, is a SwapError, so its label is not
    legal: ``legal_forward_labels`` raises nothing."""
    swaps.legal_forward_labels(d)


def test_ld_chain_matches_oracle():
    """Every entry of ``chain_terms``, and ``ld_chain`` at every
    position, of every admissible chain of length 1-6 with weights 2-4."""
    chains = [()]
    for _ in range(6):
        chains = [t + (w,) for t in chains for w in (2, 3, 4)]
        for t in chains:
            expected = [oracle.ld_chain(t, j) for j in range(1, len(t) + 1)]
            d, nums = chain_terms(t)
            assert [F(n, d) for n in nums] == expected
            assert [ld_chain(t, j) for j in range(1, len(t) + 1)] == expected


def test_fork_lds_match_oracle():
    """Every entry of ``fork_terms``, and ``ld_fork`` at every position,
    of every fork in the fixture instances and of random forks,
    admissible or not."""
    rng = random.Random(77)
    forks = {
        oracle.comp_weights(c) for d in fixture_instances(6) for c in d.components if c[0] == "fork"
    }
    for _ in range(500):
        forks.add(Fork(rng.randint(1, 4), tuple(
            tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))) for _ in range(3)
        )))
    admissible = 0
    for f in forks:
        positions = ["branch"] + [
            (i, j) for i, t in enumerate(f.twigs, start=1) for j in range(1, len(t) + 1)
        ]
        if not is_admissible(f):
            with pytest.raises(ValueError):
                oracle.ld_fork(f, "branch")
            with pytest.raises(ValueError):
                ld_fork(f, "branch")
            continue
        admissible += 1
        expected = [oracle.ld_fork(f, p) for p in positions]
        _, disc, nums = fork_terms(f.branch, f.twigs)
        assert [F(n, disc) for n in nums] == expected
        assert [ld_fork(f, p) for p in positions] == expected
    assert admissible > 100 and len(forks) - admissible > 100
