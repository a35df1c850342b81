"""The one-pass cascade expansion against the per-child work it replaced:
the lean cascade against ``cascade_oracle``, children built from the
parent's shared graph against ``reverse_swap``, the linear label
encoding of ``block_search_oracle`` against its exhaustive tie-break
search, and the one-pass width verdict against ``width_oracle``."""

import random
from collections import Counter

import cascade_oracle
import pytest
import width_oracle as oracle
from block_search_oracle import (
    _arrangement_items,
    _arrangements,
    _encode_arrangement,
    _encode_search,
)
from test_canonical import fixture_instances, random_type, relabelled_copy
from test_swaps import load_primitive

from delpezzo3 import notation, swaps
from delpezzo3.boundary import (
    _label_blocks,
    canonical_form,
    comp_weights,
    width_check,
)
from delpezzo3.chains import Fork, fork_lds, ld_fork


def cascade_of(stem, depth):
    root, excluded = load_primitive(stem)
    return swaps.cascade(root, depth, excluded_labels=excluded), excluded


ORACLE_ROOTS = [("w3_a", 5), ("w3_b", 5), ("w1_a", 6), ("w1_b", 6), ("w1_c3_notGK", 6)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_cascade_matches_oracle(jobs):
    """The same ok and pruned keys as the cascade that kept every type,
    each with the same depth, status, lhs, parent, move and type; a
    pruned node's type is rebuilt from its parent's."""
    for stem, depth in ORACLE_ROOTS:
        root, excluded = load_primitive(stem)
        new = swaps.cascade(root, depth, jobs=jobs, excluded_labels=excluded)
        old = cascade_oracle.cascade(root, depth, jobs=jobs, excluded_labels=excluded)
        assert new.nodes.keys() == old.nodes.keys()
        assert new.pruned.keys() == old.pruned.keys()
        for got, expected in ((new.nodes, old.nodes), (new.pruned, old.pruned)):
            for key, node in got.items():
                twin = expected[key]
                assert (node.depth, node.status, node.lhs, node.parent, node.move) == (
                    twin.depth, twin.status, twin.lhs, twin.parent, twin.move
                )
                assert node.dtype == twin.dtype


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
    ok_edges = []
    for level in range(depth):
        for key in sorted(k for k, n in new.nodes.items() if n.depth == level):
            parent = new.nodes[key].dtype
            graph = swaps.to_graph(parent)
            for move in swaps.reverse_moves(parent, excluded, graph=graph):
                try:
                    child = swaps.reverse_swap(parent, *move, excluded, graph=graph)
                except swaps.SwapError:
                    continue
                if canonical_form(child) in new.nodes:
                    ok_edges.append((graph, move))
    assert calls == ok_edges
    assert len(calls) > len(new.nodes) - 1


@pytest.mark.parametrize("stem, depth", [("w3_a", 5), ("w3_b", 5), ("w1_b", 6)])
def test_width_check_once_per_key_per_run_with_a_pool(stem, depth, monkeypatch):
    """At ``jobs=2`` on two cores each level's frontier is cut into one
    run per worker, and each key gets one width check per run."""
    import concurrent.futures
    import os

    runs = [Counter()]  # keys width-checked per run, the root's check first
    tasks_per_level = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: runs each task in this
        process, so no pool is ever started."""

        def __init__(self, max_workers):
            assert max_workers == 2

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            tasks_per_level.append(len(tasks))
            out = []
            for task in tasks:
                runs.append(Counter())
                out.append(fn(task))
            return out

        def shutdown(self):
            pass

    original = swaps.width_check

    def counting(d):
        runs[-1][canonical_form(d)] += 1
        return original(d)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(swaps, "width_check", counting)
    root, excluded = load_primitive(stem)
    result = swaps.cascade(root, depth, jobs=2, excluded_labels=excluded)
    assert all(count == 1 for run in runs for count in run.values())
    frontiers = Counter(n.depth for n in result.nodes.values())
    assert tasks_per_level == [min(2, frontiers[d]) for d in range(depth) if frontiers[d]]


@pytest.fixture(scope="module")
def cascades():
    return [cascade_of(stem, 4) for stem in ("w3_a", "w3_b")]


def every_pair(d, excluded_labels=frozenset(), graph=None):
    """Every (label, graph index) pair, legal reverse swap or not."""
    n = len((graph or swaps.to_graph(d))[0])
    return [(label, i) for label in sorted(d.labels()) for i in range(n)]


def test_shared_graph_children_match_reverse_swap(cascades, monkeypatch):
    """For every parent of the depth-4 w3a/w3b cascades and every move,
    ``reverse_swap`` on the parent's shared graph builds the child it
    builds alone, or both raise SwapError.  Over the run of all parents,
    ``_expand_run`` keeps the key, status and lhs of each child whose
    key the run has not recorded yet, with the child itself only when it
    is ok, and no record for the others; also with every (label, index)
    pair as a move.  Without ``expand`` no record carries a child."""
    children = rejected = duplicates = 0
    for result, excluded in cascades:
        parents = [n.dtype for n in result.nodes.values() if n.depth < 4]
        for moves in (swaps.reverse_moves, every_pair):
            with monkeypatch.context() as m:
                m.setattr(swaps, "reverse_moves", moves)
                batches = list(swaps._expand_run(parents, excluded, True))
                assert len(batches) == len(parents)
                earlier: dict = {}  # key -> (status, lhs) of its record
                for parent, batch in zip(parents, batches):
                    got = {
                        move: (child_key, status, lhs, child)
                        for child_key, move, status, lhs, child in batch
                    }
                    assert len(got) == len(batch)
                    graph = swaps.to_graph(parent)
                    recorded = []
                    for move in moves(parent, excluded):
                        try:
                            child = swaps.reverse_swap(parent, *move, excluded_labels=excluded)
                        except swaps.SwapError:
                            with pytest.raises(swaps.SwapError):
                                swaps.reverse_swap(parent, *move, excluded, graph=graph)
                            assert move not in got
                            rejected += 1
                            continue
                        assert swaps.reverse_swap(parent, *move, excluded, graph=graph) == child
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
                lean = swaps._expand_run(parents, excluded, False)
                assert [[(*r[:4], None) for r in b] for b in batches] == list(lean)
    assert children > 5000 and rejected > 5000 and duplicates > 1000


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
    parents = [n.dtype for n in result.nodes.values() if n.depth < 2]
    checked = duplicates = 0
    seen = set()
    for parent in parents:
        calls.clear()
        out = cascade_oracle._expand_parent((None, parent, True, excluded))
        ok_moves = []
        for move in swaps.reverse_moves(parent, excluded):
            try:
                child = swaps.reverse_swap(parent, *move, excluded_labels=excluded)
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
        for block in _label_blocks(d):
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
    admissible = 0
    for d in types:
        if d.width not in (1, 2, 3):
            continue
        if not d.is_admissible():
            assert width_check(d) is None
            continue
        assert width_check(d) == oracle.delpezzo_check_width(d)
        admissible += 1
    return admissible


def test_width_verdict_matches_oracle_on_fixtures():
    assert assert_width_verdicts_match(fixture_instances(6)) > 600


def test_width_verdict_matches_oracle_on_cascade_nodes(cascades):
    types = [
        n.dtype for result, _ in cascades for n in (*result.nodes.values(), *result.pruned.values())
    ]
    for stem in ("w1_a", "w1_b", "w1_c3_notGK"):
        result, _ = cascade_of(stem, 6)
        types += [n.dtype for n in (*result.nodes.values(), *result.pruned.values())]
    assert len(types) > 2300
    assert assert_width_verdicts_match(types) > 1200


def test_fork_lds_match_oracle():
    """Every position of every fork in the fixture instances, and of
    random forks, admissible or not."""
    rng = random.Random(77)
    forks = {
        comp_weights(c) for d in fixture_instances(6) for c in d.components if c[0] == "fork"
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
        lds = fork_lds(f, positions)
        if lds is None:
            with pytest.raises(ValueError):
                oracle.ld_fork(f, "branch")
            with pytest.raises(ValueError):
                ld_fork(f, "branch")
            continue
        admissible += 1
        assert lds == [oracle.ld_fork(f, p) for p in positions]
        assert lds == [ld_fork(f, p) for p in positions]
    assert admissible > 100 and len(forks) - admissible > 100
