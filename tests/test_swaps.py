import random
from collections import Counter

import cascade_oracle
import pytest
import width_oracle

from delpezzo3 import fixtures, notation, swaps
from delpezzo3.boundary import Entry, canonical_form, width_check


def load_primitive(stem):
    row = fixtures.parse_fixture_file(fixtures.data_dir() / "primitive" / f"{stem}.types")[0]
    return notation.substitute(row.expr, {}), row.node_labels


def char0_rows():
    return {r.name: r for r in fixtures.load_table("char0")}


def test_forward_swap_shrinks_family():
    rows = char0_rows()
    d4 = notation.substitute(rows["w3.rivet_A"].expr, {"k": 4})
    d3 = notation.substitute(rows["w3.rivet_A"].expr, {"k": 3})
    assert swaps.legal_forward_labels(d4) == [2]
    assert canonical_form(swaps.forward_swap(d4, 2)) == canonical_form(d3)
    assert not swaps.is_vertically_primitive(d4)


ALL_PRIMITIVES = [
    "w3_a", "w3_b", "w2_a", "w2_b", "w2_c",
    "w2x2_a", "w2x2_b", "w2x2_c", "w1_a", "w1_b", "w1_c3_notGK",
]


@pytest.mark.parametrize("stem", ALL_PRIMITIVES)
def test_primitive_models_admit_no_forward_swap(stem):
    root, node_excl = load_primitive(stem)
    assert swaps.is_vertically_primitive(root, node_excl)


def test_forward_swap_to_no_type_is_a_swap_error():
    """Contracting the (-2)-branch of the fork leaves curve 1 meeting the
    boundary four times, which no type allows: a SwapError, so label 1 is
    not legal and the type is vertically primitive."""
    d = notation.substitute(notation.parse("<2@1;[2],[2],[2]> + [3@1]"), {})
    with pytest.raises(swaps.SwapError, match="meets the boundary 4 > 3 times"):
        swaps.forward_swap(d, 1)
    assert swaps.legal_forward_labels(d) == []
    assert swaps.is_vertically_primitive(d)


def test_free_minus_one_curve_is_primitive():
    from delpezzo3.boundary import DecoratedType

    d = DecoratedType((), free_labels=frozenset({1}))
    assert swaps.is_vertically_primitive(d)


def test_swap_inversion_on_fixture_corpus():
    rng = random.Random(11)
    checked = 0
    for stem in ("char0", "char3"):
        for row in fixtures.load_table(stem):
            assignment = next(fixtures.row_assignments(row, 5))
            d = notation.substitute(row.expr, assignment)
            for move in swaps.reverse_moves(d):
                try:
                    child = swaps.reverse_swap(d, *move)
                except swaps.SwapError:
                    continue
                assert canonical_form(swaps.forward_swap(child, move[0])) == canonical_form(d)
                checked += 1
    assert checked > 300


def test_reverse_swap_rejects_node_targets():
    # a label meeting one entry twice is excluded from swaps entirely
    d = notation.substitute(notation.parse("[3@1@1,2,2]+[2@1]"), {})
    entries, _ = swaps.to_graph(d)
    with pytest.raises(swaps.SwapError):
        swaps.reverse_swap(d, 1, 0)
    with pytest.raises(swaps.SwapError):
        swaps.forward_swap(d, 1)


def test_cascade_depth_zero_and_one():
    root, _ = load_primitive("w3_a")
    res0 = swaps.cascade(root, 0)
    assert len(res0.nodes) == 1 and not res0.pruned
    res1 = swaps.cascade(root, 1)
    assert all(n.depth <= 1 for n in cascade_oracle.ok_nodes(res1))
    assert len(res1.nodes) > 1
    # two reverse swaps reach the smallest member of the 4.6(iii) family
    rows = char0_rows()
    res2 = swaps.cascade(root, 2)
    assert canonical_form(
        notation.substitute(rows["w3.rivet_0"].expr, {"k": 3})
    ) in set(res2.nodes)


def test_cascade_shuffled_move_order_same_set(monkeypatch):
    root, excl = load_primitive("w1_b")
    baseline = swaps.cascade(root, 3, excluded_labels=excl)
    original = swaps.reverse_moves

    def shuffled(d, excluded_labels=frozenset()):
        moves = original(d, excluded_labels)
        rng = random.Random(len(moves))
        rng.shuffle(moves)
        return moves

    monkeypatch.setattr(swaps, "reverse_moves", shuffled)
    permuted = swaps.cascade(root, 3, excluded_labels=excl)
    assert set(baseline.nodes) == set(permuted.nodes)
    assert set(baseline.pruned) == set(permuted.pruned)


def test_pruning_soundness():
    root, _ = load_primitive("w3_a")
    res = swaps.cascade(root, 3)
    types = cascade_oracle.node_types(root, res)
    for key in sorted(res.pruned)[:100]:
        frontier = [types[key]]
        for _ in range(2):
            nxt = []
            for d in frontier[:10]:
                for move in swaps.reverse_moves(d):
                    try:
                        child = swaps.reverse_swap(d, *move)
                    except swaps.SwapError:
                        continue
                    still_failing = not child.is_admissible()
                    if not still_failing:
                        still_failing = not width_check(child).satisfied
                    assert still_failing, (res.pruned[key].move, move)
                    nxt.append(child)
            frontier = nxt


def test_monotonicity_checked_during_cascade():
    root, _ = load_primitive("w3_b")
    cascade_oracle.cascade(root, 2, check_monotone=True)


def test_width2_families_cascade_reachable():
    # beyond the width-3/width-1 acceptance scope: the char!=2 width-2
    # rows all descend from their primitive models as well
    caches = {}
    for key, stem in (("w2a", "w2_a"), ("w2b", "w2_b"), ("w2c", "w2_c")):
        root, excl = load_primitive(stem)
        caches[key] = set(swaps.cascade(root, 5, excluded_labels=excl).nodes)
    missing = []
    for row in fixtures.load_table("char0"):
        if row.root not in caches:
            continue
        for assignment in fixtures.row_assignments(row, 4):
            d = notation.substitute(row.expr, assignment)
            size_gap = len(d.entries())
            if canonical_form(d) not in caches[row.root]:
                missing.append((row.name, assignment))
    assert not missing, missing


def to_graph_positions(d):
    """(component index, position) of every entry, in to_graph order."""
    for ci, comp in enumerate(d.components):
        if comp[0] == "chain":
            yield from ((ci, j) for j in range(1, len(comp[1]) + 1))
        else:
            yield ci, "branch"
            for ti, twig in enumerate(comp[2], start=1):
                yield from ((ci, (ti, j)) for j in range(1, len(twig) + 1))


def test_graph_round_trip_and_lds():
    """from_graph inverts to_graph exactly, and ``cascade_oracle.graph_lds``
    reads every entry's log discrepancy off the graph layout, on the
    fixture instances and on seeded random types with relabelled copies."""
    from test_canonical import fixture_instances, random_type, relabelled_copy

    rng = random.Random(2024)
    types = fixture_instances(6)
    for _ in range(300):
        d = random_type(rng)
        types += [d, relabelled_copy(d, rng)]
    admissible = 0
    for d in types:
        entries, adj = swaps.to_graph(d)
        assert swaps.from_graph(entries, adj, d.width, d.char_tag, d.free_labels) == d
        # the same graph with its nodes renumbered at random
        perm = list(range(len(entries)))
        rng.shuffle(perm)
        moved = [None] * len(entries)
        moved_adj = [None] * len(entries)
        for i, e in enumerate(entries):
            moved[perm[i]] = e
            moved_adj[perm[i]] = [perm[j] for j in adj[i]]
        again = swaps.from_graph(moved, moved_adj, d.width, d.char_tag, d.free_labels)
        assert canonical_form(again) == canonical_form(d)
        if d.is_admissible():
            admissible += 1
            expected = [width_oracle.ld(d, ci, pos) for ci, pos in to_graph_positions(d)]
            assert cascade_oracle.graph_lds(entries, adj) == expected
            moved_lds = cascade_oracle.graph_lds(moved, moved_adj)
            assert [moved_lds[perm[i]] for i in range(len(entries))] == expected
    assert len(types) >= 1290 and admissible > 900


def test_from_graph_rejects_cycles_and_non_forks():
    two = Entry(2)
    triangle = [[1, 2], [0, 2], [0, 1]]
    triangle_with_tail = [[1, 2], [0, 2], [0, 1, 3], [2]]
    star = [[1, 2, 3, 4], [0], [0], [0], [0]]
    for adj in (triangle, triangle_with_tail, star):
        with pytest.raises(swaps.SwapError):
            swaps.from_graph([two] * len(adj), adj, None, "any", frozenset())


def is_symmetric(adj) -> bool:
    arcs = Counter((i, j) for i, nb in enumerate(adj) for j in nb)
    return all(arcs[j, i] == k for (i, j), k in arcs.items())


def test_swaps_leave_shared_neighbour_lists_unchanged(monkeypatch):
    """A reverse swap's child graph shares the parent's unchanged
    neighbour lists.  After every reverse and forward swap of a parent
    read from one graph, and every reverse swap of each child read from
    the child's graph, that graph still equals a fresh ``to_graph`` of the
    parent, and every graph handed to ``from_graph`` is symmetric."""
    parents = []
    for stem in ("w3_a", "w3_b", "w1_b"):
        root, excluded = load_primitive(stem)
        result = swaps.cascade(root, 2, excluded_labels=excluded)
        types = cascade_oracle.node_types(root, result)
        parents += [(types[key], excluded) for key in result.nodes]
    graphs = []
    original_from_graph, original_to_graph = swaps.from_graph, swaps.to_graph

    def recording(entries, adj, *rest):
        assert is_symmetric(adj)
        graphs.append((entries, adj))
        return original_from_graph(entries, adj, *rest)

    monkeypatch.setattr(swaps, "from_graph", recording)
    children = forwards = 0
    for parent, excluded in parents:
        graph, child, child_graph = original_to_graph(parent), None, None
        # every swap builds its own graph: hand the parent's and the child's the shared ones
        monkeypatch.setattr(swaps, "to_graph", lambda d: (
            graph if d is parent else child_graph if d is child else original_to_graph(d)))
        for move in swaps.reverse_moves(parent, excluded):
            try:
                child = swaps.reverse_swap(parent, *move)
            except swaps.SwapError:
                continue
            child_graph = graphs[-1]
            children += 1
            # the child's graph numbers its entries as the blow-up left them:
            # try each label that is not excluded at each entry it meets there
            for i, e in enumerate(child_graph[0]):
                for label in e.labels:
                    if label in excluded:
                        continue
                    try:
                        swaps.reverse_swap(child, label, i)
                    except swaps.SwapError:
                        pass
        for label in sorted(parent.labels() - excluded):
            try:
                swaps.forward_swap(parent, label)
            except swaps.SwapError:
                continue
            forwards += 1
        assert graph == original_to_graph(parent)
        assert is_symmetric(graph[1])
    assert children > 1000 and forwards > 100 and len(graphs) > 10000
