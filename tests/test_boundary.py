import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import cascade_oracle
import pytest
import verify_oracle
import width_oracle
from hypothesis import given
from hypothesis import strategies as st

from delpezzo3 import boundary, fixtures, notation, swaps, verify
from delpezzo3.boundary import (
    DecoratedType,
    Entry,
    canonical_form,
    chain_comp,
    fork_comp,
    graph_automorphisms,
    render_singularity_type,
    singularity_type_of,
    width_check,
)

F = Fraction


def E(w, h=False, u=False, labels=()):
    return Entry(w, h, u, tuple(labels))


def chain(*weights, horizontal=(), two_section=(), labels=None):
    labels = labels or {}
    entries = []
    for i, w in enumerate(weights, start=1):
        entries.append(
            E(w, i in horizontal or i in two_section, i in two_section,
              labels.get(i, ()))
        )
    return chain_comp(entries)


def xbar1():
    # [2,2,3,(2)_5] + [3,2] with horizontal marks at positions 2, 4, 6,
    # the decorated type of the first surface of the exotic pair (k = 3).
    c1 = chain(2, 2, 3, 2, 2, 2, 2, 2, horizontal=(2, 4, 6),
               labels={1: (1,), 2: (5,), 3: (2,), 4: (4,), 5: (1,),
                       6: (3,), 7: (5,), 8: (4,)})
    c2 = chain(2, 3, labels={1: (2,), 2: (3,)})
    return DecoratedType((c1, c2), width=3)


def xbar2():
    c1 = chain(2, 2, 3, 2, 2, 2, 2, 2, horizontal=(3, 5),
               labels={1: (4,), 2: (5,), 3: (2,), 4: (1,), 5: (4,),
                       6: (3,), 8: (2,)})
    c2 = chain(2, 3, horizontal=(2,), labels={1: (1,), 2: (3, 5)})
    return DecoratedType((c1, c2), width=3)


def test_xbar1_check():
    res = width_check(xbar1())
    assert res.satisfied and res.lhs == F(5, 3)
    gen = width_oracle.delpezzo_check_general(xbar1(), [1, 1, 1], 3)
    assert gen.satisfied and gen.lhs == F(5, 3) and gen.rhs == 1


def test_xbar2_check():
    res = width_check(xbar2())
    assert res.satisfied and res.lhs == F(67, 45)


def test_width2_fixture_fails():
    u = chain(2, 2, 2, 3, 2, 3, 2, horizontal=(4,), two_section=(6,))
    d = DecoratedType((u,), width=2)
    res = width_check(d)
    assert not res.satisfied and res.lhs == F(11, 13)
    gen = width_oracle.delpezzo_check_general(d, [1, 2], 3)
    assert not gen.satisfied and gen.lhs == F(11, 13)


def test_width1_fixture_fails():
    d = DecoratedType((chain(2, 2, 2, 3, 2, 2, 2, horizontal=(4,)),), width=1)
    res = width_check(d)
    assert not res.satisfied and res.lhs == F(1, 3) and res.rhs == F(1, 3)


def test_width3_fork_fixture_fails():
    fork = fork_comp(
        E(2),
        (
            (E(2),),
            (E(2),),
            (E(2), E(3, True), E(2), E(2, True), E(2), E(2, True)),
        ),
    )
    d = DecoratedType((fork, chain(3)), width=3)
    res = width_check(d)
    assert not res.satisfied and res.lhs == 1


def test_all_canonical_width3_passes():
    comps = (chain(2, 2, horizontal=(1,)), chain(2, horizontal=(1,)),
             chain(2, 2, 2, horizontal=(2,)))
    d = DecoratedType(comps, width=3)
    res = width_check(d)
    assert res.satisfied and res.lhs == 3


def test_check_rejects_non_admissible():
    d = DecoratedType(
        (fork_comp(E(2), ((E(3),), (E(3),), (E(3, True),))),
         chain(2, horizontal=(1,)), chain(2, horizontal=(1,))),
        width=3,
    )
    assert width_check(d) is None


def test_validation_errors():
    with pytest.raises(ValueError):
        DecoratedType((chain(1),))
    with pytest.raises(ValueError):
        DecoratedType((chain(2, horizontal=(1,)),), width=2)
    with pytest.raises(ValueError):
        Entry(2, horizontal=False, two_section=True)
    with pytest.raises(ValueError):
        DecoratedType((chain(2, labels={1: (7, 7)}),
                       chain(3, labels={1: (7, 7)}),))


# -- interned entries ----------------------------------------------------------------


def test_equal_entries_are_one_object():
    e = Entry(3, True, False, (1, 2, 2))
    for same in (
        Entry(3, True, False, (2, 1, 2)),
        Entry(3, True, False, [2, 2, 1]),
        Entry(3, 1, 0, (2, 2, 1)),
        Entry(3, horizontal=True, labels=(1, 2, 2)),
        Entry(labels=(2, 1, 2), weight=3, two_section=False, horizontal=1),
    ):
        assert same is e
    assert e.labels == (1, 2, 2)
    assert e.horizontal is True and e.two_section is False
    assert Entry(3) is Entry(3, False, False, ()) is not e


def test_pickle_and_copies_give_the_interned_entry():
    e = Entry(4, True, True, (5, 2))
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps([e, e], protocol=0)) == [e, e]
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy(chain_comp([e, Entry(2)]))[1][0] is e


def test_entry_hash_repr_and_immutability():
    e = Entry(2, True, False, [7, 3])
    assert hash(e) == hash((2, True, False, (3, 7)))
    assert repr(e) == "Entry(weight=2, horizontal=True, two_section=False, labels=(3, 7))"
    for name in ("weight", "labels", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.weight
    assert e.weight == 2


def test_invalid_entries_raise_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="2-section mark implies the horizontal"):
            Entry(2, False, True)
        with pytest.raises(ValueError, match="at most twice"):
            Entry(2, labels=[4, 4, 4])
        with pytest.raises(ValueError, match="at most twice"):
            Entry(2, True, True, (4, 1, 4, 4))


_entry_args = st.tuples(
    st.integers(2, 5), st.booleans(), st.booleans(),
    st.lists(st.integers(1, 3), max_size=4),
).filter(lambda a: (a[1] or not a[2]) and all(a[3].count(l) <= 2 for l in a[3]))


@given(_entry_args, _entry_args)
def test_entry_equality_is_field_equality(a, b):
    ea, eb = Entry(*a), Entry(*b)
    same_fields = (a[0], a[1], a[2], sorted(a[3])) == (b[0], b[1], b[2], sorted(b[3]))
    assert (ea == eb) == (ea is eb) == same_fields


def four_times(label, *weights):
    """Chains meeting ``label`` four times in all."""
    return (chain(*weights, labels={1: (label, label)}),
            chain(2, 2, labels={1: (label,), 2: (label,)}))


# (components, width, free labels, char tag) and the message; a type that
# breaks several rules reports the first rule in this table's order.
INVALID_TYPES = [
    ((chain(3, 1, horizontal=(1, 2, 3)),), 3, (), "any",
     "boundary weights must be >= 2"),
    ((chain(2, 2, horizontal=(1,)),), 3, (), "any",
     "width 3 needs 3 horizontal marks, found 1"),
    ((chain(2, 2, 2, horizontal=(1, 2)),), 1, (), "any",
     "width 1 needs 1 horizontal marks, found 2"),
    ((chain(2, 2, horizontal=(1, 2)),), 2, (), "any",
     "width 2 needs exactly one 2-section mark"),
    ((chain(2, 2, two_section=(1, 2)),), 2, (), "any",
     "width 2 needs exactly one 2-section mark"),
    ((chain(2, 2, 2, horizontal=(1, 2), two_section=(3,)),), 3, (), "any",
     "2-section marks only occur in width 2"),
    (four_times(7, 2), None, (), "any",
     "(-1)-curve 7 meets the boundary 4 > 3 times"),
    # two rules at once
    ((chain(2, 2, 2, horizontal=(1,)),), 3, (), "p5",
     "unknown characteristic tag 'p5'"),
    ((chain(1, 2, horizontal=(2,)),), 3, (), "any",
     "boundary weights must be >= 2"),
    ((chain(2, 1, two_section=(1, 2)),), 2, (), "any",
     "boundary weights must be >= 2"),
    (four_times(7, 1), None, (), "any",
     "boundary weights must be >= 2"),
    ((chain(2, 2, two_section=(1,)),), 3, (), "any",
     "width 3 needs 3 horizontal marks, found 1"),
    ((chain(2, 2, horizontal=(1,)), *four_times(7, 2)), 2, (), "any",
     "width 2 needs 2 horizontal marks, found 1"),
    ((chain(2, 2, two_section=(1, 2)), *four_times(7, 2)), 2, (), "any",
     "width 2 needs exactly one 2-section mark"),
    ((*four_times(7, 2), chain(2, 2, 2, horizontal=(1, 2), two_section=(3,))), 3, (), "any",
     "2-section marks only occur in width 2"),
    ((*four_times(9, 2), *four_times(7, 2)), None, (), "any",
     "(-1)-curve 9 meets the boundary 4 > 3 times"),
    ((*four_times(5, 2), *four_times(7, 2)), None, (7,), "any",
     "(-1)-curve 7 meets the boundary 4 > 3 times"),
    # a free label that also meets the boundary
    ((chain(2, labels={1: (7,)}),), None, (7,), "any",
     "free (-1)-curve 7 meets the boundary"),
    # a walk has no empty parts
    ((chain(2), chain_comp([])), None, (), "any",
     "a chain component needs at least one entry"),
    ((("fork", E(2), ((E(2),), (), (E(3),))),), None, (), "any",
     "a fork needs three nonempty twigs"),
]


@pytest.mark.parametrize("components, width, free, char_tag, message", INVALID_TYPES)
def test_validation_messages(components, width, free, char_tag, message):
    with pytest.raises(ValueError) as err:
        DecoratedType(components, width, char_tag, frozenset(free))
    assert str(err.value) == message


def test_vanishing_chain_is_dropped_before_the_type_is_built():
    d = notation.substitute(notation.parse("[2]+[(2)_{k-2}] ; k>=2"), {"k": 2})
    assert d == DecoratedType((chain(2),))
    assert swaps.from_graph(*swaps.to_graph(d), d.width, d.char_tag, d.free_labels) == d


def test_list_built_type_equals_tuple_built():
    c = chain(2, 3, labels={1: (1,)})
    listed = DecoratedType([c], None, "any", [4])
    tupled = DecoratedType((c,), None, "any", frozenset({4}))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert {listed, tupled} == {tupled}


def test_types_rebuild_from_components_and_pickle():
    """A type is its walk: built again from its components, unpickled,
    copied or replaced field by field, it is equal, hashes equal and has
    the same walk, label blocks and labels."""
    from test_canonical import fixture_instances

    free = DecoratedType((chain(2),), None, "ne2", frozenset({8, 9}))
    types = fixture_instances(6) + [xbar1(), free]
    assert len(types) > 300
    for d in types:
        rebuilt = DecoratedType(d.components, d.width, d.char_tag, d.free_labels)
        for again in (rebuilt, pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d),
                      dataclasses.replace(d, free_labels=d.free_labels)):
            assert again == d and hash(again) == hash(d)
            assert again.walk() == d.walk() and again.label_blocks() == d.label_blocks()
            assert again.labels() == d.labels() and again.components == d.components
    assert repr(rebuilt).startswith("DecoratedType(components=(")


def test_built_types_do_not_count_their_layout_again(monkeypatch):
    """A type counts its layout at most once while it is built, and never
    when it is read: canonical forms (the refinement search included),
    automorphisms, width checks, label blocks, its graph form and its
    reverse moves all read the stored walk."""
    from test_canonical import PINNED_ORDERS, fixture_instances, label_cycle

    calls, refined = [], []
    layout_of, refined_placements = boundary.layout_of, boundary._refined_placements
    monkeypatch.setattr(boundary, "layout_of", lambda comps: calls.append(1) or layout_of(comps))
    monkeypatch.setattr(boundary, "_refined_placements",
                        lambda *args: refined.append(1) or refined_placements(*args))
    types = fixture_instances(4) + [d for d, _ in PINNED_ORDERS] + [label_cycle(6)]
    for d in types:
        calls.clear()
        again = DecoratedType(d.components, d.width, d.char_tag, d.free_labels)
        assert len(calls) <= 1
        calls.clear()
        graph = swaps.to_graph(d)
        assert calls == []
        walked = swaps.from_graph(*graph, d.width, d.char_tag, d.free_labels)
        assert len(calls) <= 1 and walked == again == d
        calls.clear()
        canonical_form(d)
        graph_automorphisms(d)
        if d.width in (1, 2, 3):
            width_check(d)
        d.label_blocks()
        swaps.reverse_moves(d)
        assert calls == []
    assert refined


def test_singularity_type():
    t = singularity_type_of(xbar1())
    assert render_singularity_type(t) == "[2,2,2,2,2,3,2,2]+[2,3]"
    assert singularity_type_of(xbar1()) == singularity_type_of(xbar2())
    empty = DecoratedType(())
    assert singularity_type_of(empty) == ()


def test_singularity_type_reversal_and_twigs():
    a = DecoratedType((chain(2, 3, 4),))
    b = DecoratedType((chain(4, 3, 2),))
    assert singularity_type_of(a) == singularity_type_of(b)
    f1 = DecoratedType((fork_comp(E(2), ((E(2), E(2)), (E(3),), (E(2),))),))
    f2 = DecoratedType((fork_comp(E(2), ((E(3),), (E(2),), (E(2), E(2)))),))
    assert singularity_type_of(f1) == singularity_type_of(f2)


def test_canonical_form_label_renaming():
    d1 = xbar1()
    relabeled = DecoratedType(
        (
            chain(2, 2, 3, 2, 2, 2, 2, 2, horizontal=(2, 4, 6),
                  labels={1: (3,), 2: (2,), 3: (5,), 4: (1,), 5: (3,),
                          6: (4,), 7: (2,), 8: (1,)}),
            chain(2, 3, labels={1: (5,), 2: (4,)}),
        ),
        width=3,
    )
    assert canonical_form(d1) == canonical_form(relabeled)


def test_canonical_form_reversal_and_component_order():
    d1 = DecoratedType((chain(2, 3, labels={1: (1,)}), chain(2, 2)))
    d2 = DecoratedType((chain(2, 2), chain(3, 2, labels={2: (2,)})))
    assert canonical_form(d1) == canonical_form(d2)


def test_canonical_form_twig_permutation():
    f1 = fork_comp(E(2), ((E(2), E(2)), (E(3),), (E(2),)))
    f2 = fork_comp(E(2), ((E(2),), (E(2), E(2)), (E(3),)))
    assert canonical_form(DecoratedType((f1,))) == canonical_form(
        DecoratedType((f2,))
    )


def test_exotic_pair_not_isomorphic():
    assert canonical_form(xbar1()) != canonical_form(xbar2())


def test_canonical_form_congruence_random():
    rng = random.Random(7)

    def random_type():
        comps = []
        usage = {l: 0 for l in range(1, rng.randint(2, 4))}
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 4)
            entry_labels = {}
            for i in range(1, n + 1):
                candidates = [l for l, used in usage.items() if used < 3]
                if candidates and rng.random() < 0.4:
                    l = rng.choice(candidates)
                    usage[l] += 1
                    entry_labels[i] = (l,)
            comps.append(chain(*(rng.choice([2, 2, 3]) for _ in range(n)),
                                labels=entry_labels))
        return DecoratedType(tuple(comps))

    def shuffled(d):
        comps = list(d.components)
        rng.shuffle(comps)
        out = []
        relabel = {l: n for n, l in
                   enumerate(sorted(d.labels(), key=lambda _: rng.random()), 10)}
        for c in comps:
            entries = [
                Entry(e.weight, e.horizontal, e.two_section,
                      tuple(relabel[l] for l in e.labels))
                for e in c[1]
            ]
            if rng.random() < 0.5:
                entries.reverse()
            out.append(chain_comp(entries))
        return DecoratedType(tuple(out))

    seen = {}
    for _ in range(120):
        d = random_type()
        assert canonical_form(d) == canonical_form(shuffled(d))
        seen[canonical_form(d)] = d


def test_automorphism_orders():
    three_chains = DecoratedType(
        (chain(2, 2), chain(2, 2), chain(2, 2))
    )
    assert graph_automorphisms(three_chains).order == 48
    assert graph_automorphisms(DecoratedType((chain(2, 3),))).order == 1
    assert graph_automorphisms(DecoratedType((chain(2, 2),))).order == 2


def test_automorphism_labels_break_symmetry():
    d = DecoratedType((chain(2, 2, labels={1: (1,)}), chain(2, 2)))
    # the flip of the labeled chain is no longer an automorphism, the
    # unlabeled one still flips
    assert graph_automorphisms(d).order == 2


def test_automorphism_free_labels():
    d = DecoratedType((chain(2),), free_labels=frozenset({8, 9}))
    assert graph_automorphisms(d).order == 2


def test_ld_positions_fork():
    fork = fork_comp(E(2), ((E(2),), (E(2),), (E(2), E(3, True))))
    d = DecoratedType((fork,))
    assert width_oracle.ld(d, 0, (3, 2)) == F(1, 3)
    assert width_oracle.ld(d, 0, "branch") == F(1, 3)


def test_primitive_char3_automorphism_report():
    # The decorated graphs of the two characteristic-3 primitive models
    # have small symmetry groups (the decorations pin the fibration); the
    # geometric groups of orders 12 and 24 act on the surfaces and divide
    # the undecorated graph symmetries.  Both numbers are reported, with
    # no claim of equality.
    from delpezzo3 import fixtures, notation

    def undecorate(d):
        comps = []
        for c in d.components:
            if c[0] == "chain":
                comps.append(chain_comp([Entry(e.weight) for e in c[1]]))
            else:
                comps.append(fork_comp(
                    Entry(c[1].weight),
                    tuple(tuple(Entry(e.weight) for e in t) for t in c[2]),
                ))
        return DecoratedType(tuple(comps))

    expected = {"w1_b": (2, 96, 12), "w1_c3_notGK": (6, 1152, 24)}
    for stem, (dec, undec, geometric) in expected.items():
        row = fixtures.parse_fixture_file(
            fixtures.data_dir() / "primitive" / f"{stem}.types"
        )[0]
        d = notation.substitute(row.expr, {})
        assert graph_automorphisms(d).order == dec
        full = graph_automorphisms(undecorate(d)).order
        assert full == undec
        assert full % geometric == 0


def test_width_dispatch_agrees_with_general():
    import random as _random

    rng = _random.Random(13)
    built = 0
    while built < 1000:
        width = rng.choice([1, 2, 3])
        n = rng.randint(max(3, width), 8)
        horizontals = rng.sample(range(1, n + 1), width)
        two_section = (horizontals[0],) if width == 2 else ()
        weights = [rng.choice([2, 2, 2, 3, 4]) for _ in range(n)]
        comp = chain(*weights, horizontal=tuple(horizontals), two_section=two_section)
        d = DecoratedType((comp,), width=width)
        built += 1
        specific = width_check(d)
        degrees = []
        for ci, pos in width_oracle.horizontal_positions(d):
            degrees.append(2 if width_oracle.entry_at(d, ci, pos).two_section else
                           (3 if width == 1 else 1))
        general = width_oracle.delpezzo_check_general(d, degrees, 3)
        assert specific.satisfied == general.satisfied
        if width != 1:
            assert specific.lhs == general.lhs


def test_failed_check_stays_failed_under_weight_growth():
    import random as _random

    rng = _random.Random(14)
    rows = [r.expr for r in __import__("delpezzo3.fixtures", fromlist=["x"]).load_negative()]
    from delpezzo3 import notation as _notation

    for expr in rows:
        d = _notation.substitute(expr, {})
        assert not width_check(d).satisfied
        for _ in range(10):
            comps = list(d.components)
            ci = rng.randrange(len(comps))
            comp = comps[ci]
            if comp[0] != "chain":
                continue
            entries = list(comp[1])
            if rng.random() < 0.5:
                j = rng.randrange(len(entries))
                e = entries[j]
                entries[j] = Entry(e.weight + 1, e.horizontal, e.two_section, e.labels)
            else:
                entries.insert(0, Entry(2))
            comps[ci] = chain_comp(entries)
            bigger = DecoratedType(tuple(comps), d.width, d.char_tag, d.free_labels)
            assert not width_check(bigger).satisfied


def test_canonical_form_collision_sweep():
    # canonical forms are injective up to isomorphism: any two random
    # types that collide must carry identical label-free data (the same
    # singularity type and multiset of entry skeletons), and the sweep
    # must produce many distinct classes
    import random as _random

    rng = _random.Random(99)
    buckets = {}
    for _ in range(2000):
        n_comp = rng.randint(1, 3)
        comps = []
        usage = {l: 0 for l in (1, 2, 3)}
        for _ in range(n_comp):
            n = rng.randint(1, 4)
            labels = {}
            for i in range(1, n + 1):
                free = [l for l, u in usage.items() if u < 3]
                if free and rng.random() < 0.35:
                    l = rng.choice(free)
                    usage[l] += 1
                    labels[i] = (l,)
            comps.append(chain(*(rng.choice([2, 3, 4]) for _ in range(n)),
                                labels=labels))
        d = DecoratedType(tuple(comps))
        buckets.setdefault(canonical_form(d), []).append(d)
    assert len(buckets) > 1200
    for key, members in buckets.items():
        base = singularity_type_of(members[0])
        skeletons = sorted(e._skeleton for e in members[0].entries())
        for m in members:
            assert singularity_type_of(m) == base
            assert sorted(e._skeleton for e in m.entries()) == skeletons


def test_walk_readers_match_the_fork_readers():
    """``singularity_type_of``, ``is_admissible`` and log canonicity (the
    sign of each part's ``_term`` excess, which ``verify.evaluate`` reads
    for the lc-only table; ``verify_oracle.is_log_canonical``), which read
    weights from the walk, agree with the readers that built a
    ``chains.Fork`` per fork (``cascade_oracle``) on every table instance at
    cutoff 6, the ``nonlt_char2`` rows among them, and on every node of the
    depth-4 cascades of w3a and w3b, pruned ones included."""
    types = [notation.substitute(row.expr, assignment)
             for stem in fixtures.TABLE_STEMS for row in fixtures.load_table(stem)
             for assignment in fixtures.row_assignments(row, 6)]
    for name in ("w3a", "w3b"):
        root = verify.load_root(name)
        types += cascade_oracle.node_types(root.dtype, root.cascade(4)).values()
    kinds = set()
    for d in types:
        assert singularity_type_of(d) == cascade_oracle.singularity_type(d), d
        admissible, lc = d.is_admissible(), verify_oracle.is_log_canonical(d)
        assert (admissible, lc) == (cascade_oracle.is_admissible_type(d),
                                    cascade_oracle.is_log_canonical_type(d)), d
        kinds.add((admissible, lc))
    # admissible types, lc-only ones (the nonlt_char2 rows) and non-lc ones all occur
    assert kinds == {(True, True), (False, True), (False, False)}
