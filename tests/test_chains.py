import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import width_oracle
from blowdown_oracle import contract_marker_gain, contracts_to_zero_curve, smooth_point_extension
from determinant_oracle import _det_exact, cramer_ld_numerators, tree_determinant

from delpezzo3 import notation, star_compose
from delpezzo3.chains import (
    Fork,
    chain_terms,
    chains_with_discriminant,
    continuants,
    det,
    discriminant,
    dual_chain,
    fork_terms,
    fork_triples,
    hirzebruch_jung,
    is_admissible,
    _prefixes,
    ld_chain,
    ld_fork,
    run_chain_terms,
    run_prefixes,
)

F = Fraction


def det_oracle_chain(weights):
    n = len(weights)
    return tree_determinant(list(weights), [(i, i + 1) for i in range(n - 1)])


def fork_graph(fork):
    """The fork's weights, the branch and then each twig as stored, and
    its edges: a twig's LAST entry meets the branch."""
    weights = [fork.branch]
    edges = []
    for twig in fork.twigs:
        first = len(weights)
        weights.extend(twig)
        edges.append((0, first + len(twig) - 1))
        edges.extend((i, i + 1) for i in range(first, first + len(twig) - 1))
    return weights, edges


def det_oracle_fork(fork):
    return tree_determinant(*fork_graph(fork))


chains = st.lists(st.integers(2, 6), min_size=0, max_size=8).map(tuple)
nonempty_chains = st.lists(st.integers(2, 6), min_size=1, max_size=8).map(tuple)


def test_discriminant_examples():
    assert discriminant(()) == 1
    assert discriminant((2,) * 5) == 6
    assert discriminant((2, 3)) == 5
    assert discriminant((2, 2, 3, 2, 2, 2, 2, 2)) == 27


@given(chains)
def test_discriminant_matches_determinant(t):
    assert discriminant(t) == det_oracle_chain(t)


@given(st.integers(2, 5), nonempty_chains, nonempty_chains, nonempty_chains)
@example(2, (1, 1), (2,), (2,))  # a twig of discriminant 0 beside a positive excess
@example(1, (2,), (2,), (2,))  # a weight-1 branch
def test_fork_discriminant_matches_determinant(b, t1, t2, t3):
    """``discriminant`` is total on forks, weights below 2 included."""
    fork = Fork(b, (t1[:4], t2[:4], t3[:4]))
    assert discriminant(fork) == det_oracle_fork(fork)


any_weights = st.lists(st.integers(-1, 4), min_size=1, max_size=4).map(tuple)


@given(st.integers(-1, 4), any_weights, any_weights, any_weights)
def test_terms_match_cramers_rule(b, t1, t2, t3):
    """For any integer weights, ``fork_terms`` gives the determinant, and
    each numerator of ``fork_terms`` and ``chain_terms`` is the entry's
    ld times the determinant by Cramer's rule wherever that is not 0."""
    fork = Fork(b, (t1, t2, t3))
    weights, edges = fork_graph(fork)
    _, disc, nums = fork_terms(b, fork.twigs)
    assert discriminant(fork) == disc == tree_determinant(weights, edges)
    if nums is not None and disc:
        assert nums == cramer_ld_numerators(weights, edges)
    chain = t1 + t2
    d, nums = chain_terms(chain)
    path = [(i, i + 1) for i in range(len(chain) - 1)]
    assert d == tree_determinant(list(chain), path)
    if d:
        assert nums == cramer_ld_numerators(list(chain), path)


@given(st.lists(st.integers(2, 6), min_size=2, max_size=8).map(tuple), st.data())
def test_discriminant_recursion(t, data):
    # d(D1 + D2) = d(D1) d(D2) - d(D1 - C1) d(D2 - C2) where C1, C2
    # are the components joined by the connecting edge.
    cut = data.draw(st.integers(1, len(t) - 1))
    d1, d2 = t[:cut], t[cut:]
    assert discriminant(t) == discriminant(d1) * discriminant(d2) - discriminant(
        d1[:-1]
    ) * discriminant(d2[1:])


def test_tree_determinant_singular():
    # a zero pivot column makes the matrix singular: the determinant is 0
    assert tree_determinant([0, 1, 1], []) == 0
    assert tree_determinant([0, 2, 2], [(1, 2)]) == 0


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4),
       st.integers(1, 4))
def test_det_matches_cofactor_expansion(rows, n):
    m = [row[:n] for row in rows[:n]]
    assert det(m) == _det_exact(m)


def test_disjoint_union_discriminant():
    assert discriminant([(2, 2), (3,), Fork(2, ((2,), (2,), (2,)))]) == 3 * 3 * 4


def test_dual_chain_examples():
    assert dual_chain((2,)) == (2,)
    assert dual_chain((3,)) == (2, 2)
    assert dual_chain((2, 3)) == (2, 3)
    assert dual_chain((1,)) == ()
    with pytest.raises(ValueError):
        dual_chain((1, 2))
    with pytest.raises(ValueError):
        dual_chain(())


def all_admissible_chains(max_len, max_weight):
    if max_len == 0:
        return [()]
    shorter = all_admissible_chains(max_len - 1, max_weight)
    longest = [
        t + (w,)
        for t in shorter
        if len(t) == max_len - 1
        for w in range(2, max_weight + 1)
    ]
    return shorter + longest


def test_continuants_match_the_oracle_recurrence():
    """``discriminant``, ``continuants`` and ``dual_chain``, all from one
    prefix recurrence, agree with ``width_oracle``'s own recurrence on
    every admissible chain of length <= 6 and weights <= 5."""
    chains = [t for t in all_admissible_chains(6, 5) if t]
    assert len(chains) == sum(4 ** n for n in range(1, 7))
    for t in chains:
        assert discriminant(t) == width_oracle.disc_chain(t)
        assert continuants(t) == ([width_oracle.disc_chain(t[:k]) for k in range(len(t) + 1)],
                                  [width_oracle.disc_chain(t[k:]) for k in range(len(t) + 1)])
        assert dual_chain(t) == width_oracle.dual_chain(t)


# runs (weight, count): single entries, runs of 2s up to 40 long, and
# short runs of any weight, weights 1 to 6
runs_lists = st.lists(st.one_of(
    st.tuples(st.integers(1, 6), st.just(1)),
    st.tuples(st.just(2), st.integers(0, 40)),
    st.tuples(st.integers(1, 6), st.integers(0, 4)),
), max_size=10)


def expand_runs(runs):
    """The weights of the chain ``runs`` stands for, and where each run
    starts in it."""
    weights, starts = [], []
    for w, n in runs:
        starts.append(len(weights))
        weights += [w] * n
    return tuple(weights), starts


@given(runs_lists)
@example([(2, 0)])
@example([(1, 1), (2, 40), (1, 1)])
def test_run_prefixes_match_prefixes(runs):
    weights, starts = expand_runs(runs)
    prefix = _prefixes(weights)
    assert run_prefixes(runs) == [prefix[k] for k in starts + [len(weights)]]


@given(runs_lists, st.data())
def test_run_chain_terms_match_chain_terms(runs, data):
    """Each marked single entry's numerator, and the discriminant, are
    ``chain_terms``' on the expanded chain."""
    weights, starts = expand_runs(runs)
    singles = [k for k, (_, n) in enumerate(runs) if n == 1]
    marked = data.draw(st.lists(st.sampled_from(singles), unique=True) if singles else st.just([]))
    d, nums = chain_terms(weights)
    assert run_chain_terms(runs, marked) == (d, [nums[starts[k]] for k in marked])


def test_run_chain_terms_marks_only_single_entries():
    assert run_chain_terms([(2, 3), (3, 1), (2, 1)], [1, 2]) == (14, [6, 10])  # [2,2,2,3,2]
    for count in (0, 2):
        with pytest.raises(ValueError):
            run_chain_terms([(3, 1), (2, count)], [1])


def test_dual_chain_blowdown_oracle():
    # [T, 1, T*] must contract to a 0-curve, for every admissible chain in
    # the test window; also d(T*) = d(T).
    for t in all_admissible_chains(6, 5):
        if not t:
            continue
        dual = dual_chain(t)
        assert discriminant(dual) == discriminant(t)
        assert contracts_to_zero_curve(t + (1,) + dual)


def test_dual_is_involutive():
    for t in all_admissible_chains(6, 5):
        if t:
            assert dual_chain(dual_chain(t)) == t


def test_unique_contractible_completion():
    # T* is the only admissible chain of the same discriminant making
    # [T, 1, .] contract to a 0-curve.
    for t in all_admissible_chains(4, 4):
        if not t:
            continue
        dual = dual_chain(t)
        for other in chains_with_discriminant(discriminant(t)):
            if other != dual:
                assert not contracts_to_zero_curve(t + (1,) + other)


def test_extension_rule():
    # Contracting [T, 1, T'] with T' in the dual-extension family blows
    # the whole chain down to a smooth point and increases the
    # self-intersection of a curve meeting the first tip once by k + 2.
    rng = random.Random(0)
    pool = [t for t in all_admissible_chains(5, 4) if t]
    for t in rng.sample(pool, 25):
        dual = dual_chain(t)
        for k in (-1, 0, 1, 2, 3):
            chain = t + (1,) + smooth_point_extension(dual, k)
            gain = contract_marker_gain((100, chain))
            assert gain == k + 2, (t, k, chain, gain)
        # the unextended [T, 1, T*] stops at a 0-curve instead
        assert contracts_to_zero_curve(t + (1,) + dual)
        assert contract_marker_gain((100, t + (1,) + dual)) is None


def substituted_weights(text):
    """The weights of the one chain that ``text`` substitutes to."""
    (comp,) = notation.substitute(notation.parse(text), {}).components
    return tuple(e.weight for e in comp[1])


def test_star_compose_conventions():
    assert star_compose((2, 3), (2,)) == (2, 4) == substituted_weights("[2,3]*[2]")
    assert star_compose("(2)_{-1}", (3, 2)) == (4, 2) == substituted_weights("[(2)_{-1}]*[3,2]")
    # [(2)_{-1}, b_1, b_2, ...] = [b_2, ...]
    assert substituted_weights("[(2)_{-1},3,2]") == (2,)
    with pytest.raises(ValueError):
        star_compose("(2)_{-1}", ())
    with pytest.raises(ValueError):
        star_compose((2,), ())


def test_ld_chain_examples():
    t = (2, 2, 3, 2, 2, 2, 2, 2)
    assert ld_chain(t, 6) == F(2, 3)
    assert ld_chain(t, 4) == F(4, 9)
    for k in (1, 2, 5):
        for j in range(1, k + 1):
            assert ld_chain((2,) * k, j) == 1
    with pytest.raises(IndexError):
        ld_chain(t, 9)
    with pytest.raises(ValueError):
        ld_chain((2, 1, 2), 1)


FORK_234 = Fork(2, ((2,), (3,), (4,)))


def test_ld_fork_examples():
    d4 = Fork(2, ((2,), (2,), (2,)))
    assert ld_fork(d4, "branch") == 1
    fork = Fork(2, ((2,), (2,), (2, 3, 2, 2, 2, 2)))
    assert ld_fork(fork, (3, 2)) == F(1, 3)
    assert ld_fork(fork, "branch") == F(1, 3)
    # twig entries count from the far tip: (3, 1) is the tip of [2, 3]
    tip_first = Fork(2, ((2,), (3,), (2, 3)))
    assert ld_fork(tip_first, (3, 1)) == F(14, 23)
    assert ld_fork(tip_first, (3, 2)) == F(5, 23)
    with pytest.raises(ValueError):
        ld_fork(Fork(2, ((3,), (3,), (3,))), "branch")
    # (i, j) reads twig i: twig 2 of <2;[2],[3],[4]> is [3]
    assert [ld_fork(FORK_234, (i, 1)) for i in (1, 2, 3)] == [F(6, 11), F(4, 11), F(3, 11)]
    assert [ld_fork(FORK_234, p) for p in [(2, 1), "branch"]] == [F(4, 11), F(1, 11)]
    # every entry's ld over d(fork) = 22, the branch first
    assert fork_terms(FORK_234.branch, FORK_234.twigs) == (2, 22, [2, 12, 8, 6])


@pytest.mark.parametrize("ld", [ld_fork, width_oracle.ld_fork])
@pytest.mark.parametrize("position, error", [
    ((0, 1), IndexError), ((-1, 1), IndexError), ((4, 1), IndexError), ((2, 0), IndexError),
    ((2, 2), IndexError), ("twig", ValueError), ((1,), ValueError), ((1, 1, 1), ValueError),
    (3, ValueError),
])
def test_ld_fork_rejects_bad_positions(ld, position, error):
    """A twig index outside 1..3 or an entry index outside its twig is an
    IndexError; a position that is neither "branch" nor a pair is a
    ValueError naming the position, on a fork that is not admissible too."""
    with pytest.raises(error) as info:
        ld(FORK_234, position)
    if error is ValueError:
        assert repr(position) in str(info.value)
    with pytest.raises(error) as info:
        ld(Fork(2, ((3,), (3,), (3,))), position)
    if error is ValueError:
        assert repr(position) in str(info.value)


def test_ld_range_and_canonical_configurations():
    rng = random.Random(1)
    for _ in range(300):
        t = tuple(rng.choice([2, 2, 2, 3, 4, 5]) for _ in range(rng.randint(1, 7)))
        lds = [ld_chain(t, j) for j in range(1, len(t) + 1)]
        assert all(0 < v <= 1 for v in lds)
        assert (max(lds) == 1) == all(a == 2 for a in t)
        if all(a == 2 for a in t):
            assert all(v == 1 for v in lds)


def test_ld_fork_range():
    rng = random.Random(2)
    count = 0
    while count < 120:
        b = rng.randint(2, 4)
        twigs = tuple(
            tuple(rng.choice([2, 2, 3]) for _ in range(rng.randint(1, 3)))
            for _ in range(3)
        )
        fork = Fork(b, twigs)
        if not is_admissible(fork):
            continue
        count += 1
        values = [ld_fork(fork, "branch")]
        for i, twig in enumerate(fork.twigs, start=1):
            values.extend(ld_fork(fork, (i, j)) for j in range(1, len(twig) + 1))
        assert all(0 < v <= 1 for v in values)
        canonical = b == 2 and all(a == 2 for t in twigs for a in t)
        assert (max(values) == 1) == canonical or not canonical


def test_affine_e7_fork_is_log_canonical_without_log_discrepancies():
    """The affine E~7 fork <2;[2,2,2],[2,2,2],[2]>, of ``nonlt.3(T=[2,2,2])``
    at k = 2, is not negative definite: its excess and discriminant are
    both 0, so it has no log discrepancies.  ``is_log_canonical`` reads
    only the sign of the excess and accepts it.  Whether it should also
    ask for a positive discriminant is the open question of the lattice
    invariants item of ROADMAP.md; an answer changes this test."""
    fork = Fork(2, ((2, 2, 2), (2, 2, 2), (2,)))
    assert fork_terms(fork.branch, fork.twigs) == (0, 0, None)
    with pytest.raises(ValueError):
        ld_fork(fork, "branch")
    d = notation.substitute(notation.parse("<2;[2,2,2],[2,2,2],[2]>"), {})
    assert d.is_log_canonical() and not d.is_admissible()


def test_is_admissible_examples():
    assert is_admissible(Fork(2, ((2,), (2,), (2,) * 7)))
    assert not is_admissible(Fork(2, ((3,), (3,), (3,))))
    assert is_admissible(Fork(2, ((2,), (3,), (5,))))
    assert is_admissible((2, 5, 2))
    assert not is_admissible((2, 1, 2))


def test_fork_rule_matches_the_fraction_definitions():
    """``is_admissible``, ``ld_fork`` and the sign of ``fork_terms``'
    excess read the sum of 1/d(T_i) as one integer; each agrees with the
    sum taken in Fractions, on seeded random forks and on forks whose sum
    is exactly 1 (log canonical, not admissible)."""
    boundary = [Fork(2, ((2,), (3,), (6,))), Fork(2, ((3,), (3,), (3,))),
                Fork(2, ((2,), (4,), (4,)))]
    rng = random.Random(12)
    forks = boundary + [
        Fork(rng.randint(1, 4), tuple(
            tuple(rng.choice([1, 2, 2, 2, 2, 3, 4, 6]) for _ in range(rng.choice([1, 1, 2, 3])))
            for _ in range(3)))
        for _ in range(3000)
    ]
    admissible = lc_only = 0
    for f in forks:
        valid = f.branch >= 2 and all(a >= 2 for t in f.twigs for a in t)
        total = sum(F(1, discriminant(t)) for t in f.twigs) if valid else None
        assert is_admissible(f) == (valid and total > 1), f
        assert not valid or (fork_terms(f.branch, f.twigs)[0] >= 0) == (total >= 1), f
        positions = ["branch"] + [(i, j) for i, t in enumerate(f.twigs, start=1)
                                  for j in range(1, len(t) + 1)]
        if valid and total > 1:
            admissible += 1
            expected = [width_oracle.ld_fork(f, p) for p in positions]
            assert [ld_fork(f, p) for p in positions] == expected, f
        else:
            lc_only += valid and total == 1
            assert not valid or fork_terms(f.branch, f.twigs)[2] is None, f
            for p in positions:
                with pytest.raises(ValueError):
                    ld_fork(f, p)
    assert admissible > 300 and lc_only > len(boundary)


def test_fork_triples():
    assert fork_triples(2) == [(2, 2, 2)]
    assert fork_triples(5) == [
        (2, 2, 2),
        (2, 2, 3),
        (2, 2, 4),
        (2, 2, 5),
        (2, 3, 3),
        (2, 3, 4),
        (2, 3, 5),
    ]
    assert set(fork_triples(6)) == set(fork_triples(5)) | {(2, 2, 6)}


def test_fork_triples_platonic_shape():
    # For any bound, the non-(2,2,k) triples are exactly {2,3,3..5}.
    triples = fork_triples(20)
    assert [t for t in triples if t[:2] != (2, 2)] == [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
    assert [t for t in triples if t[:2] == (2, 2)] == [(2, 2, k) for k in range(2, 21)]


@settings(max_examples=200)
@given(nonempty_chains, st.data())
def test_weighted_subgraph_monotonicity(t, data):
    # log discrepancies do not decrease when passing to a weighted
    # subgraph (delete tips, decrease weights but keep them >= 2).
    smaller = list(t)
    for i in range(len(smaller)):
        smaller[i] = data.draw(st.integers(2, smaller[i]))
    lo = data.draw(st.integers(0, len(smaller) - 1))
    hi = data.draw(st.integers(lo + 1, len(smaller)))
    sub = tuple(smaller[lo:hi])
    for j in range(lo, hi):
        assert ld_chain(sub, j - lo + 1) >= ld_chain(t, j + 1)


def test_chains_with_discriminant():
    assert chains_with_discriminant(1) == [()]
    assert chains_with_discriminant(2) == [(2,)]
    assert set(chains_with_discriminant(6)) == {(6,), (2, 2, 2, 2, 2)}
    for d in range(2, 15):
        for t in chains_with_discriminant(d):
            assert discriminant(t) == d
            assert is_admissible(t)
    # completeness against brute force
    brute = [t for t in all_admissible_chains(7, 8) if t and discriminant(t) == 5]
    assert sorted(brute) == sorted(chains_with_discriminant(5))


def test_hirzebruch_jung_rejects_bad_data():
    with pytest.raises(ValueError):
        hirzebruch_jung(6, 2)
    with pytest.raises(ValueError):
        hirzebruch_jung(5, 0)
    with pytest.raises(ValueError):
        hirzebruch_jung(0, 1)
