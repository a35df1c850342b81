"""The block-split canonical form and automorphism count against the
exhaustive search they replaced (``canonical_oracle``), against the
per-block arrangement search that component keys and label incidence
lists replaced (``block_search_oracle``), and against the block search in
block-local ids that reading placements in the type's own entry numbering
replaced (``block_code_oracle``)."""

import dataclasses
import hashlib
import itertools
import math
import random
import time
from collections import Counter

import block_code_oracle as code_oracle
import block_search_oracle as block_oracle
import canonical_oracle as oracle
import cascade_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo3 import boundary, fixtures, notation, swaps
from delpezzo3.boundary import (
    DecoratedType,
    Entry,
    canonical_form,
    chain_comp,
    fork_comp,
    graph_automorphisms,
)


def assert_same_partition(types):
    """Both forms split ``types`` into the same isomorphism classes."""
    new = [canonical_form(d) for d in types]
    old = [oracle.canonical_form(d) for d in types]
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old))
    return len(set(new))


def fixture_instances(cutoff):
    out = []
    for rows in fixtures.load_all_tables().values():
        for row in rows:
            for assignment in fixtures.row_assignments(row, cutoff):
                out.append(notation.substitute(row.expr, assignment))
    out.extend(notation.substitute(row.expr, {}) for row in fixtures.load_negative())
    for path in sorted((fixtures.data_dir() / "primitive").glob("*.types")):
        row = fixtures.parse_fixture_file(path)[0]
        out.append(notation.substitute(row.expr, {}))
    return out


def random_type(rng):
    """Up to five chains and forks; components often repeat an earlier
    shape, labels are often shared between components and sometimes met
    twice by one entry; a few free labels."""
    usage = {l: 0 for l in range(1, rng.randint(2, 7))}

    def labels():
        out = []
        for l in usage:
            if usage[l] < 3 and rng.random() < 0.15:
                times = 2 if usage[l] < 2 and rng.random() < 0.2 else 1
                usage[l] += times
                out.extend([l] * times)
        return tuple(out)

    def entry(template):
        w, h = template
        return Entry(w, h, False, labels())

    templates = []
    comps = []
    for _ in range(rng.randint(1, 5)):
        if templates and rng.random() < 0.5:
            kind, shape = rng.choice(templates)
        elif rng.random() < 0.25:
            kind = "fork"
            shape = [(rng.choice([2, 2, 3]), False)] + [
                [(rng.choice([2, 2, 3]), rng.random() < 0.1) for _ in range(rng.randint(1, 2))]
                for _ in range(3)
            ]
        else:
            kind = "chain"
            shape = [(rng.choice([2, 2, 3]), rng.random() < 0.15) for _ in range(rng.randint(1, 3))]
        templates.append((kind, shape))
        if kind == "chain":
            comps.append(chain_comp([entry(t) for t in shape]))
        else:
            comps.append(fork_comp(entry(shape[0]), [[entry(t) for t in twig] for twig in shape[1:]]))
    free = frozenset(range(100, 100 + rng.choice([0, 0, 0, 1, 2])))
    return DecoratedType(tuple(comps), free_labels=free)


def renamed(d, rename):
    """``d`` with every label l (free ones too) named ``rename.get(l, l)``."""

    def move(e):
        return Entry(e.weight, e.horizontal, e.two_section,
                     tuple(rename.get(l, l) for l in e.labels))

    comps = tuple(
        chain_comp(map(move, c[1])) if c[0] == "chain"
        else fork_comp(move(c[1]), [map(move, t) for t in c[2]])
        for c in d.components
    )
    return DecoratedType(comps, d.width, d.char_tag,
                         frozenset(rename.get(l, l) for l in d.free_labels))


def relabelled_copy(d, rng):
    """Components reordered, chains reversed, twigs permuted and every
    label (free ones too) renamed."""
    names = sorted(d.labels())
    shuffled = names[:]
    rng.shuffle(shuffled)
    d = renamed(d, {a: b + 1000 for a, b in zip(names, shuffled)})
    comps = []
    for c in d.components:
        if c[0] == "chain":
            comps.append(chain_comp(c[1][::-1] if rng.random() < 0.5 else c[1]))
        else:
            twigs = list(c[2])
            rng.shuffle(twigs)
            comps.append(fork_comp(c[1], twigs))
    rng.shuffle(comps)
    return DecoratedType(tuple(comps), d.width, d.char_tag, d.free_labels)


def parsed(text, free=()):
    d = notation.substitute(notation.parse(text), {})
    return dataclasses.replace(d, free_labels=frozenset(free))


def label_cycle(n):
    """``[2@1,2@2]+[2@2,2@3]+...+[2@n,2@1]``."""
    return parsed("+".join(f"[2@{i},2@{i % n + 1}]" for i in range(1, n + 1)))


# An entry brings two fresh labels, on which a form that numbered them in
# order of their names changed under 1<->2 and under 3<->4 respectively.
NAME_SENSITIVE = [
    parsed("[2,2@3]+[2@2@3@3,2]+[2@1@2@2,2]", {100, 101}),
    parsed("[2]+[3h@4,2@1]+[3@3@4,2,3@1@4]"),
]

# types whose automorphism order a miscounted search gets wrong
PINNED_ORDERS = [
    (label_cycle(3), 6),
    (label_cycle(4), 8),
    (label_cycle(5), 10),
    (parsed("[2@1@2]"), 1),
    (parsed("[2@1@2]+[2@1@2]"), 2),
    (parsed("[2@1@2,2,2@3@4]"), 2),
    (parsed("[2@4,3@1@1@3@4@4,2@1]", {100, 101}), 4),
]


def linked_block(rng):
    """2-5 identical components that labels link into one or more blocks,
    a seeded mix of:

    * a chain, or a fork with two or three equal twigs;
    * each copy with labels at ports p and q (possibly one entry), wired
      as a label cycle, a label path whose end labels may also meet a
      distinct component, a label meeting three copies, or labels met
      twice by one entry; the cycle wirings follow a random permutation,
      so they may form several cycles of any lengths;
    * sometimes a free label."""
    kind = rng.choice(["chain", "chain", "fork"])
    if kind == "chain":
        shape = [(rng.choice([2, 2, 3]), rng.random() < 0.2) for _ in range(rng.randint(1, 3))]
        m = rng.randint(2, 5 if len(shape) < 3 else 4)
        size = len(shape)
    else:
        twig = [rng.choice([2, 3]) for _ in range(rng.randint(1, 2))]
        odd = rng.choice([twig, [2, 2], [3], [2]])
        shape = [rng.choice([2, 3]), twig, twig, odd]
        m = rng.randint(2, 3)
        size = 1 + 2 * len(twig) + len(odd)
    p, q = rng.randrange(size), rng.randrange(size)
    wiring = rng.choice(["cycle", "path", "star", "contact2"])
    ports = [{p: [], q: []} for _ in range(m)]
    sigma = list(range(m))
    rng.shuffle(sigma)
    extra = []
    if wiring == "cycle":
        for i in range(m):
            ports[i][p].append(10 + i)
            ports[i][q].append(10 + sigma[i])
    elif wiring == "contact2":
        for i in range(m):
            ports[i][p] += [10 + i, 10 + i]
            ports[i][q].append(10 + (sigma[i] if p != q else (i + 1) % m))
    elif wiring == "path":
        for i in range(m):
            ports[i][p].append(10 + i)
            ports[i][q].append(11 + i)
        for end in (10, 10 + m):
            if rng.random() < 0.5:
                extra.append(chain_comp([Entry(3, False, False, (end,))]))
    else:
        for i in range(m):
            ports[i][p].append(10 + i // 3)
            ports[i][q].append(20 + sigma[i] // 2)

    def entry(w, h, labels):
        return Entry(w, h, False, tuple(sorted(labels)))

    comps = []
    for at in ports:
        if kind == "chain":
            comps.append(chain_comp([entry(w, h, at.get(j, ())) for j, (w, h) in enumerate(shape)]))
        else:
            ids = iter(range(1, size))
            twigs = [[entry(w, False, at.get(next(ids), ())) for w in t] for t in shape[1:]]
            comps.append(fork_comp(entry(shape[0], False, at.get(0, ())), twigs))
    comps += extra
    rng.shuffle(comps)
    free = frozenset({100}) if rng.random() < 0.2 else frozenset()
    return DecoratedType(tuple(comps), free_labels=free)


def test_refinement_blocks_match_oracle():
    """Blocks of identical components linked by labels, the ones that
    take the refinement path, and relabelled, reordered copies: the same
    partition and automorphism orders as the exhaustive oracle."""
    rng = random.Random(4711)
    types = []
    for _ in range(150):
        d = linked_block(rng)
        types += [d, relabelled_copy(d, rng), relabelled_copy(d, rng)]
    types += [label_cycle(4), parsed("[2@1,2@2]+[2@1,2@2]"), parsed("[2@1,2@2]+[3@1,2@2]")]
    # pairs told apart only by which label of one entry has contact 2
    types += [parsed("[2@1@1@2]+[3@1]+[2@2]"), parsed("[2@1@2@2]+[3@1]+[2@2]"),
              parsed("[2@1@1@2,3@3]+[2@3@3@4,3@1]"), parsed("[2@1@2@2,3@3]+[2@3@4@4,3@1]")]
    assert assert_same_partition(types) > 100
    for d in types:
        assert graph_automorphisms(d).order == oracle.graph_automorphisms(d).order, d
    for i in range(0, 450, 3):
        assert canonical_form(types[i]) == canonical_form(types[i + 1]) == canonical_form(types[i + 2])


def cascade_types(stem, depth):
    row = fixtures.parse_fixture_file(fixtures.data_dir() / "primitive" / f"{stem}.types")[0]
    root = notation.substitute(row.expr, {})
    result = swaps.cascade(root, depth, excluded_labels=row.node_labels)
    return list(cascade_oracle.node_types(root, result).values())


def test_cascade_nodes_match_block_search():
    """The depth-4 w3a/w3b and depth-6 w1a/w1b/w1c3 cascade nodes: the
    same partition and automorphism orders as the arrangement search."""
    types = []
    for stem, depth in (("w3_a", 4), ("w3_b", 4), ("w1_a", 6), ("w1_b", 6), ("w1_c3_notGK", 6)):
        types += cascade_types(stem, depth)
    new = [canonical_form(d) for d in types]
    old = [block_oracle.canonical_form(d) for d in types]
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old)) > 2000
    for d in types:
        assert graph_automorphisms(d).order == block_oracle.graph_automorphisms_order(d)


def test_label_cycles_without_factorial_search():
    """n identical chains that labels link into one cycle have the
    dihedral group of order 2n, which the arrangement search found in
    time factorial in n."""
    six = label_cycle(6)
    for f in (canonical_form, graph_automorphisms):
        t0 = time.perf_counter()
        f(six)
        assert time.perf_counter() - t0 < 0.1, f
    assert graph_automorphisms(six).order == 12
    assert graph_automorphisms(label_cycle(10)).order == 20
    assert canonical_form(label_cycle(10)) == canonical_form(relabelled_copy(label_cycle(10), random.Random(1)))


def test_fixture_instances_same_partition():
    assert assert_same_partition(fixture_instances(6)) > 400


def test_cascade_nodes_same_partition(monkeypatch):
    """A depth-4 cascade keyed by the oracle keeps the same nodes, with the
    same depths, statuses and lhs values."""
    for stem in ("w3_a", "w3_b"):
        row = fixtures.parse_fixture_file(fixtures.data_dir() / "primitive" / f"{stem}.types")[0]
        root = notation.substitute(row.expr, {})
        new = swaps.cascade(root, 4, excluded_labels=row.node_labels)
        with monkeypatch.context() as m:
            m.setattr(swaps, "canonical_form", oracle.canonical_form)
            old = swaps.cascade(root, 4, excluded_labels=row.node_labels)
        types = cascade_oracle.node_types(root, new)
        for new_nodes, old_nodes in ((new.nodes, old.nodes), (new.pruned, old.pruned)):
            assert len(new_nodes) == len(old_nodes)
            for key, node in new_nodes.items():
                twin = old_nodes[oracle.canonical_form(types[key])]
                assert (twin.depth, twin.status, twin.lhs) == (node.depth, node.status, node.lhs)
        assert_same_partition(list(types.values()))


def test_random_relabelled_copies_same_partition():
    rng = random.Random(2024)
    types = []
    for _ in range(300):
        d = random_type(rng)
        types += [d, relabelled_copy(d, rng), relabelled_copy(d, rng)]
    classes = assert_same_partition(types)
    assert classes > 200
    for i in range(0, len(types), 3):
        assert canonical_form(types[i]) == canonical_form(types[i + 1]) == canonical_form(types[i + 2])


def test_canonical_form_ignores_label_names():
    """Every renaming of a type's labels among their own names gives one
    form, on random types (at most six labels) and on NAME_SENSITIVE."""
    rng = random.Random(7)
    types = [random_type(rng) for _ in range(300)] + NAME_SENSITIVE
    for d in types:
        names = sorted(d.labels() - d.free_labels)
        forms = {canonical_form(renamed(d, dict(zip(names, perm))))
                 for perm in itertools.permutations(names)}
        assert len(forms) == 1, d


def test_automorphism_orders_match_oracle():
    rng = random.Random(2025)
    types = [random_type(rng) for _ in range(300)]
    types += [d for d in fixture_instances(4) if len(d.components) <= 6]
    types += NAME_SENSITIVE + [d for d, _ in PINNED_ORDERS]
    for d in types:
        assert graph_automorphisms(d).order == oracle.graph_automorphisms(d).order
    for d, order in PINNED_ORDERS:
        assert graph_automorphisms(d).order == order


def test_symmetric_orders_without_factorial_search():
    seven = notation.substitute(notation.parse("+".join(["[2,2]"] * 7)), {})
    t0 = time.perf_counter()
    canonical_form(seven)
    assert graph_automorphisms(seven).order == 2**7 * 5040 == 645120
    assert time.perf_counter() - t0 < 0.1
    eight = notation.substitute(notation.parse("+".join(f"[2@{i}]" for i in range(1, 9))), {})
    assert graph_automorphisms(eight).order == 40320


def assert_block_codes_match(types):
    """Each block's (code, |Aut(block)|), the form's bytes and |Aut| are
    those of the search in block-local ids (``block_code_oracle``)."""
    for d in types:
        entries, blocks = d.label_blocks()
        for block in blocks:
            assert boundary._block_search(entries, block) == code_oracle._block_search(entries, block), d
        assert canonical_form(d) == code_oracle.canonical_form(d), d
        assert graph_automorphisms(d).order == code_oracle.graph_automorphisms_order(d), d


def test_block_codes_match_oracle_on_fixtures_and_cascade_nodes():
    types = fixture_instances(6) + cascade_types("w3_a", 4) + cascade_types("w3_b", 4)
    assert len(types) > 2700
    assert_block_codes_match(types)


_entry = st.tuples(st.integers(2, 4), st.sampled_from([False, False, False, True]))
_twig = st.lists(_entry, min_size=1, max_size=2)


@st.composite
def _shape(draw):
    """A chain, a palindromic chain, or a fork with distinct twigs or with
    two or three equal twigs: ("chain", entries) or ("fork", branch,
    twigs), an entry being a pair (weight, horizontal)."""
    kind = draw(st.sampled_from(["chain", "palindrome", "palindrome", "fork", "fork2", "fork3"]))
    if kind == "chain":
        return ("chain", draw(st.lists(_entry, min_size=1, max_size=4)))
    if kind == "palindrome":
        half = draw(st.lists(_entry, min_size=1, max_size=2))
        return ("chain", half + draw(st.lists(_entry, max_size=1)) + half[::-1])
    twig = draw(_twig)
    twigs = {"fork": [twig, draw(_twig), draw(_twig)], "fork2": [twig, twig, draw(_twig)],
             "fork3": [twig, twig, twig]}[kind]
    return ("fork", (draw(_entry)[0], False), draw(st.permutations(twigs)))


@st.composite
def symmetric_types(draw):
    """One to five components of up to three shapes, so shapes repeat.
    Each component is unlabelled or meets one or two of the labels 1-4,
    which link components into blocks; a label meets at most three
    entries and an entry at most twice.  Up to two free labels."""
    shapes = draw(st.lists(_shape(), min_size=1, max_size=3))
    comps = [shapes[i] for i in draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=5))]
    usage: Counter = Counter()
    met: dict = {}
    for k, comp in enumerate(comps):
        size = len(comp[1]) if comp[0] == "chain" else 1 + sum(map(len, comp[2]))
        for _ in range(draw(st.integers(0, 2))):
            label = draw(st.sampled_from([l for l in range(1, 5) if usage[l] < 3] or [None]))
            port = met.setdefault((k, draw(st.integers(0, size - 1))), [])
            if label is not None and port.count(label) < 2:
                port.append(label)
                usage[label] += 1
    out = []
    for k, comp in enumerate(comps):
        at = itertools.count()

        def entry(w, h):
            return Entry(w, h, False, tuple(met.get((k, next(at)), ())))

        if comp[0] == "chain":
            out.append(chain_comp([entry(*e) for e in comp[1]]))
        else:
            branch = entry(*comp[1])
            out.append(fork_comp(branch, [[entry(*e) for e in t] for t in comp[2]]))
    free = frozenset(range(100, 100 + draw(st.integers(0, 2))))
    return DecoratedType(tuple(out), free_labels=free)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(symmetric_types())
@example(parsed("<3;[2],[2],[2]>+<3;[2],[2],[2]>+[2,2]+[3@1,3@1]"))
@example(parsed("<2;[2@1],[2],[2]>+<2;[2],[2@1],[3]>+[4@2,4@2]", {100}))
def test_block_codes_match_oracle_on_symmetric_types(d):
    """Palindromic chains and forks with equal twigs, labelled and not,
    repeated and not, with free labels."""
    assert_block_codes_match([d])


def test_linked_family_takes_refinement_and_matches_oracle(monkeypatch):
    """``[3h@1@...@k]+[2@1]+...+[2@k]``: k identical chains that labels
    link into one block, which the refinement search reads."""
    refined, search = [], boundary._refined_placements

    def counted(*args):
        refined.append(1)
        return search(*args)

    monkeypatch.setattr(boundary, "_refined_placements", counted)
    for k in range(1, 6):
        d = parsed("[3h" + "".join(f"@{i}" for i in range(1, k + 1)) + "]"
                   + "".join(f"+[2@{i}]" for i in range(1, k + 1)))
        refined.clear()
        assert_block_codes_match([d])
        assert bool(refined) == (k > 1)
        assert graph_automorphisms(d).order == oracle.graph_automorphisms(d).order == math.factorial(k)


# SHA-256 of the sorted canonical forms of every fixture instance at cutoff
# 6 and every node key of the w3a and w3b cascades to depth 4, each form
# preceded by its length in 4 bytes.  Reports print a digest of the form
# and sort their rows by it, so any change to the encoding fails here first.
PINNED_FORMS = (2755, "7a61313d67aad88d5c93dcaea9f3a216363840b00051e71e0cf0d42b4bf3b239")


def test_canonical_form_bytes_pinned():
    forms = [canonical_form(d) for d in fixture_instances(6)]
    for stem in ("w3_a", "w3_b"):
        row = fixtures.parse_fixture_file(fixtures.data_dir() / "primitive" / f"{stem}.types")[0]
        result = swaps.cascade(notation.substitute(row.expr, {}), 4, excluded_labels=row.node_labels)
        forms += [*result.nodes, *result.pruned]
    digest = hashlib.sha256()
    for form in sorted(forms):
        digest.update(len(form).to_bytes(4, "big") + form)
    assert (len(forms), digest.hexdigest()) == PINNED_FORMS
