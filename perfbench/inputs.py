"""Seeded benchmark inputs.

Two generators, both pure functions of the seed:

* :func:`relabel_corpus` copies the bundled fixture corpus and renames the
  (-1)-curve labels of every ``.types`` file by a seeded permutation; the
  primitive roots also get their components shuffled.  Every verdict,
  count and canonical form the engine prints is invariant under both, so
  the expected answers do not depend on the seed.
* :func:`symmetric_types` builds types from fixed multiplicity profiles of
  identical small components, plus a relabelled, reordered copy of each
  and the order of its automorphism group from a closed form.
"""

from __future__ import annotations

import math
import random
import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

_LABEL_RE = re.compile(r"@(\d+)")
_NODE_LABELS_RE = re.compile(r"(#\s*node-labels:\s*)(.*)")
_OPEN, _CLOSE = "[<({", "]>)}"


# -- relabelled corpus ---------------------------------------------------------


def _split_components(expr: str) -> list[str]:
    """Top-level ``+``-separated components of a type expression (without
    its ``;`` constraints)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(expr):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
        elif ch == "+" and depth == 0:
            parts.append(expr[start:i].strip())
            start = i + 1
    parts.append(expr[start:].strip())
    return parts


def _relabel_text(text: str, rng: random.Random, shuffle_components: bool) -> str:
    used = sorted({int(m) for m in _LABEL_RE.findall(text)})
    image = used[:]
    rng.shuffle(image)
    rename = dict(zip(used, image))
    out = []
    for line in text.splitlines():
        node = _NODE_LABELS_RE.match(line.strip())
        if node:
            labels = [x.strip() for x in node.group(2).split(",") if x.strip()]
            line = node.group(1) + ",".join(str(rename[int(x)]) for x in labels)
        elif line.strip() and not line.lstrip().startswith("#"):
            line = _LABEL_RE.sub(lambda m: f"@{rename[int(m.group(1))]}", line)
            if shuffle_components:
                body, sep, constraints = line.partition(";")
                comps = _split_components(body)
                rng.shuffle(comps)
                line = " + ".join(comps) + (" ;" + constraints if sep else "")
        out.append(line)
    return "\n".join(out) + "\n"


def relabel_corpus(src: Path, dest: Path, seed: int) -> Path:
    """Copy the fixture directory ``src`` to ``dest`` with seeded label
    names, and seeded component order in the primitive roots."""
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(src, dest)
    rng = random.Random(seed)
    for path in sorted(dest.rglob("*.types")):
        roots = path.parent.name == "primitive"
        path.write_text(_relabel_text(path.read_text(), rng, shuffle_components=roots))
    return dest


# -- symmetric types -------------------------------------------------------------

# A component is ("chain", entries) or ("fork", branch_weight, twigs); an
# entry is (weight, labels) and a twig is a tuple of weights from its far
# tip toward the branch.  Labels are private to one component, so the
# automorphism group of a type is the product over isomorphism classes of
# |Aut(component)|^m * m!.


@dataclass(frozen=True)
class SymmetricType:
    profile: str
    text: str
    relabelled: str
    aut_order: int


def _pal_pair(rng):
    w = rng.randint(2, 6)
    return ("chain", ((w, ()), (w, ())))


def _asym_pair(rng):
    a, b = rng.sample(range(2, 7), 2)
    return ("chain", ((a, ()), (b, ())))


def _single(rng):
    return ("chain", ((rng.randint(2, 6), ()),))


def _fork3(rng):
    t = rng.randint(2, 4)
    return ("fork", rng.randint(2, 4), ((t,), (t,), (t,)))


def _fork21(rng):
    t, s = rng.sample(range(2, 5), 2)
    return ("fork", rng.randint(2, 4), ((t,), (t,), (s,)))


def _labelled_pair(rng):
    w = rng.randint(2, 4)
    return ("chain", ((w, ("a",)), (w, ("b",))))


# profile -> ((shape maker, multiplicity), ...) per size; the makers of one
# profile always yield pairwise non-isomorphic components.
PROFILES = {
    "full": {
        "pairs": ((_pal_pair, 4), (_asym_pair, 2)),
        "forks": ((_fork3, 2), (_pal_pair, 3)),
        "labelled": ((_labelled_pair, 5),),
        "twig-forks": ((_fork21, 3), (_single, 3)),
        "singles": ((_single, 6),),
    },
    "tiny": {
        "pairs": ((_pal_pair, 2), (_asym_pair, 1)),
        "forks": ((_fork3, 1), (_pal_pair, 1)),
        "labelled": ((_labelled_pair, 2),),
        "twig-forks": ((_fork21, 1), (_single, 1)),
        "singles": ((_single, 3),),
    },
}


def component_aut_order(comp) -> int:
    """Order of the automorphism group of one component with private
    labels: chain reversal when the weights read the same both ways
    (label names are free, so only the weight pattern matters), twig
    permutations among equal twigs."""
    if comp[0] == "chain":
        weights = [(w, len(labels)) for w, labels in comp[1]]
        return 2 if len(weights) > 1 and weights == weights[::-1] else 1
    return math.prod(math.factorial(k) for k in Counter(comp[2]).values())


def closed_form_aut_order(shapes) -> int:
    """prod |Aut(shape)|^m * m! over the (shape, multiplicity) pairs."""
    return math.prod(component_aut_order(c) ** m * math.factorial(m) for c, m in shapes)


def _render(comps, rename) -> str:
    parts = []
    for comp in comps:
        if comp[0] == "chain":
            entries = (
                str(w) + "".join(f"@{rename[label]}" for label in labels)
                for w, labels in comp[1]
            )
            parts.append("[" + ",".join(entries) + "]")
        else:
            twigs = ",".join("[" + ",".join(map(str, t)) + "]" for t in comp[2])
            parts.append(f"<{comp[1]};{twigs}>")
    return "+".join(parts)


def _instances(shapes):
    """Each shape repeated by its multiplicity, labels made private as
    (copy, name) pairs."""
    out = []
    for i, (comp, m) in enumerate(shapes):
        for copy in range(m):
            if comp[0] == "chain":
                entries = tuple(
                    (w, tuple((i, copy, name) for name in labels)) for w, labels in comp[1]
                )
                out.append(("chain", entries))
            else:
                out.append(comp)
    return out


def _shuffled(comps, rng):
    """A reordered copy: components permuted, chains reversed at random,
    fork twigs permuted."""
    out = []
    for comp in comps:
        if comp[0] == "chain":
            entries = comp[1][::-1] if rng.random() < 0.5 else comp[1]
            out.append(("chain", entries))
        else:
            twigs = list(comp[2])
            rng.shuffle(twigs)
            out.append(("fork", comp[1], tuple(twigs)))
    rng.shuffle(out)
    return out


def symmetric_types(seed: int, size: str = "full") -> list[SymmetricType]:
    """One type per profile: seeded shapes and label names, fixed
    multiplicities, so the search work per type does not depend on the
    seed."""
    rng = random.Random(seed)
    out = []
    for profile, makers in PROFILES[size].items():
        shapes = [(make(rng), m) for make, m in makers]
        comps = _instances(shapes)
        labels = sorted({l for c in comps if c[0] == "chain" for _, ls in c[1] for l in ls})
        names = list(range(1, len(labels) + 1))
        rng.shuffle(names)
        first = dict(zip(labels, names))
        rng.shuffle(names)
        second = dict(zip(labels, names))
        out.append(
            SymmetricType(
                profile,
                _render(comps, first),
                _render(_shuffled(comps, rng), second),
                closed_form_aut_order(shapes),
            )
        )
    return out
