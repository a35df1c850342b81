"""Blowup bookkeeping for curve configurations on P^2 and P^1 x P^1.

Curves are tracked through numerical data only: self-intersections,
pairwise local contact orders at named points, and (for the cuspidal
cubic) a branch multiplicity.  Blowups update this data exactly; no
defining equations appear anywhere.

Plan files script the classical constructions:

    base P2|P1xP1
    curve <name> selfint <n>
    point <name> on <c1>,<c2>[,...] [contact <a>:<b>=<t> ...] [cusp <c>]
    blowup <pointname>
    blowup near <stepname> along <curve>
    blowup free-on <curve>
    fibration width=<w> horizontal=<names> base-fibers=<names>

Steps are implicitly named s1, s2, ...; the exceptional curve of step sN
is named EN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from delpezzo3.boundary import DecoratedType, Entry, walk_components


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    name: str
    self_int: int
    exceptional: bool = False
    # class of the strict transform on the base: (v, h) bidegree for
    # P1xP1, (degree, 0) for P2, (0, 0) for exceptional curves
    base_class: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class Point:
    name: str
    branches: tuple[str, ...]
    contacts: dict  # frozenset({a, b}) -> local intersection multiplicity
    mults: dict  # curve -> multiplicity of the branch (2 at a cusp)
    on_exceptional: str | None = None  # the E the point lies on

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(sorted(self.branches)))


@dataclass(frozen=True)
class Step:
    name: str
    point: str
    exceptional: str
    branch_mults: dict  # curve -> multiplicity at the center


@dataclass(frozen=True)
class SurfaceConfig:
    base: str
    curves: dict
    points: dict
    inter: dict  # frozenset({a, b}) -> total intersection number
    history: tuple[Step, ...] = ()

    @property
    def picard_rank(self) -> int:
        return (1 if self.base == "P2" else 2) + len(self.history)

    @property
    def k_squared(self) -> int:
        return (9 if self.base == "P2" else 8) - len(self.history)

    def intersection(self, a: str, b: str) -> int:
        if a == b:
            return self.curves[a].self_int
        return self.inter.get(frozenset((a, b)), 0)


def base_config(base: str, curves: list[tuple[str, int]], points: list[dict]) -> SurfaceConfig:
    """Assemble the initial configuration; all pairwise intersections of
    the declared curves must be accounted for by the declared points."""
    if base not in ("P2", "P1xP1"):
        raise SimulationError(f"unknown base surface {base!r}")
    curve_map = {}
    for name, self_int in curves:
        curve_map[name] = Curve(name, self_int)
    point_map = {}
    inter: dict = {}
    for p in points:
        branches = tuple(p["on"])
        contacts = {}
        mults = {c: 1 for c in branches}
        for c in p.get("cusp", ()):
            mults[c] = 2
        for (a, b), t in p.get("contact", {}).items():
            contacts[frozenset((a, b))] = t
        for i, a in enumerate(branches):
            for b in branches[i + 1 :]:
                key = frozenset((a, b))
                contacts.setdefault(key, 1)
                inter[key] = inter.get(key, 0) + contacts[key]
        point_map[p["name"]] = Point(p["name"], branches, contacts, mults)
    return SurfaceConfig(base, curve_map, point_map, inter)


def assign_base_classes(cfg: SurfaceConfig, base_fibers: list[str]) -> SurfaceConfig:
    """Record strict-transform classes: P2 degrees from self-intersections,
    P1xP1 bidegrees from the fibration roles."""
    curves = dict(cfg.curves)
    for name, c in curves.items():
        if c.exceptional:
            continue
        if cfg.base == "P2":
            deg = {1: 1, 4: 2, 9: 3}.get(c.self_int)
            if deg is None:
                raise SimulationError(f"cannot infer a degree for {name}")
            curves[name] = replace(c, base_class=(deg, 0))
        else:
            cls = (1, 0) if name in base_fibers else (0, 1)
            curves[name] = replace(c, base_class=cls)
    return replace(cfg, curves=curves)


def validate_plane_intersections(cfg: SurfaceConfig) -> None:
    """On P2, declared contact points must exhaust deg(a) * deg(b) for
    every pair of declared curves."""
    if cfg.base != "P2":
        return
    names = [n for n, c in cfg.curves.items() if not c.exceptional]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            da = cfg.curves[a].base_class[0]
            db = cfg.curves[b].base_class[0]
            declared = cfg.inter.get(frozenset((a, b)), 0)
            if declared != da * db:
                raise SimulationError(
                    f"{a}.{b} = {declared} declared, Bezout needs {da * db}"
                )


def blow_up(cfg: SurfaceConfig, point_name: str) -> SurfaceConfig:
    """Blow up at a declared point; returns the new configuration."""
    if point_name not in cfg.points:
        raise SimulationError(f"unknown or already used center {point_name!r}")
    pt = cfg.points[point_name]
    unknown = [b for b in pt.branches if b not in cfg.curves]
    if unknown:
        raise SimulationError(f"center {point_name!r} lies on undeclared curves {unknown}")
    step_name = f"s{len(cfg.history) + 1}"
    e_name = f"E{len(cfg.history) + 1}"

    curves = dict(cfg.curves)
    inter = dict(cfg.inter)
    points = dict(cfg.points)
    del points[point_name]

    for b in pt.branches:
        m = pt.mults[b]
        curves[b] = replace(curves[b], self_int=curves[b].self_int - m * m)
        inter[frozenset((b, e_name))] = m
    curves[e_name] = Curve(e_name, -1, exceptional=True)

    residual = {}
    for i, a in enumerate(pt.branches):
        for b in pt.branches[i + 1 :]:
            key = frozenset((a, b))
            t = pt.contacts.get(key, 1)
            drop = pt.mults[a] * pt.mults[b]
            inter[key] = inter.get(key, 0) - drop
            r = t - drop
            if r < 0:
                raise SimulationError(
                    f"branches {a},{b} at {point_name} have contact {t} < {drop}"
                )
            if r > 0:
                residual[key] = r

    # cluster branches that still meet; each cluster is one point on E
    parent = {b: b for b in pt.branches}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for key in residual:
        a, b = tuple(key)
        parent[find(a)] = find(b)
    clusters: dict = {}
    for b in pt.branches:
        clusters.setdefault(find(b), []).append(b)
    for members in clusters.values():
        members = sorted(members)
        new_name = f"{e_name}|{'+'.join(members)}"
        contacts = {}
        mults = {c: 1 for c in members}
        for c in members:
            contacts[frozenset((c, e_name))] = pt.mults[c]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                key = frozenset((a, b))
                if key in residual:
                    contacts[key] = residual[key]
        points[new_name] = Point(
            new_name, tuple(members) + (e_name,), contacts, {**mults, e_name: 1},
            on_exceptional=e_name,
        )

    step = Step(step_name, point_name, e_name, {b: pt.mults[b] for b in pt.branches})
    return SurfaceConfig(
        cfg.base, curves, points, inter, cfg.history + (step,)
    )


def point_near(cfg: SurfaceConfig, step_name: str, along: str) -> str:
    """The point on the exceptional curve of ``step_name`` lying on the
    strict transform of ``along``."""
    e_name = None
    for step in cfg.history:
        if step.name == step_name:
            e_name = step.exceptional
    if e_name is None:
        raise SimulationError(f"unknown step {step_name!r}")
    candidates = [
        p.name
        for p in cfg.points.values()
        if p.on_exceptional == e_name and along in p.branches
    ]
    if len(candidates) != 1:
        raise SimulationError(
            f"no unique point on {e_name} along {along!r}: {candidates}"
        )
    return candidates[0]


def blow_up_free(cfg: SurfaceConfig, on: tuple = ()) -> SurfaceConfig:
    """Blow up a general point, of the curve in ``on`` if it names one."""
    name = ":".join(("free", *on, str(len(cfg.history))))
    points = dict(cfg.points)
    points[name] = Point(name, tuple(on), {}, dict.fromkeys(on, 1))
    return blow_up(replace(cfg, points=points), name)


# ---------------------------------------------------------------------------
# Plans.


@dataclass(frozen=True)
class Fibration:
    width: int
    horizontal: tuple[str, ...]
    base_fibers: tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    name: str
    base: str
    curves: list
    points: list
    steps: list  # ("point", name) | ("near", step, curve) | ("free-on", c) | ("free",)
    fibration: Fibration


def parse_plan(text: str, name: str = "plan") -> Plan:
    base = None
    curves: list = []
    points: list = []
    steps: list = []
    fibration = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        try:
            if words[0] == "base":
                base = words[1]
            elif words[0] == "curve":
                if words[2] != "selfint":
                    raise SimulationError(f"bad curve line: {line}")
                if any(words[1] == c for c, _ in curves):
                    raise SimulationError(f"curve {words[1]} declared twice")
                curves.append((words[1], int(words[3])))
            elif words[0] == "point":
                entry = {"name": words[1], "contact": {}, "cusp": []}
                if words[2] != "on":
                    raise SimulationError(f"bad point line: {line}")
                if any(words[1] == p["name"] for p in points):
                    raise SimulationError(f"point {words[1]} declared twice")
                entry["on"] = words[3].split(",")
                if len(set(entry["on"])) < len(entry["on"]):
                    raise SimulationError(f"point {words[1]} lists a curve twice")
                i = 4
                while i < len(words):
                    if words[i] == "contact":
                        i += 1
                        while i < len(words) and "=" in words[i]:
                            pair, t = words[i].split("=")
                            a, b = pair.split(":")
                            entry["contact"][(a, b)] = int(t)
                            i += 1
                    elif words[i] == "cusp":
                        entry["cusp"].append(words[i + 1])
                        i += 2
                    else:
                        raise SimulationError(f"bad point clause {words[i]!r}")
                points.append(entry)
            elif words[0] == "blowup":
                if words[1] == "near":
                    if words[3] != "along":
                        raise SimulationError(f"bad blowup line: {line}")
                    steps.append(("near", words[2], words[4]))
                elif words[1] == "free-on":
                    steps.append(("free-on", words[2]))
                elif words[1] == "free":
                    steps.append(("free",))
                else:
                    steps.append(("point", words[1]))
            elif words[0] == "fibration":
                opts = dict(w.split("=") for w in words[1:])
                fibration = Fibration(
                    int(opts["width"]),
                    tuple(opts["horizontal"].split(",")),
                    tuple(opts["base-fibers"].split(",")),
                )
            else:
                raise SimulationError(f"unknown plan directive {words[0]!r}")
        except SimulationError:
            raise
        except (IndexError, KeyError, ValueError):
            raise SimulationError(f"bad {words[0]} line: {line}") from None
    if base is None or fibration is None:
        raise SimulationError("plan needs a base and a fibration block")
    return Plan(name, base, curves, points, steps, fibration)


def load_plan(path: Path) -> Plan:
    return parse_plan(path.read_text(), name=path.stem)


def replay(plan: Plan) -> SurfaceConfig:
    cfg = base_config(plan.base, plan.curves, plan.points)
    cfg = assign_base_classes(cfg, list(plan.fibration.base_fibers))
    validate_plane_intersections(cfg)
    for step in plan.steps:
        if step[0] == "point":
            cfg = blow_up(cfg, step[1])
        elif step[0] == "near":
            cfg = blow_up(cfg, point_near(cfg, step[1], step[2]))
        else:
            cfg = blow_up_free(cfg, step[1:])
    return cfg


# ---------------------------------------------------------------------------
# Fibers.


def total_transform(cfg: SurfaceConfig, curve: str, from_step: int = 0) -> dict:
    """Coefficients of the total transform of ``curve`` (strict transforms
    basis), accumulated from step ``from_step`` on."""
    coeff = {curve: 1}
    for step in cfg.history[from_step:]:
        mult = 0
        for b, m in step.branch_mults.items():
            mult += m * coeff.get(b, 0)
        if mult:
            coeff[step.exceptional] = mult
    return coeff


def fiber_vector(cfg: SurfaceConfig, fibration: Fibration, base_fiber: str) -> dict:
    """The full fiber over the direction of ``base_fiber`` as a divisor."""
    vec = total_transform(cfg, base_fiber)
    if cfg.base == "P2":
        # the pencil acquires the first exceptional curve over the common
        # point of the base-fiber lines as a section; subtract its total
        # transform once
        common = _common_point_step(cfg, fibration)
        correction = total_transform(cfg, common.exceptional, from_step=cfg.history.index(common) + 1)
        for c, m in correction.items():
            vec[c] = vec.get(c, 0) - m
    return {c: m for c, m in vec.items() if m}


def _common_point_step(cfg: SurfaceConfig, fibration: Fibration) -> Step:
    fibers = set(fibration.base_fibers)
    for step in cfg.history:
        if fibers <= set(step.branch_mults):
            return step
    raise SimulationError("no blowup at the common point of the base fibers")


def pairing(cfg: SurfaceConfig, vec1: dict, vec2: dict) -> int:
    """Intersection number of two divisors given by coefficient dicts."""
    total = 0
    for a, ma in vec1.items():
        for b, mb in vec2.items():
            total += ma * mb * cfg.intersection(a, b)
    return total


def class_pairing(cfg: SurfaceConfig, curve: str, ruling: str) -> int:
    """Intersection of a final curve with a general member of a ruling
    ("v" or "h") of P1xP1, or with a general line on P2 ("l")."""
    c = cfg.curves[curve]
    v, h = c.base_class
    if ruling == "v":
        return h
    return v  # the "h" ruling, or the degree on P2


def boundary_curves(cfg: SurfaceConfig) -> list[str]:
    return sorted(n for n, c in cfg.curves.items() if c.self_int <= -2)


def minus_one_curves(cfg: SurfaceConfig) -> list[str]:
    return sorted(n for n, c in cfg.curves.items() if c.self_int == -1)


@dataclass(frozen=True)
class FiberData:
    components: dict  # curve -> multiplicity
    sigma: int
    shape: tuple  # weights of the reduced fiber as a chain, if a chain
    mu: int | None  # multiplicity of the unique (-1)-curve when sigma == 1


def analyze_fiber(cfg: SurfaceConfig, fibration: Fibration, base_fiber: str) -> FiberData:
    vec = fiber_vector(cfg, fibration, base_fiber)
    if pairing(cfg, vec, vec) != 0:
        raise SimulationError(f"fiber over {base_fiber} has nonzero square")
    minus_ones = [c for c in vec if cfg.curves[c].self_int == -1]
    sigma = len(minus_ones)
    mu = vec[minus_ones[0]] if sigma == 1 else None
    shape = _chain_shape({c: cfg.curves[c].self_int for c in vec}, cfg.intersection)
    return FiberData(vec, sigma, shape, mu)


def _chain_shape(self_ints: dict, intersection) -> tuple:
    """Weights of the curves ``self_ints`` ordered along the chain they
    form, read from the tip met first in the dict's order; () if they do
    not form one chain."""
    names = list(self_ints)
    try:
        layout = walk_components(_adjacency(names, intersection))
    except ValueError:
        return ()
    if len(layout) != 1 or layout[0][0] != "chain":
        return ()
    return tuple(-self_ints[names[i]] for i in layout[0][1])


def _adjacency(names: list, intersection) -> list[list[int]]:
    """Neighbor lists over the positions in ``names`` of the curves that
    meet."""
    return [
        [j for j, b in enumerate(names) if j != i and intersection(a, b) > 0]
        for i, a in enumerate(names)
    ]


def sigma_identity_check(cfg: SurfaceConfig, fibration: Fibration) -> bool:
    """#D_hor - 1 = sum over degenerate fibers of (sigma(F) - 1)."""
    total = 0
    for bf in fibration.base_fibers:
        data = analyze_fiber(cfg, fibration, bf)
        total += data.sigma - 1
    return len(fibration.horizontal) - 1 == total


def section_degrees(cfg: SurfaceConfig, fibration: Fibration) -> dict:
    degs = {}
    vec = fiber_vector(cfg, fibration, fibration.base_fibers[0])
    for h in fibration.horizontal:
        degs[h] = pairing(cfg, {h: 1}, vec)
    return degs


# -- width-2 bookkeeping -----------------------------------------------------


def width2_counters(cfg: SurfaceConfig, fibration: Fibration):
    """k_i and l_i: blowups on the transforms of the 2-section (the conic)
    and of the 1-section (the exceptional over the common point)."""
    h1, h2 = None, None
    for h, deg in section_degrees(cfg, fibration).items():
        if deg == 1:
            h1 = h
        elif deg == 2:
            h2 = h
    if h1 is None or h2 is None:
        raise SimulationError("width-2 fibration needs a 1- and a 2-section")
    k = {bf: 0 for bf in fibration.base_fibers}
    l = {bf: 0 for bf in fibration.base_fibers}
    vecs = [(bf, fiber_vector(cfg, fibration, bf)) for bf in fibration.base_fibers]
    for step in cfg.history:
        # a blowup belongs to the fiber whose total transform contains a
        # branch curve of its center
        fiber = next(
            (bf for bf, vec in vecs if any(vec.get(c, 0) > 0 for c in step.branch_mults)), None
        )
        if fiber is None:
            continue
        if h2 in step.branch_mults:
            k[fiber] += 1
        if h1 in step.branch_mults:
            l[fiber] += 1
    return h1, h2, k, l


def width2_bookkeeping_check(cfg: SurfaceConfig, fibration: Fibration) -> bool:
    """H2^2 = 4 - sum k_i and H1^2 = H1.H2 - 1 - l_1, on a completed
    model (sum k_i >= 6 and l_1 >= 1; incomplete replays return False)."""
    try:
        h1, h2, k, l = width2_counters(cfg, fibration)
    except SimulationError:
        return False
    l1 = sum(l.values())
    if sum(k.values()) < 6 or l1 < 1:
        return False
    if cfg.curves[h2].self_int != 4 - sum(k.values()):
        return False
    return cfg.curves[h1].self_int == cfg.intersection(h1, h2) - 1 - l1


# -- width-1 bookkeeping -----------------------------------------------------


def _contract_graph(nodes: dict, inter: dict, name: str):
    """Contract a (-1)-node of a small intersection graph in place."""
    for a in list(nodes):
        if a == name:
            continue
        nodes[a] += inter.get(frozenset((a, name)), 0) ** 2
    for a in list(nodes):
        for b in list(nodes):
            if a >= b or a == name or b == name:
                continue
            key = frozenset((a, b))
            gain = inter.get(frozenset((a, name)), 0) * inter.get(frozenset((b, name)), 0)
            if gain:
                inter[key] = inter.get(key, 0) + gain
    del nodes[name]
    for key in [k for k in inter if name in k]:
        del inter[key]


def _stabilize(cfg: SurfaceConfig, fibration: Fibration, base_fiber: str):
    """Stable form of a degenerate fiber: (-1)-components are contracted
    while they meet the rest of the boundary-plus-section image at most
    twice; the survivors are the stable degenerate-fiber forms.

    Returns (shape, node, mu, gain): the weight chain of the stable
    reduced fiber, whether the section meets it twice at one point, the
    multiplicity of the surviving (-1)-curve, and the gain of the
    section's self-intersection."""
    data = analyze_fiber(cfg, fibration, base_fiber)
    h = fibration.horizontal[0]
    nodes = {c: cfg.curves[c].self_int for c in data.components}
    nodes[h] = cfg.curves[h].self_int
    inter = {}
    names = list(nodes)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            v = cfg.intersection(a, b)
            if v:
                inter[frozenset((a, b))] = v
    mults = dict(data.components)
    gain = 0
    while True:
        candidates = [
            c
            for c in nodes
            if c != h
            and nodes[c] == -1
            and sum(inter.get(frozenset((c, o)), 0) for o in nodes if o != c) <= 2
        ]
        if not candidates:
            break
        c = sorted(candidates)[0]
        gain += inter.get(frozenset((h, c)), 0) ** 2
        _contract_graph(nodes, inter, c)
        del mults[c]
    fiber_nodes = [c for c in nodes if c != h]
    shape = _chain_shape(
        {c: nodes[c] for c in fiber_nodes}, lambda a, b: inter.get(frozenset((a, b)), 0)
    )
    survivors_minus_one = [c for c in fiber_nodes if nodes[c] == -1]
    node = any(inter.get(frozenset((h, c)), 0) >= 2 for c in fiber_nodes)
    partners: list = []
    for pt in cfg.points.values():
        if h in pt.branches:
            others = [b for b in pt.branches if b != h and b in fiber_nodes]
            if len(others) >= 2:
                node = True
                partners = others
    if len(survivors_minus_one) != 1:
        return shape, node, None, gain
    l_hat = survivors_minus_one[0]
    # local contribution of the fiber to the section at the point on the
    # surviving (-1)-curve: the mu of the fiber-structure classification
    if partners and l_hat in partners:
        mu = sum(mults[c] for c in partners)
    else:
        mu = mults[l_hat] * inter.get(frozenset((h, l_hat)), 0)
    return shape, node, mu, gain


def width1_bookkeeping_check(cfg: SurfaceConfig, fibration: Fibration) -> bool:
    """The height-1 identity: hat-H^2 = 6 - 2 nu_2 - 3 nu_3.

    hat-H is the section after the stabilizing contractions; nu_2/nu_3
    count stable fibers of the two stable shapes.  The left side is
    computed from the replayed self-intersection and the actual
    contractions, the right side from the shape classification, so the
    two sides are independent; the per-fiber multiplicity of the
    surviving (-1)-curve cross-checks the classification.
    """
    h = fibration.horizontal[0]
    nu2 = nu3 = 0
    touches = 0
    for bf in fibration.base_fibers:
        shape, node, mu, gain = _stabilize(cfg, fibration, bf)
        touches += gain
        if sorted(shape) == [1, 2, 2]:
            nu2 += 1
            expected_mu = 3 if node else 2
        elif sorted(shape) == [1, 2, 2, 3]:
            nu3 += 1
            expected_mu = 3
        else:
            return False
        if mu != expected_mu:
            return False
    hat_h_sq = cfg.curves[h].self_int + touches
    return hat_h_sq == 6 - 2 * nu2 - 3 * nu3


# ---------------------------------------------------------------------------
# Extraction of decorated types.


def _vertical_labels(cfg: SurfaceConfig, fibration: Fibration) -> dict:
    """The vertical (-1)-curves (not horizontal, zero on the fiber
    class), each with its label: 1, 2, ... in order of name."""
    fiber_vec = fiber_vector(cfg, fibration, fibration.base_fibers[0])
    verticals = [
        c
        for c in minus_one_curves(cfg)
        if c not in fibration.horizontal and pairing(cfg, {c: 1}, fiber_vec) == 0
    ]
    return {name: i + 1 for i, name in enumerate(verticals)}


def extract_decorated_type(cfg: SurfaceConfig, fibration: Fibration) -> DecoratedType:
    """Boundary graph with fibration decorations from a replayed plan."""
    unknown = [c for c in (*fibration.horizontal, *fibration.base_fibers) if c not in cfg.curves]
    if unknown:
        raise SimulationError(f"the fibration names undeclared curves {unknown}")
    boundary = boundary_curves(cfg)
    labels = _vertical_labels(cfg, fibration)
    degs = section_degrees(cfg, fibration)
    for a in boundary:
        for b in boundary:
            if a < b and cfg.intersection(a, b) > 1:
                raise SimulationError(f"boundary not snc: {a}.{b} > 1")
    entry_for = {}
    for c in boundary:
        entry_labels = []
        for v, label in labels.items():
            entry_labels.extend([label] * cfg.intersection(c, v))
        horizontal = c in fibration.horizontal
        two_section = horizontal and degs.get(c) == 2
        entry_for[c] = Entry(
            -cfg.curves[c].self_int, horizontal, two_section, tuple(entry_labels)
        )

    try:
        layout = walk_components(_adjacency(boundary, cfg.intersection))
    except ValueError as err:
        raise SimulationError(str(err)) from None
    free = frozenset(
        label
        for v, label in labels.items()
        if not any(cfg.intersection(v, c) for c in boundary)
    )
    return DecoratedType.from_walk(layout, [entry_for[c] for c in boundary],
                                   width=fibration.width, free_labels=free)


def node_labels(cfg: SurfaceConfig, fibration: Fibration) -> frozenset:
    """Labels of vertical (-1)-curves passing through a crossing of two
    boundary components (the curves excluded from the check divisor)."""
    boundary = set(boundary_curves(cfg))
    labels = _vertical_labels(cfg, fibration)
    out = set()
    for pt in cfg.points.values():
        on_boundary = [b for b in pt.branches if b in boundary]
        through = [labels[v] for v in pt.branches if v in labels]
        if len(on_boundary) >= 2:
            out.update(through)
    return frozenset(out)
