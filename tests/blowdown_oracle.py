"""Blowdowns, the inverse of the blowups that the engine computes.

On weight chains: contracting (-1)-entries one at a time, the oracle for
``dual_chain`` and for the star-extension rule.  On replayed surfaces:
``contract_last`` undoes the final blowup of a configuration, and
``tau_shape`` reads the stabilizing contraction of one fiber.
"""

from functools import lru_cache

from delpezzo3 import simulator as sim
from delpezzo3 import star_compose

Chain = tuple[int, ...]


def smooth_point_extension(t_star: Chain, k: int) -> Chain:
    """The tail T' making [T, 1, T'] contract to a smooth point.

    ``t_star`` is the dual chain of T; the parameter k >= -1 indexes the
    family so that the contraction increases the self-intersection of a
    curve meeting the first tip of [T, 1, T'] by exactly k + 2.  k = -1
    drops the last entry of T*; k >= 0 star-composes with [(2)_{k+1}].
    """
    if k < -1:
        raise ValueError("k must be >= -1")
    t_star = tuple(t_star)
    if k == -1:
        return t_star[:-1]
    return star_compose(t_star, (2,) * (k + 1)) if t_star else (2,) * (k + 1)


def _contract_moves(w: Chain) -> list[Chain]:
    moves = []
    for i, a in enumerate(w):
        if a != 1:
            continue
        if len(w) == 1:
            moves.append((0,))
            continue
        if i == 0:
            moves.append((w[1] - 1,) + w[2:])
        elif i == len(w) - 1:
            moves.append(w[:-2] + (w[-2] - 1,))
        else:
            moves.append(w[: i - 1] + (w[i - 1] - 1, w[i + 1] - 1) + w[i + 2 :])
    return moves


@lru_cache(maxsize=None)
def contracts_to_zero_curve(w: Chain) -> bool:
    """Whether the chain can be contracted to a single 0-curve by
    repeatedly blowing down (-1)-components."""
    if w == (0,):
        return True
    return any(contracts_to_zero_curve(m) for m in _contract_moves(w))


@lru_cache(maxsize=None)
def contract_marker_gain(state: tuple[int, Chain]) -> int | None:
    """Contract the whole chain to nothing; the marker weight sits to the
    left of the first entry.  Returns the total decrease of the marker
    weight (= increase of the marked curve's self-intersection), or None
    if no contraction order empties the chain."""
    marker, w = state
    if not w:
        return 0
    results = []
    for i, a in enumerate(w):
        if a != 1:
            continue
        if i == 0:
            rest = (w[1] - 1,) + w[2:] if len(w) > 1 else ()
            sub = contract_marker_gain((marker - 1, rest))
            if sub is not None:
                results.append(sub + 1)
        elif i == len(w) - 1:
            sub = contract_marker_gain((marker, w[:-2] + (w[-2] - 1,)))
            if sub is not None:
                results.append(sub)
        else:
            rest = w[: i - 1] + (w[i - 1] - 1, w[i + 1] - 1) + w[i + 2 :]
            sub = contract_marker_gain((marker, rest))
            if sub is not None:
                results.append(sub)
    if not results:
        return None
    # All successful orders give the same numerical outcome.
    assert len(set(results)) == 1, (state, results)
    return results[0]


def contract_last(cfg: sim.SurfaceConfig) -> sim.SurfaceConfig:
    """Contract the exceptional curve of the final step, restoring the
    previous configuration exactly."""
    if not cfg.history:
        raise sim.SimulationError("nothing to contract")
    step = cfg.history[-1]
    e_name = step.exceptional
    curves = dict(cfg.curves)
    inter = dict(cfg.inter)
    points = {
        n: p for n, p in cfg.points.items() if p.on_exceptional != e_name
    }
    branches = tuple(sorted(step.branch_mults))
    contacts = {}
    mults = dict(step.branch_mults)
    for b, m in step.branch_mults.items():
        curves[b] = curves[b].replace(self_int=curves[b].self_int + m * m)
    old_points = [p for p in cfg.points.values() if p.on_exceptional == e_name]
    for i, a in enumerate(branches):
        for b in branches[i + 1 :]:
            key = frozenset((a, b))
            drop = step.branch_mults[a] * step.branch_mults[b]
            residual = 0
            for p in old_points:
                if a in p.branches and b in p.branches:
                    residual = p.contacts.get(key, 1)
            inter[key] = inter.get(key, 0) + drop
            contact = residual + drop
            if contact:
                contacts[key] = contact
    for key in [k for k in inter if e_name in k]:
        del inter[key]
    del curves[e_name]
    points[step.point] = sim.Point(
        step.point, branches, contacts, mults,
        on_exceptional=_host_exceptional(cfg, step.point),
    )
    return sim.SurfaceConfig(cfg.base, curves, points, inter, cfg.history[:-1])


def _host_exceptional(cfg: sim.SurfaceConfig, point_name: str) -> str | None:
    if "|" in point_name:
        return point_name.split("|", 1)[0]
    return None


def tau_shape(cfg: sim.SurfaceConfig, fibration: sim.Fibration, base_fiber: str):
    """(shape, node, mu) of the stable form of one degenerate fiber,
    without the section's gain: see ``simulator._stabilize``."""
    return sim._stabilize(cfg, fibration, base_fiber)[:3]
