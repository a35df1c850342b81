import dataclasses
from pathlib import Path

import pytest
from blowdown_oracle import contract_last, tau_shape

from delpezzo3 import fixtures, notation
from delpezzo3 import simulator as sim
from delpezzo3.boundary import render_singularity_type, singularity_type_of

PLANS = Path(__file__).resolve().parents[1] / "src" / "delpezzo3" / "data" / "plans"


def replay_steps(plan, n):
    """The configuration after the first ``n`` steps of ``plan``."""
    return sim.replay(dataclasses.replace(plan, steps=plan.steps[:n]))

EXPECTED = {
    "ex31a": (9, 1, 8, "[2]+[2,2]+[2,2,2,2,2]"),
    "ex31b": (9, 1, 8, "[2,2,2,2]+[2,2,2,2]"),
    "ex32a": (10, 0, 9, "[2]+[2,2,2,2,2,2,2]+[3]"),
    "ex32b": (9, 1, 8, "[2]+[2,2]+[2,2,2,2,2]"),
    "ex32c": (9, 1, 8, "[2]+[2]+[2,2,2]+[2,2,2]"),
    "ex32x2a": (10, 0, 9, "[2]+[2]+[2]+[2,3]+<2;[2],[2],[2]>"),
    "ex32x2b": (11, -1, 10, "[2]+[2]+[2]+[2]+[3]+[4]+<2;[2],[2],[2]>"),
    "ex32x2c": (9, 1, 8, "[2]+[2]+[2]+[2]+[2,2,2]+[3]"),
    "ex33a": (10, 0, 9, "[2]+[2,2]+[2,2,2,2,2]+[3]"),
    "ex33b": (10, 0, 9, "[2]+[2,2]+[2,2]+[2,2]+[3]+[3]"),
    "ex33c": (11, -1, 10, "[2,2]+[2,2]+[2,2]+[3]+[3]+[3]+[3]"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_replay_invariants(name):
    plan = sim.load_plan(PLANS / f"{name}.plan")
    cfg = sim.replay(plan)
    rho, k2, nd, sing = EXPECTED[name]
    assert cfg.picard_rank == rho
    assert cfg.k_squared == k2
    assert len(sim.boundary_curves(cfg)) == nd
    d = sim.extract_decorated_type(cfg, plan.fibration)
    assert render_singularity_type(singularity_type_of(d)) == sing
    assert sim.sigma_identity_check(cfg, plan.fibration)
    # rank-one models: #D = rho - 1
    assert nd == rho - 1


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fiber_numerics(name):
    plan = sim.load_plan(PLANS / f"{name}.plan")
    cfg = sim.replay(plan)
    degs = sim.section_degrees(cfg, plan.fibration)
    width = plan.fibration.width
    expected_degrees = {3: [1, 1, 1], 2: [1, 2], 1: [3]}[width]
    assert sorted(degs.values()) == sorted(expected_degrees)
    vecs = [sim.fiber_vector(cfg, plan.fibration, bf) for bf in plan.fibration.base_fibers]
    for i, v in enumerate(vecs):
        assert sim.pairing(cfg, v, v) == 0
        for w in vecs[i + 1 :]:
            assert sim.pairing(cfg, v, w) == 0


def test_fiber_structure_examples():
    plan = sim.load_plan(PLANS / "ex31a.plan")
    cfg = sim.replay(plan)
    f1 = sim.analyze_fiber(cfg, plan.fibration, "V1")
    assert f1.shape in ((2, 1, 2),)
    assert sorted(f1.components.values()) == [1, 1, 2]
    assert f1.sigma == 1
    f3 = sim.analyze_fiber(cfg, plan.fibration, "V3")
    assert f3.shape in ((1, 2, 2, 1), (1, 2, 2, 1)[::-1])
    assert sorted(f3.components.values()) == [1, 1, 1, 1]
    assert f3.sigma == 2
    f2 = sim.analyze_fiber(cfg, plan.fibration, "V2")
    assert f2.sigma == 2


def test_nondegenerate_fiber():
    plan = sim.parse_plan(
        """
base P1xP1
curve V1 selfint 0
curve V2 selfint 0
curve H1 selfint 0
point p11 on V1,H1
point p21 on V2,H1
blowup p11
fibration width=1 horizontal=H1 base-fibers=V1,V2
"""
    )
    cfg = sim.replay(plan)
    data = sim.analyze_fiber(cfg, plan.fibration, "V2")
    assert data.shape == (0,) and data.sigma == 0 and data.components == {"V2": 1}


def test_blow_up_node_and_tangency():
    cfg = sim.base_config(
        "P2",
        [("l1", 1), ("l2", 1), ("c", 4)],
        [
            {"name": "p", "on": ["l1", "l2"]},
            {"name": "q", "on": ["l2", "c"], "contact": {("l2", "c"): 2}},
            {"name": "q2", "on": ["l1", "c"]},
            {"name": "q3", "on": ["l1", "c"]},
        ],
    )
    out = sim.blow_up(cfg, "p")
    assert out.curves["l1"].self_int == 0 and out.curves["l2"].self_int == 0
    assert out.curves["E1"].self_int == -1
    assert out.intersection("l1", "E1") == 1 and out.intersection("l1", "l2") == 0
    # the lines now meet E at distinct points
    pts = [p for p in out.points.values() if p.on_exceptional == "E1"]
    assert len(pts) == 2
    out2 = sim.blow_up(out, "q")
    assert out2.curves["c"].self_int == 3 and out2.curves["l2"].self_int == -1
    shared = [
        p
        for p in out2.points.values()
        if p.on_exceptional == "E2" and set(p.branches) >= {"l2", "c"}
    ]
    assert len(shared) == 1
    assert shared[0].contacts[frozenset(("l2", "c"))] == 1


def test_blowdown_restores_configuration():
    plan = sim.load_plan(PLANS / "ex33a.plan")
    for steps in (2, 3, 6, len(plan.steps) - 1):
        cfg = replay_steps(plan, steps)
        blown = replay_steps(plan, steps + 1)
        restored = contract_last(blown)
        assert restored.curves == cfg.curves
        assert restored.inter == cfg.inter
        assert set(restored.points) == set(cfg.points)
        for name, pt in cfg.points.items():
            back = restored.points[name]
            assert back.branches == pt.branches
            assert back.contacts == pt.contacts
            assert back.mults == pt.mults


def test_extract_requires_blowups():
    plan = sim.parse_plan(
        """
base P1xP1
curve V1 selfint 0
curve H1 selfint 0
point p11 on V1,H1
fibration width=3 horizontal=H1 base-fibers=V1
"""
    )
    cfg = sim.replay(plan)
    with pytest.raises((sim.SimulationError, ValueError)):
        sim.extract_decorated_type(cfg, plan.fibration)


def test_width2_bookkeeping_values():
    plan = sim.load_plan(PLANS / "ex32a.plan")
    cfg = sim.replay(plan)
    h1, h2, k, l = sim.width2_counters(cfg, plan.fibration)
    assert sum(k.values()) == 6 and cfg.curves[h2].self_int == -2
    assert sum(l.values()) == 1
    assert sim.width2_bookkeeping_check(cfg, plan.fibration)
    # an unfinished model fails the identity
    partial = replay_steps(plan, 5)
    assert not sim.width2_bookkeeping_check(partial, plan.fibration)


def test_width1_bookkeeping_values():
    for name, nus in (("ex33a", (2, 1)), ("ex33b", (1, 2)), ("ex33c", (0, 3))):
        plan = sim.load_plan(PLANS / f"{name}.plan")
        cfg = sim.replay(plan)
        assert sim.width1_bookkeeping_check(cfg, plan.fibration)
        shapes = [tau_shape(cfg, plan.fibration, bf) for bf in plan.fibration.base_fibers]
        nu2 = sum(1 for s, _, _ in shapes if sorted(s) == [1, 2, 2])
        nu3 = sum(1 for s, _, _ in shapes if sorted(s) == [1, 2, 2, 3])
        assert (nu2, nu3) == nus


def test_exotic_pair_plans_match_fixture_rows():
    from delpezzo3.boundary import canonical_form

    rows = {r.name: r for r in fixtures.load_table("char0")}
    for name, rowname in (("x1", "w3.rivet_A"), ("x2", "w3.nu_3=1_c2")):
        plan = sim.load_plan(PLANS / f"{name}.plan")
        cfg = sim.replay(plan)
        d = sim.extract_decorated_type(cfg, plan.fibration)
        ref = notation.substitute(rows[rowname].expr, {"k": 3})
        assert canonical_form(d) == canonical_form(ref)


def test_free_blowup_centers():
    plan = sim.load_plan(PLANS / "ex31a.plan")
    cfg = replay_steps(plan, 2)
    off = sim.blow_up_free(cfg)
    assert off.curves["E3"].self_int == -1
    assert all(off.intersection("E3", c) == 0 for c in cfg.curves)
    on_curve = sim.blow_up_free(cfg, ("H1",))
    assert on_curve.curves["H1"].self_int == -1
    assert on_curve.intersection("E3", "H1") == 1


# A triangle of (-2)-curves on P1xP1 (the fiber {a}, the section {b} and
# the (1,1)-curve D, blown up free 2/2/4 times) with a (-2)-tail E8 on D:
# the boundary contains a cycle.
CYCLIC_PLAN = """
base P1xP1
curve {a} selfint 0
curve {b} selfint 0
curve D selfint 2
point p on {a},{b}
point q on {a},D
point r on {b},D
blowup free-on {a}
blowup free-on {a}
blowup free-on {b}
blowup free-on {b}
blowup free-on D
blowup free-on D
blowup free-on D
blowup free-on D
blowup free-on E8
fibration width=2 horizontal={b},D base-fibers={a}
"""


@pytest.mark.parametrize("names", [("A", "B"), ("V1", "H1")])
def test_cyclic_boundary_is_rejected(names, tmp_path):
    """The fork walk once followed the cycle: with curves A,B,D it never
    returned, with V1,H1,D it built a fork whose entries repeat."""
    from click.testing import CliRunner

    from delpezzo3.cli import main

    text = CYCLIC_PLAN.format(a=names[0], b=names[1])
    plan = sim.parse_plan(text)
    cfg = sim.replay(plan)
    assert sim.boundary_curves(cfg) == sorted([*names, "D", "E8"])
    with pytest.raises(sim.SimulationError, match="cycle"):
        sim.extract_decorated_type(cfg, plan.fibration)
    path = tmp_path / "cyclic.plan"
    path.write_text(text)
    res = CliRunner().invoke(main, ["simulate", str(path)])
    assert res.exit_code == 1
    assert res.output.startswith("simulation error:") and res.output.count("\n") == 1
    assert "Traceback" not in res.output
