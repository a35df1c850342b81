import random
import time
from pathlib import Path

import pytest
from determinant_oracle import minors_invariant_factors

from delpezzo3 import fixtures, homology
from delpezzo3 import simulator as sim

PLANS = Path(__file__).resolve().parents[1] / "src" / "delpezzo3" / "data" / "plans"


def M(rows):
    return homology.IntMatrix(tuple(map(tuple, rows)))


def test_snf_basics():
    snf = homology.smith_normal_form(M([[2, 0], [0, 3]]))
    assert snf.diagonal == (1, 6)
    assert homology.smith_normal_form(M([[0, 0], [0, 0]])).diagonal == (0, 0)
    assert homology.smith_normal_form(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).diagonal == (1, 1, 1)


def test_snf_divisibility_chain():
    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        snf = homology.smith_normal_form(M(rows))
        diag = [d for d in snf.diagonal if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_against_minors_oracle():
    rng = random.Random(6)
    for _ in range(1000):
        rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(5)]
        m = M(rows)
        assert homology.smith_normal_form(m).diagonal == minors_invariant_factors(m)


def test_snf_pinned_matrix():
    # a blow-up case: under a two-phase elimination the entries reached
    # 3185 digits by the fifth pivot
    m = M([
        [0, 0, -3, 0, 0, -2, 3, 0],
        [0, 0, 4, 0, 0, -2, 0, 2],
        [2, 0, 0, 2, -3, 0, 0, 2],
        [3, 1, 0, 1, 4, 2, 0, 1],
        [0, -4, 4, 3, -2, 0, -2, 0],
        [0, -3, -1, 0, 0, 3, -4, 0],
        [2, -2, -3, 1, -3, 0, 0, -3],
    ])
    assert homology.smith_normal_form(m).diagonal == (1, 1, 1, 1, 1, 1, 2)
    assert minors_invariant_factors(m) == (1, 1, 1, 1, 1, 1, 2)


def test_snf_against_minors_oracle_7x8():
    rng = random.Random(14)
    for _ in range(50):
        m = M([[rng.randint(-4, 4) for _ in range(8)] for _ in range(7)])
        assert homology.smith_normal_form(m).diagonal == minors_invariant_factors(m)


def test_snf_random_10x11_stays_small_and_fast():
    # the shape of the exotic pair's restriction matrices
    rng = random.Random(15)
    mats = [M([[rng.randint(-4, 4) for _ in range(11)] for _ in range(10)]) for _ in range(100)]
    start = time.perf_counter()
    forms = [homology.smith_normal_form(m) for m in mats]
    assert time.perf_counter() - start < 2.0
    for snf in forms:
        assert max(abs(x) for row in snf.u + snf.v for x in row).bit_length() < 256


def test_cokernel_examples():
    assert homology.cokernel(M([[1, 0]])).render() == "0"
    assert homology.cokernel(M([[2, 0], [0, 3]])).render() == "Z/6"
    assert homology.cokernel(M([[0, 0], [0, 0]])).render() == "Z^2"
    group = homology.cokernel(M([[2, 0], [0, 1], [0, 0]]))
    assert group.free_rank == 1 and group.torsion == (2,)


def test_fixture_matrices():
    m1 = M(fixtures.load_matrix("exotic_matrix_1"))
    m2 = M(fixtures.load_matrix("exotic_matrix_2"))
    assert (m1.rows, m1.cols) == (10, 11) and (m2.rows, m2.cols) == (10, 11)
    g1 = homology.cokernel(m1)
    g2 = homology.cokernel(m2)
    assert g1.render() == "Z/3" and (g1.torsion, g1.free_rank) == ((3,), 0)
    assert g2.render() == "0" and (g2.torsion, g2.free_rank) == ((), 0)


def test_constructed_matrices_match_fixtures():
    for name, fixture in (("x1", "exotic_matrix_1"), ("x2", "exotic_matrix_2")):
        plan = sim.load_plan(PLANS / f"{name}.plan")
        cfg = sim.replay(plan)
        built = homology.build_restriction_matrix(cfg, plan.fibration)
        assert (built.rows, built.cols) == (10, 11)
        transcribed = M(fixtures.load_matrix(fixture))
        assert homology.cokernel(built) == homology.cokernel(transcribed)


def test_restriction_matrix_requires_quadric_base():
    plan = sim.load_plan(PLANS / "ex32a.plan")
    cfg = sim.replay(plan)
    with pytest.raises(ValueError):
        homology.build_restriction_matrix(cfg, plan.fibration)


def test_bad_matrix_shapes():
    with pytest.raises(ValueError):
        M([])
    with pytest.raises(ValueError):
        M([[1, 2], [3]])
    with pytest.raises(ValueError):
        homology.IntMatrix(((),))
    with pytest.raises(ValueError):
        M([[], []])


def test_snf_checks_raise_without_assert(monkeypatch):
    # the transform and product checks are explicit, so python -O keeps them
    mat_mul = homology._mat_mul
    monkeypatch.setattr(homology, "det", lambda rows: 2)
    with pytest.raises(ArithmeticError, match="not unimodular"):
        homology.smith_normal_form(M([[2, 0], [0, 3]]))
    monkeypatch.undo()
    monkeypatch.setattr(homology, "_mat_mul",
                        lambda a, b: [[x + 1 for x in row] for row in mat_mul(a, b)])
    with pytest.raises(ArithmeticError, match="product identity"):
        homology.smith_normal_form(M([[2, 0], [0, 3]]))
