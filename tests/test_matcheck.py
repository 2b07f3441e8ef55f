"""Exact matrix arithmetic: Moore-Penrose inverses, realizations, examples.

The independent oracle for mp_inverse is Greville's column-recursive
algorithm, implemented here from scratch over exact rationals.
"""

import random
from fractions import Fraction

import pytest

from opcert.freealg import AlgebraError, FreeAlgebra
from opcert.matcheck import (RatMatrix, Realization, column_space_contains,
                             evaluate, example1_check, example2_check,
                             fixture_penrose_report, load_matrix_fixture,
                             mp_inverse, penrose_check)
from opcert.quiver import LabelledQuiver
from conftest import FIXTURES


def greville(A: RatMatrix) -> RatMatrix:
    """Column-recursive pseudoinverse (independent of rank factorization)."""
    m = A.rows
    cols = [A.select_columns([j]) for j in range(A.cols)]

    def dagger_vector(v):
        s = sum(x * x for row in v.data for x in row)
        if s == 0:
            return RatMatrix.zeros(1, m)
        return v.T * Fraction(1, 1) * Fraction(1, s)

    pinv = dagger_vector(cols[0])
    for k in range(1, A.cols):
        Ak_prev = A.select_columns(range(k))
        a = cols[k]
        d = pinv * a
        c = a - Ak_prev * d
        if not c.is_zero:
            b = dagger_vector(c)
        else:
            denom = 1 + sum(x * x for row in d.data for x in row)
            b = (d.T * pinv) * Fraction(1, denom)
        top = pinv - d * b
        pinv = RatMatrix(list(top.data) + list(b.data))
    return pinv


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return RatMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


# -- basics ---------------------------------------------------------------------

def test_shapes_and_exactness():
    with pytest.raises(AlgebraError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(AlgebraError):
        RatMatrix([[0.5]])
    m = RatMatrix([["1/3", 1], [0, 2]])
    assert m[0, 0] == Fraction(1, 3)


def test_transpose_is_an_involution_and_reverses_products():
    rng = random.Random(5)
    for _ in range(50):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_matrix(rng, a.cols, rng.randint(1, 4))
        assert a.T.T == a
        assert (a * b).T == b.T * a.T


def test_rank_and_inverse():
    m = RatMatrix([[1, 2], [2, 4]])
    assert m.rank == 1
    with pytest.raises(AlgebraError):
        m.inverse()
    inv = RatMatrix([[1, 2], [3, 5]]).inverse()
    assert RatMatrix([[1, 2], [3, 5]]) * inv == RatMatrix.identity(2)


def test_column_space_contains_against_mp_oracle():
    rng = random.Random(6)
    for _ in range(60):
        B = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        A = rand_matrix(rng, B.rows, rng.randint(1, 4))
        # independent oracle: col in Ran(B) iff B B+ col == col
        proj = B * mp_inverse(B)
        expect = all((proj * A.select_columns([j])) == A.select_columns([j])
                     for j in range(A.cols))
        assert column_space_contains(B, A) == expect


# -- Moore-Penrose ------------------------------------------------------------------

def test_stated_inverses_exact():
    A = RatMatrix([[-3, 2, 2], [0, 0, 0], [0, 0, 0]])
    assert mp_inverse(A) == RatMatrix([["-3/17", 0, 0], ["2/17", 0, 0],
                                       ["2/17", 0, 0]])
    C = RatMatrix([["1/3"] * 3] * 3)
    assert mp_inverse(C) == C
    B = RatMatrix([[1, 0, 1], [0, 1, 1], [1, 0, 0]])
    assert B * mp_inverse(B) == RatMatrix.identity(3)


def test_identity_and_zero():
    assert mp_inverse(RatMatrix.identity(3)) == RatMatrix.identity(3)
    z = mp_inverse(RatMatrix.zeros(2, 3))
    assert z.shape == (3, 2) and z.is_zero


def test_mp_inverse_matches_greville_oracle():
    rng = random.Random(9)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert mp_inverse(m) == greville(m)


def test_penrose_check_and_uniqueness():
    rng = random.Random(10)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        g = mp_inverse(m)
        assert all(penrose_check(m, g))
        if not m.is_zero:
            assert penrose_check(m, RatMatrix.zeros(m.cols, m.rows))[0] is False
        # uniqueness, contrapositive: perturbations break some equation
        for _ in range(3):
            e = rand_matrix(rng, m.cols, m.rows, -1, 1)
            if not e.is_zero:
                assert not all(penrose_check(m, g + e))


def test_penrose_shape_mismatch():
    with pytest.raises(AlgebraError):
        penrose_check(RatMatrix.identity(2), RatMatrix.identity(3))


# -- realizations ------------------------------------------------------------------

def make_werner_realization(alg, rng):
    """Random exact realization zeroing all Werner assumptions."""
    dims = {"v1": rng.randint(1, 3), "v2": rng.randint(1, 3)}
    dims["v3"] = dims["v2"] + rng.randint(0, 2)  # B gets full row rank
    quiver = LabelledQuiver(alg, ["v1", "v2", "v3"], [
        ("a", "v2", "v1"), ("a⁻", "v1", "v2"), ("i", "v2", "v2"),
        ("b", "v3", "v2"), ("b⁻", "v2", "v3")])
    A = rand_matrix(rng, dims["v1"], dims["v2"])
    while True:
        B = rand_matrix(rng, dims["v2"], dims["v3"])
        if B.rank == dims["v2"]:
            break
    assign = {
        alg.word("a")[0]: A,
        alg.word("a⁻")[0]: mp_inverse(A),
        alg.word("b")[0]: B,
        alg.word("b⁻")[0]: mp_inverse(B),
        alg.word("i")[0]: RatMatrix.identity(dims["v2"]),
    }
    return Realization(quiver, dims, assign)


def test_realization_zeroes_assumptions_and_claim(werner_system):
    A, F, f = werner_system
    rng = random.Random(12)
    r = make_werner_realization(A, rng)
    for g in F:
        assert evaluate(g, r).is_zero
    assert evaluate(f, r).is_zero


def test_evaluate_unit_is_identity(werner_system):
    A, F, _ = werner_system
    r = make_werner_realization(A, random.Random(1))
    out = evaluate(A.one(), r, signature=("v2", "v2"))
    assert out == RatMatrix.identity(r.dims["v2"])


def test_evaluate_requires_compatibility(werner_system):
    A, F, _ = werner_system
    r = make_werner_realization(A, random.Random(2))
    with pytest.raises(AlgebraError):
        evaluate(A.parse("a + b"), r)


def test_realization_shape_validation(werner_algebra):
    A = werner_algebra
    quiver = LabelledQuiver(A, ["u", "v"], [("a", "u", "v")])
    with pytest.raises(AlgebraError):
        Realization(quiver, {"u": 2, "v": 3},
                    {A.word("a")[0]: RatMatrix.zeros(2, 2)})


# -- the example suites --------------------------------------------------------------

def test_example1_suite_passes():
    rep = example1_check()
    assert rep.ok, [lbl for lbl, ok in rep.checks if not ok]
    labels = [lbl for lbl, _ in rep.checks]
    assert "PQ = 0" in labels


def test_example2_suite_passes():
    rep = example2_check()
    assert rep.ok, [lbl for lbl, ok in rep.checks if not ok]


def test_matrix_fixture_files():
    mats = load_matrix_fixture(FIXTURES / "example2_1.mat")
    assert mats["A"].shape == (3, 3)
    rep = fixture_penrose_report(FIXTURES / "example2_1.mat")
    assert rep.ok
    rep2 = fixture_penrose_report(FIXTURES / "example2_2.mat")
    assert rep2.ok
