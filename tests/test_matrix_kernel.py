"""The integer matrix kernel of ``RatMatrix`` against plain ``Fraction`` lists.

The reference below is the textbook algorithm on lists of ``Fraction`` rows.
Draws stay small (at most 4 x 4, numerators and denominators at most 9) and
include zero rows and low rank, so every example runs in microseconds.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from opcert.freealg import AlgebraError
from opcert.matcheck import RatMatrix, mp_inverse, penrose_check
from test_matcheck import greville

entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
dims = st.integers(1, 4)


@st.composite
def fraction_rows(draw, rows=None, cols=None):
    """A list of ``Fraction`` rows; each row after the first may be replaced
    by a multiple (zero included) of an earlier one, for low rank."""
    rows = rows or draw(dims)
    cols = cols or draw(dims)
    data = [draw(st.lists(entries, min_size=cols, max_size=cols))
            for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(-2, 2))
            data[i] = [k * x for x in data[j]]
    return data


def ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def ref_rref(a):
    m = [list(row) for row in a]
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def same(m: RatMatrix, rows) -> bool:
    """``m`` holds exactly ``rows``, in lowest terms over a positive den."""
    assert m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    return m.data == tuple(tuple(Fraction(x) for x in row) for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_sums_and_transpose_match_fractions(data):
    r, k, c = data.draw(dims), data.draw(dims), data.draw(dims)
    a, a2 = data.draw(fraction_rows(r, k)), data.draw(fraction_rows(r, k))
    b = data.draw(fraction_rows(k, c))
    s = data.draw(entries)
    A, A2, B = RatMatrix(a), RatMatrix(a2), RatMatrix(b)
    assert same(A * B, ref_mul(a, b))
    assert same(A + A2, [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)])
    assert same(A - A, [[0] * k for _ in range(r)]) and (A - A).is_zero
    assert same(A - A2, [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)])
    assert same(A * s, [[x * s for x in row] for row in a])
    assert same(s * A, [[x * s for x in row] for row in a])
    assert same(A * 0, [[0] * k for _ in range(r)])
    assert same(-A, [[-x for x in row] for row in a])
    assert same(A.T, list(zip(*a)))
    assert same(A.hstack(A2), [p + q for p, q in zip(a, a2)])
    assert same(B.select_columns(range(c - 1, -1, -1)),
                [row[::-1] for row in b])
    assert (A * B)[r - 1, c - 1] == ref_mul(a, b)[r - 1][c - 1]


@settings(max_examples=150, deadline=None)
@given(fraction_rows())
def test_rref_rank_and_inverse_match_fractions(a):
    R, pivots = RatMatrix(a).rref()
    want, want_pivots = ref_rref(a)
    assert pivots == want_pivots and same(R, want)
    assert RatMatrix(a).rank == len(want_pivots)
    n = len(a)
    square = [row[:n] + [Fraction(0)] * (n - len(row)) for row in a]
    reduced, square_pivots = ref_rref([row + [Fraction(int(i == j))
                                              for j in range(n)]
                                       for i, row in enumerate(square)])
    if square_pivots[:n] == list(range(n)):
        inv = RatMatrix(square).inverse()
        assert same(inv, [row[n:] for row in reduced])
        assert RatMatrix(square) * inv == RatMatrix.identity(n)
    else:
        with pytest.raises(AlgebraError, match="singular"):
            RatMatrix(square).inverse()


@settings(max_examples=150, deadline=None)
@given(fraction_rows())
def test_mp_inverse_matches_greville_and_satisfies_penrose(a):
    m = RatMatrix(a)
    g = mp_inverse(m)
    assert g == greville(m)
    assert all(penrose_check(m, g))


@settings(max_examples=150, deadline=None)
@given(fraction_rows(), st.data())
def test_equal_matrices_spelt_differently_are_equal(a, data):
    def spell(x, k):
        return [x, f"{x.numerator * k}/{x.denominator * k}",
                x.numerator if x.denominator == 1 else x,
                str(x.numerator) if x.denominator == 1 else str(x)]
    spelt = [[data.draw(st.sampled_from(spell(x, data.draw(st.integers(1, 5)))))
              for x in row] for row in a]
    assert RatMatrix(spelt) == RatMatrix(a)
    assert hash(RatMatrix(spelt)) == hash(RatMatrix(a))


def test_spellings_of_one_half_and_of_one():
    assert RatMatrix([["2/4"]]) == RatMatrix([["1/2"]])
    assert hash(RatMatrix([["2/4"]])) == hash(RatMatrix([["1/2"]]))
    assert RatMatrix([[1]]) == RatMatrix([["1"]])
    assert hash(RatMatrix([[1]])) == hash(RatMatrix([["1"]]))
    assert RatMatrix([["2/4"]]) != RatMatrix([["1/4"]])
    assert RatMatrix([[1, 0]]) != RatMatrix([[1], [0]])
