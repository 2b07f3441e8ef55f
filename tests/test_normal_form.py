"""The reducer's normal form against the former heap loop, and ``_div``.

``reduce`` must leave the same terms, with the same coefficient types, and
take the same steps in the same order as
``normal_form_oracle.heap_normal_form``, on lead tables that need not be
monic or interreduced: ``reduce`` scales each basis element to a monic lead
before ``_Reducer.normal_form`` runs, and divides its steps back.  The fixed
cases pin the situations the random ones must cover: permuted rankings,
lead coefficients of −1, 2 and 2/3, duplicate leads, the empty lead, and a
word that a step cancels and a later step brings back.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.freealg import DegLexOrder, FreeAlgebra, normalize_coeff
from opcert.rewrite import TraceStep, _div, _Reducer, reduce

from normal_form_oracle import heap_normal_form

ALG = FreeAlgebra()
for _name in "abc":
    ALG.add(_name)


def typed(items):
    return [tuple(x) + (type(x[0]),) for x in items]


def both_normal_forms(ranking, basis, terms):
    """Reduce ``terms`` (word -> coeff) by ``basis`` (a list of such dicts)
    both ways; asserts they agree and returns the oracle's event counts."""
    order = DegLexOrder(ranking)
    red = _Reducer(order)
    full, lcs = [], []
    for idx, poly in enumerate(basis):
        lead = max(poly, key=order.key)
        red.set_entry(lead, idx)
        full.append(list(poly.items()))
        lcs.append(poly[lead])
    want, want_steps = dict(terms), []
    events = heap_normal_form(red, order, want, full.__getitem__, lcs,
                              want_steps)
    got = reduce(ALG.poly(terms), [ALG.poly(poly) for poly in basis], order)
    assert typed((c, w) for w, c in got.value._terms.items()) == \
        typed((c, w) for w, c in want.items())
    # reduce's trace satisfies p = value + sum(trace), the oracle's steps
    # after = before + sum(steps)
    assert typed(got.trace) == \
        typed(TraceStep(-c, l, i, r) for c, l, i, r in want_steps)
    return events


A, B, C = 0, 1, 2

CASES = {
    # b·a·a − a·a + b·b: the step by b·a cancels a·a, the step at a·b·a
    # brings it back; the lead b·a has coefficient −1
    "came_back": (None, [{(B, A): -1, (A,): 1, (A, B): 1}, {(B,): 1}],
                  {(B, A, A): 1, (B, B): 1, (A, A): -1}),
    # a ranked above b: the lead of a·a − b·b is a·a
    "ranking": ((1, 0), [{(A, A): 1, (B, B): -1}, {(A, B): 1, (B,): 2}],
                {(A, A, B): 3, (B, A, A): 1, (A, B): -1}),
    # lead coefficients 2 and 2/3: steps and terms carry fractions
    "non_monic": (None, [{(B, A): 2, (A,): 1},
                         {(A, B): Fraction(2, 3), (B,): -1}],
                  {(B, A, B): 1, (A, B, A): Fraction(1, 2), (B,): 5}),
    # equal leads: the lower index reduces
    "duplicate": (None, [{(A, B): 1, (A,): 1}, {(A, B): 3, (B,): 1}],
                  {(A, B, A, B): 1, (B, A, B): -2}),
    # the empty lead divides every word, at position 0
    "empty_lead": ((2, 0, 1), [{(A, B): 1, (C,): -1}, {(): 2}],
                   {(C, A, B): 1, (A,): 3, (): -1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_normal_form_fixed_cases_match_the_heap_loop(name):
    events = both_normal_forms(*CASES[name])
    if name == "came_back":
        assert events["came_back"] and events["repeat_popped"]


def words(letters, max_size):
    return st.lists(st.integers(0, letters - 1), max_size=max_size).map(tuple)


coeffs = st.sampled_from([1, -1, 2, -3]) | \
    st.fractions(-3, 3, max_denominator=4).filter(bool).map(normalize_coeff)


@st.composite
def reductions(draw):
    """A ranking, a lead table with non-monic, repeated and empty leads,
    and a polynomial to reduce."""
    letters = draw(st.integers(1, 3))
    ranking = draw(st.none() | st.permutations(range(letters)).map(tuple))
    # leads from a small pool, so that equal leads recur
    pool = draw(st.lists(words(letters, 3), min_size=1, max_size=3))
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        poly = draw(st.dictionaries(words(letters, 3), coeffs, max_size=3))
        poly[draw(st.sampled_from(pool))] = draw(coeffs)
        basis.append(poly)
    terms = draw(st.dictionaries(words(letters, 5), coeffs, max_size=6))
    return ranking, basis, terms


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_normal_form_matches_the_heap_loop(case):
    both_normal_forms(*case)


def test_div_fixed_cases():
    for c, lc, want in ((-6, -1, 6), (7, -1, -7), (0, -5, 0), (6, -3, -2),
                        (7, 2, Fraction(7, 2)), (-7, 2, Fraction(-7, 2)),
                        (Fraction(4, 3), Fraction(2, 3), 2),
                        (Fraction(1, 2), -1, Fraction(-1, 2))):
        got = _div(c, lc)
        assert (got, type(got)) == (want, type(want))


ints = st.integers(-60, 60)
fractions = st.fractions(-5, 5, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(ints | fractions, (ints | fractions).filter(bool))
def test_div_equals_the_fraction_quotient(c, lc):
    got = _div(c, lc)
    want = normalize_coeff(Fraction(c) / lc)
    assert (got, type(got)) == (want, type(want))
