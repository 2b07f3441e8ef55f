"""Certificate assembly against the reference in ``assembly_oracle``.

The top-down ``expand_steps`` must give the same generator-level steps as
the bottom-up expansion, with the same coefficient types; the term-dict
``_quads_to_summands`` and ``minimize_certificate`` must give the same
summands in the same order, and the same ``integral`` flag, as the
``Polynomial``-level path.
"""

import collections
import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.certify import (_merge, _quads_to_summands, certificate_to_dict,
                            make_certificate, minimize_certificate, Summand)
from opcert.freealg import FreeAlgebra
from opcert.rewrite import (CompletionEngine, CompletionLimits, TraceStep,
                            _Element)

from assembly_oracle import (oracle_expand_steps, oracle_minimize_certificate,
                             oracle_quads_to_summands)

# runs are bounded by work, not by the clock
LIMITS = CompletionLimits(max_degree=5, max_iterations=25, max_basis_size=40,
                          time_budget=3600)
COEFFS = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _algebra(letters):
    alg = FreeAlgebra()
    for n in "abc"[:letters]:
        alg.add(n)
    return alg


def typed_steps(quads):
    return collections.Counter((type(c), c, l, i, r) for c, l, i, r in quads)


def typed_terms(p):
    return {w: (type(c), c) for w, c in p._terms.items()}


def typed_summands(summands):
    return [(typed_terms(s.left), s.index, typed_terms(s.right))
            for s in summands]


@st.composite
def systems(draw):
    """Generators, claims in their ideal, and extra element-level steps."""
    letters = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, letters - 1), max_size=3).map(tuple)
    poly = st.dictionaries(word, st.sampled_from(COEFFS),
                           min_size=1, max_size=3)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    multiple = st.tuples(st.sampled_from([-2, -1, 1, 2]), word,
                         st.integers(0, len(gens) - 1), word)
    claims = draw(st.lists(st.lists(multiple, min_size=1, max_size=3),
                           min_size=1, max_size=2))
    # (coeff, left, element position, right, also add the negated step)
    extra = draw(st.lists(st.tuples(st.sampled_from(COEFFS), word,
                                    st.integers(0, 10 ** 6), word,
                                    st.booleans()), max_size=6))
    return letters, gens, claims, extra


def run_system(case):
    letters, gens, claims, extra = case
    alg = _algebra(letters)
    gens = [alg.poly(t) for t in gens]
    members = []
    for multiples in claims:
        member = alg.zero()
        for c, l, i, r in multiples:
            member = member + alg.monomial(l, c) * gens[i] * alg.monomial(r)
        members.append(member)
    engine = CompletionEngine(list(enumerate(gens)), alg.default_order(),
                              LIMITS)
    pending = [(dict(m._terms), []) for m in members]
    engine.run(pending)
    steps = []
    for c, l, k, r, negated in extra:
        steps.append(TraceStep(c, l, k % len(engine.elements), r))
        if negated:
            steps.append(TraceStep(-c, l, k % len(engine.elements), r))
    return alg, gens, members, engine, pending, steps


class ReadCounter(list):
    """Engine elements that count how often each is looked up."""

    def __init__(self, elements):
        super().__init__(elements)
        self.reads = collections.Counter()

    def __getitem__(self, k):
        self.reads[k] += 1
        return super().__getitem__(k)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_expand_steps_matches_bottom_up(case):
    _, _, _, engine, pending, steps = run_system(case)
    cases = [steps] + [claim_steps for _, claim_steps in pending]
    cases += [[TraceStep(1, (), k, ())] for k in engine.active_indices()]
    elements = engine.elements
    for given_steps in cases:
        engine.elements = ReadCounter(elements)
        quads = engine.expand_steps(given_steps)
        # each element is expanded once, in all its contexts together
        assert max(engine.elements.reads.values(), default=0) <= 1
        engine.elements = elements
        assert typed_steps(quads) == \
            typed_steps(oracle_expand_steps(engine, given_steps))


@settings(max_examples=60, deadline=None)
@given(systems())
def test_summands_match_polynomial_path(case):
    alg, gens, members, engine, pending, _ = run_system(case)
    order = alg.default_order()
    names = [f"F{i + 1}" for i in range(len(gens))]
    for member, (terms, steps) in zip(members, pending):
        if terms:
            continue  # not proven within the limits
        new = _quads_to_summands(alg, engine.expand_steps(steps), order)
        old = oracle_quads_to_summands(
            alg, oracle_expand_steps(engine, steps), order)
        assert typed_summands(new) == typed_summands(old)
        cert = make_certificate(member, gens, names, new)
        small = minimize_certificate(cert)
        reference = oracle_minimize_certificate(cert)
        assert typed_summands(small.summands) == \
            typed_summands(reference.summands)
        assert small.integral == reference.integral
        assert certificate_to_dict(small) == certificate_to_dict(reference)
        assert minimize_certificate(small) == small


@st.composite
def certificates(draw):
    """Certificates whose summands draw on small pools of cofactors, so
    that merges, cancellations and sign flips are frequent."""
    alg = _algebra(2)
    word = st.lists(st.integers(0, 1), max_size=2).map(tuple)
    poly = st.dictionaries(word, st.sampled_from(COEFFS), max_size=2) \
        .map(alg.poly)
    pool = draw(st.lists(poly, min_size=1, max_size=4))
    side = st.tuples(st.sampled_from(pool), st.sampled_from([1, -1])) \
        .map(lambda t: t[1] * t[0])
    summands = draw(st.lists(st.builds(Summand, side, st.integers(0, 1), side),
                             max_size=8))
    gens = [alg.parse("a·b − b"), alg.parse("b·b·a")]
    return make_certificate(alg.parse("a"), gens, ["F1", "F2"], summands)


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_minimize_matches_polynomial_minimize(cert):
    given_summands = typed_summands(cert.summands)
    small = minimize_certificate(cert)
    assert typed_summands(cert.summands) == given_summands  # left untouched
    reference = oracle_minimize_certificate(cert)
    assert typed_summands(small.summands) == typed_summands(reference.summands)
    assert small.integral == reference.integral
    assert minimize_certificate(small) == small


def test_contexts_meeting_at_a_shared_element_cancel():
    alg = _algebra(2)
    a, b = (alg.indeterminate(n).iid for n in "ab")
    engine = CompletionEngine([(0, alg.parse("a·b − b"))],
                              alg.default_order(), LIMITS)
    # elements 1 and 2 both refer to element 0, the generator itself
    engine.elements.append(_Element((), (), ((1, (a,), 0, ()),
                                             (2, (), 0, (b,)))))
    engine.elements.append(_Element((), (), ((1, (), 0, ()),)))
    # element 1 passes a·e0 to element 0, element 2 passes −a·e0: they cancel
    steps = [TraceStep(1, (), 1, ()), TraceStep(-1, (a,), 2, ())]
    expected = [TraceStep(2, (), 0, (b,))]
    assert engine.expand_steps(steps) == expected
    assert oracle_expand_steps(engine, steps) == expected
    # with nothing left over, every context cancels
    assert engine.expand_steps(steps + [TraceStep(-1, (), 0, (b,)),
                                        TraceStep(-1, (), 0, (b,))]) == []


def test_contexts_shifted_onto_one_pair_merge():
    alg = _algebra(2)
    a, b = (alg.indeterminate(n).iid for n in "ab")
    engine = CompletionEngine([(0, alg.parse("a·b − b"))],
                              alg.default_order(), LIMITS)
    # elements 1 and 2 refer to element 0 with both sides non-empty
    engine.elements.append(_Element((), (), ((1, (b,), 0, (a,)),)))
    engine.elements.append(_Element((), (), ((1, (a, b), 0, (a, b)),)))
    # element 1 in context (a, b) and element 2 in context ((), ()) both
    # pass the pair (a·b, a·b) to element 0
    for c2, expected in ((Fraction(3, 2), [TraceStep(2, (a, b), 0, (a, b))]),
                           (Fraction(-1, 2), [])):
        steps = [TraceStep(Fraction(1, 2), (a,), 1, (b,)),
                 TraceStep(c2, (), 2, ())]
        quads = engine.expand_steps(steps)
        assert typed_steps(quads) == typed_steps(expected)
        assert typed_steps(oracle_expand_steps(engine, steps)) == \
            typed_steps(expected)


@pytest.mark.parametrize("side", [0, 2])
def test_merge_copies_a_block_only_when_another_joins_it(side):
    def block(shared, index, summed):
        b = [None, index, None]
        b[side], b[2 - side] = shared, summed
        return tuple(b)

    first = block({(0,): 1}, 0, {(1,): 1})
    alone = block({(1,): 1}, 1, {(0,): 1})
    second = block({(0,): 1}, 0, {(1,): 2, (0,): 1})
    blocks = [first, alone, second]
    before = copy.deepcopy(blocks)
    merged, kept = _merge(blocks, side)
    assert merged == block({(0,): 1}, 0, {(1,): 3, (0,): 1})
    assert all(merged[2 - side] is not b[2 - side] for b in blocks)
    assert blocks == before
    assert kept is alone
