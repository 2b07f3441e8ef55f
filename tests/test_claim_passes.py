"""``CompletionEngine.run`` against a loop that reduces every claim after
every element.

After each ``process`` call, ``run`` reduces only the claims that hold, in
one of their words, a lead added by that call and still active: a claim's
words are irreducible by the leads of its last pass, and retiring a lead
makes no word reducible.  ``obstructions.full_pass_run`` reduces every
pending claim after every call.  Both must leave the same claim terms (in
the same dict order), the same steps, the same basis and the same status;
``run`` must reduce no more claims than the reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.freealg import FreeAlgebra
from opcert.rewrite import CompletionEngine, CompletionLimits
from opcert.statements import load_problem, translate

from conftest import FIXTURES
from obstructions import full_pass_run

PROBLEMS = sorted(p.stem for p in FIXTURES.glob("*.prob"))


def run_with(runner, gens, claims, order, limits):
    """``runner(engine, claims)`` on a new engine; returns its outcome and
    the number of normal forms it took of claims."""
    engine = CompletionEngine(list(enumerate(gens)), order, limits)
    pairs = [(engine.encode(p._terms), []) for p in claims]
    claim_steps = {id(steps) for _, steps in pairs}
    inner = engine.normal_form
    calls = 0

    def counting(terms, steps):
        nonlocal calls
        calls += id(steps) in claim_steps
        return inner(terms, steps)

    engine.normal_form = counting
    status = runner(engine, pairs)
    return (status, engine.tripped_limit,
            [(list(terms.items()), steps) for terms, steps in pairs],
            [(e.terms, e.steps) for e in engine.elements],
            engine.active_indices(), engine.stats), calls


def assert_same_run(gens, claims, order, limits) -> tuple:
    """Check that ``run`` and the reference end alike; returns the numbers
    of claim normal forms each took."""
    got, calls = run_with(CompletionEngine.run, gens, claims, order, limits)
    want, full_calls = run_with(full_pass_run, gens, claims, order, limits)
    assert got == want
    assert calls <= full_calls
    return calls, full_calls


def test_run_matches_full_passes_on_fixtures():
    calls = full_calls = 0
    for name in PROBLEMS:
        trans = translate(load_problem(FIXTURES / f"{name}.prob"))
        counts = assert_same_run(trans.assumptions, trans.claims, trans.order,
                                 trans.options.limits)
        calls += counts[0]
        full_calls += counts[1]
    # the claims of the larger problems stay irreducible for most elements
    assert calls * 10 < full_calls


@st.composite
def claim_problems(draw):
    letters = draw(st.integers(2, 3))
    alg = FreeAlgebra()
    for n in "abc"[:letters]:
        alg.add(n)
    word = st.lists(st.integers(0, letters - 1), max_size=4).map(tuple)
    # the generators are monomials and binomials with unit coefficients:
    # completion keeps them so, and a claim reduced by them never gains a
    # term, so a draw ends within its work limits.  Wider generators can
    # grow coefficients without bound at a cap of 5 already, so that one
    # draw runs past any time budget (ROADMAP item 7)
    binomial = st.dictionaries(word, st.sampled_from([-1, 1]),
                               min_size=1, max_size=2).map(alg.poly)
    poly = st.dictionaries(word, st.sampled_from([-2, -1, 1, 2]),
                           min_size=1, max_size=3).map(alg.poly)
    gens = draw(st.lists(binomial, min_size=1, max_size=5))
    claims = draw(st.lists(poly, min_size=1, max_size=3))
    return alg, gens, claims, draw(st.integers(2, 7))


@settings(max_examples=150, deadline=None)
@given(claim_problems())
def test_run_matches_full_passes(case):
    alg, gens, claims, max_degree = case
    # bounded by work, not by the clock
    limits = CompletionLimits(max_degree=max_degree, max_iterations=150,
                              max_basis_size=40, time_budget=600)
    assert_same_run(gens, claims, alg.default_order(), limits)


def test_only_a_claim_holding_a_new_lead_is_reduced():
    """a·b − b and b·a − a overlap in a·b·a, which adds the lead a·a; the
    next element added has lead b·b.  The claim c·a·a − c·a holds a·a and
    is proven in the pass after it; b·c·c holds neither new lead and is
    reduced only in the passes before the loop and in the final one."""
    alg = FreeAlgebra()
    for n in "abc":
        alg.add(n)
    gens = [alg.parse("a·b − b"), alg.parse("b·a − a")]
    claims = [alg.parse("c·a·a − c·a"), alg.parse("b·c·c")]
    # the first pass, the pass after interreduce, the pass after a·a, the
    # pass after b·b and the final pass
    assert assert_same_run(
        gens, claims, alg.default_order(),
        CompletionLimits(max_iterations=50, time_budget=600)) == \
        (2 + 2 + 1 + 0 + 1, 2 + 2 + 2 + 1 + 1)
