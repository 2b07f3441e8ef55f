"""The engine's worklist ``interreduce`` against the restarted sweep.

``obstructions.restart_interreduce`` sweeps the active elements from the
lowest index and restarts after every change, so each change reduces the
lowest active element that the other leads reduce.  The engine's
``interreduce`` keeps a heap of the elements not yet known to be
irreducible and re-examines an irreducible one only when a lead added
later is a factor of one of its words.  Both must make the same changes in
the same order: the same elements (terms and steps), the same active set,
requeue and tripped limit.  The worklist must also do less work: each
element that nothing reduces is tried once.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.certify import certify
from opcert.freealg import DegLexOrder, FreeAlgebra
from opcert.rewrite import COMPLETE, CompletionEngine, CompletionLimits
from opcert.statements import load_problem, translate

from conftest import FIXTURES
from match_oracle import trie_contents
from obstructions import restart_interreduce

LIMITS = CompletionLimits(time_budget=600)


def state(engine):
    return ([(e.terms, e.steps) for e in engine.elements],
            engine.active_indices(), engine._requeue, engine.tripped_limit,
            trie_contents(engine.reducer.trie))


def assert_lockstep(gens, order):
    worklist, restart = (CompletionEngine(list(enumerate(gens)), order, LIMITS)
                         for _ in range(2))
    worklist.interreduce()
    restart_interreduce(restart)
    assert state(worklist) == state(restart)
    return worklist


def count_normal_forms(engine, interreduce) -> int:
    """The normal forms ``interreduce(engine)`` runs."""
    calls = 0
    inner = engine.reducer.normal_form

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    engine.reducer.normal_form = counting
    interreduce(engine)
    return calls


PROBLEMS = sorted(p.stem for p in FIXTURES.glob("*.prob"))


def test_every_problem_is_checked():
    assert len(PROBLEMS) == 13


@pytest.mark.parametrize("ranking", ["declared", "reversed"])
@pytest.mark.parametrize("name", PROBLEMS)
def test_worklist_matches_restart_on_fixtures(name, ranking):
    trans = translate(load_problem(FIXTURES / f"{name}.prob"))
    alg = trans.algebra
    order = alg.default_order() if ranking == "declared" else \
        DegLexOrder.from_names(alg, reversed(alg.names))
    assert_lockstep(trans.assumptions, order)


@st.composite
def generator_sets(draw):
    letters = draw(st.integers(2, 3))
    alg = FreeAlgebra()
    for n in "abc"[:letters]:
        alg.add(n)
    word = st.lists(st.integers(0, letters - 1), max_size=4).map(tuple)
    poly = st.dictionaries(word, st.integers(-2, 2), min_size=1, max_size=3)
    return alg, [alg.poly(t) for t in draw(st.lists(poly, max_size=8))]


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_worklist_matches_restart(case):
    alg, gens = case
    assert_lockstep(gens, alg.default_order())


def _letters(n):
    alg = FreeAlgebra()
    return alg, [alg.parse(alg.add(f"x{k}").name) for k in range(n)]


def test_irreducible_generators_take_one_normal_form_each():
    # no word of x_k·x_k − x_k holds another generator's lead
    alg, x = _letters(5)
    gens = [x[k] * x[k] - x[k] for k in range(5)]
    engine = CompletionEngine(list(enumerate(gens)), alg.default_order(),
                              LIMITS)
    assert count_normal_forms(engine, CompletionEngine.interreduce) == 5
    assert engine.active_indices() == [0, 1, 2, 3, 4]


def test_a_change_queues_only_what_it_can_reduce():
    # x_(k+1) − x_k reduces to x_(k+1) − x_0 by the element that the change
    # before made, and no element found irreducible holds the new lead: the
    # worklist tries each generator once and each new element once, where
    # restarting sweeps the irreducible x_1 − x_0 again after every change
    m = 6
    alg, x = _letters(m + 1)
    gens = [x[k + 1] - x[k] for k in range(m)]
    order = alg.default_order()
    engine, ref = (CompletionEngine(list(enumerate(gens)), order, LIMITS)
                   for _ in range(2))
    assert count_normal_forms(engine, CompletionEngine.interreduce) == 2 * m - 1
    assert count_normal_forms(ref, restart_interreduce) == 3 * m - 2
    assert state(engine) == state(ref)
    basis = [alg.poly(engine.decode(engine.elements[k].terms))
             for k in engine.active_indices()]
    assert basis == [x[k + 1] - x[0] for k in range(m)]


def test_a_new_lead_reopens_an_element_found_irreducible():
    # a·a·a − b·a is irreducible until c·c − b·a reduces by c − a to
    # b·a − a·a, whose new lead b·a is a word of its tail
    alg = FreeAlgebra()
    for n in "abc":
        alg.add(n)
    gens = [alg.parse(s) for s in ("c − a", "a·a·a − b·a", "c·c − b·a")]
    engine = assert_lockstep(gens, alg.default_order())
    basis = [alg.poly(engine.decode(engine.elements[k].terms))
             for k in engine.active_indices()]
    assert basis == [alg.parse(s) for s in ("c − a", "b·a − a·a",
                                            "a·a·a − a·a")]


def test_interreduce_runs_until_stable_however_many_changes():
    # a·b reduces each of the other 10,100 generators to zero: interreduce
    # makes 10,100 changes and leaves a·b alone, with nothing to complete
    alg = FreeAlgebra()
    for n in "abcd":
        alg.add(n)
    ys = [alg.add(f"y{k}").name for k in range(101)]
    gens = [alg.parse("a·b")] + [alg.parse(f"{u}·{v}·a·b")
                                 for u, v in itertools.permutations(ys, 2)]
    assert len(gens) == 10_101
    stats = certify(gens, [alg.parse("c·d")]).stats
    assert (stats.basis_size, stats.obstructions_processed,
            stats.completion_status, stats.tripped_limit) == \
        (1, 0, COMPLETE, None)


def test_interreduce_stops_at_the_deadline():
    # x1^k·x0 reduces to zero by x0 in one step, so no normal form runs
    # long enough to check the deadline itself
    alg, _ = _letters(2)
    gens = [alg.parse("·".join(["x1"] * k + ["x0"])) for k in range(50)]
    engine = CompletionEngine(list(enumerate(gens)), alg.default_order(),
                              CompletionLimits(time_budget=1e-9))
    engine.interreduce()
    assert engine.tripped_limit == "time_budget"
    assert engine.active_indices() == list(range(50))
