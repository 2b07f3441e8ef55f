"""Reduction, obstruction enumeration, S-polynomials, and completion.

Expected values follow the oracle-first rule: obstructions are checked
against a brute-force placement enumeration, S-polynomials against explicit
hand expansions, and every trace against exact re-expansion through plain
ring arithmetic.
"""

import collections
import random
import time

import pytest

from opcert import rewrite
from opcert.freealg import AlgebraError, FreeAlgebra
from opcert.rewrite import (BUDGET_EXHAUSTED, COMPLETE, CompletionEngine,
                            CompletionLimits, reduce)
from opcert.statements import certify_claims, load_problem, translate

from conftest import FIXTURES
from obstructions import (Obstruction, complete, find_obstructions,
                          lead_word, s_polynomial)


def expand_trace(trace, sources, alg):
    """Independent expansion of a cofactor sum with plain ring arithmetic."""
    acc = alg.zero()
    for c, l, i, r in trace:
        acc = acc + alg.monomial(l, c) * sources[i] * alg.monomial(r)
    return acc


# -- obstruction oracle -------------------------------------------------------

def oracle_obstructions(leads):
    """Brute force: slide word j over word i through every placement where the
    occupied intervals intersect; letters must agree on the intersection."""
    found = set()
    for j, v in enumerate(leads):
        for i, u in list(enumerate(leads))[: j + 1]:
            for d in range(-(len(v) - 1), len(u)):
                if i == j and d == 0:
                    continue
                lo, hi = min(0, d), max(len(u), d + len(v))
                inter = range(max(0, d), min(len(u), d + len(v)))
                if not inter:
                    continue
                if any(u[k] != v[k - d] for k in inter):
                    continue
                merged = tuple(u[k] if 0 <= k < len(u) else v[k - d]
                               for k in range(lo, hi))
                found.add(Obstruction(
                    i, j,
                    merged[: 0 - lo], merged[len(u) - lo:],
                    merged[: d - lo], merged[d + len(v) - lo:],
                    merged))
    return found


def _normalize(obs):
    # self-overlaps are mirror symmetric; canonicalize (i == j) pairs
    out = set()
    for o in obs:
        if o.i == o.j and len(o.left_i) > len(o.left_j):
            o = Obstruction(o.i, o.j, o.left_j, o.right_j,
                            o.left_i, o.right_i, o.overlap)
        out.add(o)
    return out


@pytest.mark.parametrize("exprs", [
    ["a·a⁻·a − a"],
    ["a·b·a − a"],
    ["a·a⁻·a − a", "a⁻·a·a⁻ − a⁻"],
    ["a·b − i", "b·a − i"],
    ["i·i − i", "a·i − a", "i·b − b"],
])
def test_obstructions_match_brute_force(werner_algebra, exprs):
    A = werner_algebra
    basis = [A.parse(s) for s in exprs]
    order = A.default_order()
    leads = [lead_word(g, order) for g in basis]
    assert _normalize(find_obstructions(basis)) == \
        _normalize(oracle_obstructions(leads))


def test_self_overlap_of_inner_inverse(werner_algebra):
    A = werner_algebra
    obs = find_obstructions([A.parse("a·a⁻·a − a")])
    assert len(obs) == 1
    assert obs[0].overlap == A.word("a", "a⁻", "a", "a⁻", "a")


def test_disjoint_letters_no_obstructions():
    A = FreeAlgebra()
    for n in "abcd":
        A.add(n)
    assert find_obstructions([A.parse("a·b − 1"), A.parse("c·d − 1")]) == []


def test_overlap_word_of_aba(werner_algebra):
    A = werner_algebra
    obs = find_obstructions([A.parse("a·b·a − a")])
    assert [o.overlap for o in obs] == [A.word("a", "b", "a", "b", "a")]


# -- S-polynomials ---------------------------------------------------------------

def test_s_polynomial_self_overlap_cancels(werner_algebra):
    A = werner_algebra
    g = A.parse("a·a⁻·a − a")
    (ob,) = find_obstructions([g])
    value, steps = s_polynomial(ob, [g])
    # oracle: (aa⁻a − a)·a⁻a − aa⁻·(aa⁻a − a) = 0
    left = g * A.parse("a⁻·a")
    right = A.parse("a·a⁻") * g
    assert left - right == A.zero()
    assert value.is_zero or value == left - right
    assert expand_trace(steps, [g], A) == value


def test_s_polynomial_two_element_overlap():
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    g0, g1 = A.parse("a·b − a"), A.parse("b·a − b")
    obs = [o for o in find_obstructions([g0, g1])
           if o.overlap == A.word("a", "b", "a")]
    (ob,) = obs
    value, steps = s_polynomial(ob, [g0, g1])
    # oracle: (ab − a)a − a(ba − b) = ab − a²
    assert value == g0 * A.gen("a") - A.gen("a") * g1
    assert value == A.parse("a·b − a·a")
    assert expand_trace(steps, [g0, g1], A) == value


def test_s_polynomial_lead_below_overlap(werner_system):
    A, F, _ = werner_system
    order = A.default_order()
    for ob in find_obstructions(F):
        value, _ = s_polynomial(ob, F)
        if not value.is_zero:
            assert order.key(lead_word(value, order)) < order.key(ob.overlap)


# -- reduce -------------------------------------------------------------------------

def test_reduce_self(werner_algebra):
    A = werner_algebra
    g = A.parse("a·a⁻·a − a")
    value, steps = reduce(g, [g])
    assert value.is_zero
    assert steps == ((1, (), 0, ()),)


def test_reduce_werner_claim_uses_minimal_assumptions(werner_system):
    A, F, f = werner_system
    value, steps = reduce(f, F)
    assert value.is_zero
    assert {i for _, _, i, _ in steps} <= {0, 1, 2, 5}
    assert expand_trace(steps, F, A) == f


def test_reduce_no_occurrence():
    A = FreeAlgebra()
    for n in "abcd":
        A.add(n)
    assert reduce(A.parse("a·b"), [A.parse("c·d − c")]) == (A.parse("a·b"), ())


def test_reduce_zero_basis_element_rejected(werner_algebra):
    with pytest.raises(AlgebraError):
        reduce(werner_algebra.parse("a"), [werner_algebra.zero()])


def test_reduce_tie_break_prefers_order_largest_lead(werner_algebra):
    A = werner_algebra
    # word abb⁻ib matches both ib (index 0) and b⁻i (index 1); deglex with
    # declaration ranking puts ib above b⁻i, so index 0 rewrites first, at
    # the leftmost occurrence.
    basis = [A.parse("i·b − b"), A.parse("b⁻·i − b⁻")]
    _, steps = reduce(A.parse("a·b·b⁻·i·b"), basis)
    _, left, index, _ = steps[0]
    assert index == 0
    assert left == A.word("a", "b", "b⁻")


def test_reduce_tie_break_lowest_index_on_equal_leads(werner_algebra):
    A = werner_algebra
    basis = [A.parse("a·b − a"), A.parse("a·b − b")]
    _, steps = reduce(A.parse("a·b"), basis)
    assert steps[0][2] == 0


def test_reduce_is_idempotent(werner_system):
    A, F, f = werner_system
    rng = random.Random(7)
    names = A.names
    for _ in range(25):
        words = [tuple(rng.randrange(len(names)) for _ in range(rng.randrange(5)))
                 for _ in range(4)]
        p = A.poly({w: rng.choice([-2, -1, 1, 2]) for w in words})
        once, _ = reduce(p, F)
        assert reduce(once, F) == (once, ())


# -- complete ---------------------------------------------------------------------------

def test_complete_empty():
    assert complete([]) == ([], COMPLETE)


def test_complete_idempotent_letter():
    A = FreeAlgebra()
    A.add("x")
    g = A.parse("x·x − x")
    basis, status = complete([g])
    assert status == COMPLETE
    assert [value for value, _ in basis] == [g]
    # the single self-overlap resolves: (x²−x)x − x(x²−x) = 0
    assert g * A.gen("x") - A.gen("x") * g == A.zero()


def test_complete_inner_inverse_pair(werner_algebra):
    A = werner_algebra
    gens = [A.parse("a·a⁻·a − a"), A.parse("a⁻·a·a⁻ − a⁻")]
    basis, status = complete(gens)
    assert status == COMPLETE
    for value, steps in basis:
        assert expand_trace(steps, gens, A) == value


def test_complete_traces_verify_and_spolys_resolve(werner_system):
    A, F, f = werner_system
    limits = CompletionLimits(max_degree=8, time_budget=60)
    basis, status = complete(F, limits=limits)
    assert status == COMPLETE
    values = [value for value, _ in basis]
    for value, steps in basis:
        assert expand_trace(steps, F, A) == value
    # every S-polynomial within the degree bound reduces to zero
    for ob in find_obstructions(values):
        if ob.degree <= limits.max_degree:
            sp, _ = s_polynomial(ob, values)
            assert reduce(sp, values)[0].is_zero
    # membership soundness: the claim reduces to zero and its composed
    # cofactor representation expands back to the claim exactly
    value, steps = reduce(f, values)
    assert value.is_zero
    composed = A.zero()
    for c, l, i, r in steps:
        part = A.monomial(l, c) * expand_trace(basis[i][1], F, A) * A.monomial(r)
        composed = composed + part
    assert composed == f


def test_budget_exhaustion_is_a_status_not_an_error():
    A = FreeAlgebra()
    for n in "ab":
        A.add(n)
    gens = [A.parse("a·b·a − b"), A.parse("b·a·b − a")]
    basis, status = complete(
        gens, limits=CompletionLimits(max_degree=20, max_iterations=3,
                                      time_budget=60))
    assert status == BUDGET_EXHAUSTED
    assert basis


def test_deadline_during_interreduce_stops_completion():
    # c·a³⁰⁰ − b takes 300 rewrites by a − b, past the reducer's first
    # deadline check; the half-reduced element must not enter the basis
    A = FreeAlgebra()
    for n in "bac":
        A.add(n)
    gens = [A.parse("a − b"), A.parse("c·" + "·".join(["a"] * 300) + " − b")]
    _, status = complete(gens, limits=CompletionLimits(time_budget=1e-6))
    assert status == BUDGET_EXHAUSTED
    basis, status = complete(gens, limits=CompletionLimits(time_budget=300))
    assert status == COMPLETE
    assert [value for value, _ in basis] == [
        A.parse("a − b"), A.parse("c·" + "·".join(["b"] * 300) + " − b")]


def test_a_deadline_after_another_limit_keeps_the_first_tripped():
    # run()'s final claim pass may meet the deadline after max_iterations
    # stopped the loop; the run must still name max_iterations
    A = FreeAlgebra()
    for n in "bac":
        A.add(n)
    engine = CompletionEngine([(0, A.parse("a − b"))], A.default_order(),
                              CompletionLimits(max_iterations=1))
    engine.stats.obstructions_processed = 1
    assert engine._check_limits() == "max_iterations"
    engine._deadline = time.monotonic() - 1
    # c·a³⁰⁰ takes 300 rewrites, past the reducer's first deadline check
    terms = engine.encode(A.parse("c·" + "·".join(["a"] * 300))._terms)
    assert not engine.normal_form(terms, [])
    assert engine.tripped_limit == "max_iterations"


def test_limits_must_be_positive():
    assert CompletionLimits().max_degree is None  # no cap unless one is set
    with pytest.raises(ValueError):
        CompletionLimits(max_degree=0)
    with pytest.raises(ValueError):
        CompletionLimits(time_budget=-1)


# -- invariants from the fine print ---------------------------------------------

def test_obstruction_padding_identity(werner_system):
    A, F, _ = werner_system
    order = A.default_order()
    leads = [lead_word(g, order) for g in F]
    for ob in find_obstructions(F):
        assert ob.left_i + leads[ob.i] + ob.right_i == ob.overlap
        assert ob.left_j + leads[ob.j] + ob.right_j == ob.overlap


def test_duplicate_generators_alias_to_first(werner_algebra):
    A = werner_algebra
    g = A.parse("a·a⁻·a − a")
    basis, status = complete([g, g, 2 * g])
    assert status == COMPLETE
    assert len(basis) == 1
    assert {i for _, _, i, _ in basis[0][1]} == {0}


def test_zero_generators_dropped(werner_algebra):
    A = werner_algebra
    g = A.parse("a·a⁻·a − a")
    basis, status = complete([A.zero(), g])
    assert status == COMPLETE
    assert [value for value, _ in basis] == [g]
    assert {i for _, _, i, _ in basis[0][1]} == {1}


def test_reduce_non_monic_basis(werner_algebra):
    A = werner_algebra
    basis = [A.parse("2·a·b − a")]
    value, steps = reduce(A.parse("4·a·b"), basis)
    assert value == A.parse("2·a")
    assert steps == ((2, (), 0, ()),)
    assert value + expand_trace(steps, basis, A) == A.parse("4·a·b")


def test_expand_steps_merges_and_cancels_at_generator_level():
    A = FreeAlgebra()
    a = A.add("a").iid
    A.add("b")
    g = A.parse("2·a·b − b")
    engine = CompletionEngine([(0, g)], A.default_order(), CompletionLimits())
    # element 0 is the monic a·b − 1/2·b = 1/2·g; a step's words are engine
    # words, the expansion's tuple words
    step = (1, engine.encode_word((a,)), 0, "")
    merged = engine.expand_steps([step, step])
    assert merged == [(1, (a,), 0, ())]
    assert type(merged[0][0]) is int
    assert engine.expand_steps([step, (-1, step[1], 0, "")]) == []


def test_tracer_patch_points_reach_the_engine(monkeypatch, recorded_engines):
    # perfbench's tracer patches the lead-word scans in ``vars(KERNEL)`` and
    # counts the calls the engine makes through those names
    kernel = rewrite.KERNEL
    assert {"self_overlaps", "find_retirees", "batch_overlaps"} <= \
        vars(kernel).keys()
    calls = collections.Counter()
    for name in ("self_overlaps", "find_retirees"):
        def counting(*args, _scan=vars(kernel)[name], _name=name):
            calls[_name] += 1
            return _scan(*args)
        monkeypatch.setattr(kernel, name, counting)
    trans = translate(load_problem(FIXTURES / "thm2_3_i_to_v.prob"))
    assert all(res.certified for res in certify_claims(trans).results)
    (engine,) = recorded_engines
    added = engine.stats.elements_added
    assert added > len(trans.assumptions)  # completion ran
    assert calls == {"self_overlaps": added, "find_retirees": added}
