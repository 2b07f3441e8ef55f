"""The completion engine's indexed overlap enumeration and retirement
against full scans.

``ScanEngine`` (in ``obstructions``) finds overlap partners by the
reference scan ``rewrite.batch_overlaps`` of an element's lead against
every older active lead, its rows cut to the queue's ``(i, len(li), len(lj),
degree)`` and to the degrees being built: up to the frontier when the
element is added, one degree at each frontier step.  It counts each new
lead that holds an active lead (a containment), and its scan would see the
containment rows; the indexed engine never looks for them, and the
lockstep run shows why: only generators' leads hold an active lead, and
``interreduce`` removes each such containment before the first row is
built.  It finds the leads a new lead retires by
``rewrite.find_retirees`` over every active lead, where the indexed engine
checks only the candidates of its two-letter factor index.  Both engines
must build the same queue in the same order and retire the same leads in
the same order, so everything downstream (counters, basis, traces) is
identical too.

The indexed engine builds its prefix and suffix indexes only when the
frontier first rises, with or without ``max_degree``: the lockstep checks
that they are empty before that and equal to indexes built afresh from
then on.  A cap only stops the frontier, so no row above it is built or
counted.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.certify import certify
from opcert.freealg import FreeAlgebra
from opcert.rewrite import CompletionEngine, CompletionLimits
from opcert.statements import load_problem, translate

from conftest import FIXTURES
from match_oracle import trie_contents
from obstructions import ScanEngine


class IndexedEngine(CompletionEngine):
    """The engine under test; ``_pair_rows`` builds only the rows of its
    window of degrees."""

    def _pair_rows(self, j, lo, hi):
        rows = super()._pair_rows(j, lo, hi)
        assert all(lo < deg <= hi for *_, deg in rows)
        return rows


def rebuilt_indexes(engine):
    """The lead indexes built afresh: prefix and suffix lists of the entries
    ``len(lead) << 32 | index`` ordered by (lead length, index), digram lists
    ascending and keyed by the pair of the two letters."""
    prefixes, suffixes, digrams = {}, {}, {}
    leads = {k: engine.elements[k].lead for k in engine.active_indices()}
    for k in sorted(leads, key=lambda k: (len(leads[k]), k)):
        w = leads[k]
        entry = len(w) << 32 | k
        for n in range(1, len(w)):
            prefixes.setdefault(w[:n], []).append(entry)
            suffixes.setdefault(w[len(w) - n:], []).append(entry)
    for k, w in leads.items():
        for t in range(len(w) - 1):
            held = digrams.setdefault(tuple(w[t:t + 2]), [])
            if k not in held:
                held.append(k)
    return prefixes, suffixes, digrams


def assert_same_state(indexed, scan):
    assert indexed.queue._fifos == scan.queue._fifos
    assert len(indexed.queue) == len(scan.queue)
    assert indexed.stats == scan.stats
    assert indexed.active_indices() == scan.active_indices()
    prefixes, suffixes, digrams = rebuilt_indexes(indexed)
    assert indexed._digrams == digrams
    if indexed._frontier:
        assert (indexed._prefixes, indexed._suffixes) == (prefixes, suffixes)
        assert sorted(indexed._partners) == indexed.active_indices()
    else:  # no row is built before the first rise, so no index either
        assert indexed._prefixes == indexed._suffixes == {}
        assert indexed._partners is None
    # the reducer's trie holds exactly the active leads, one each
    for e in (indexed, scan):
        assert trie_contents(e.reducer.trie) == \
            {e.elements[k].lead: k for k in e.active_indices()}


def run_both(alg, gens, max_degree, order=None):
    """Drive both engines in lockstep as ``certify`` does, under ``order``
    or the declaration order; returns the indexed engine and the scan
    engine."""
    order = order or alg.default_order()
    limits = CompletionLimits(max_degree=max_degree, max_iterations=300,
                              max_basis_size=80, time_budget=600)
    engines = [cls(list(enumerate(gens)), order, limits)
               for cls in (IndexedEngine, ScanEngine)]
    assert_same_state(*engines)
    for e in engines:
        e.interreduce()
    assert_same_state(*engines)
    while True:
        added = [e.process() for e in engines]
        assert added[0] == added[1]
        assert_same_state(*engines)
        if not added[0]:
            break
    indexed, scan = engines
    assert [(e.terms, e.steps) for e in indexed.elements] == \
        [(e.terms, e.steps) for e in scan.elements]
    # generator-level expansion can grow exponentially along long chains
    # of elements; equal element-level steps already imply equal expansions
    if len(indexed.elements) <= 16:
        for k in indexed.active_indices():
            step = [(1, "", k, "")]
            assert indexed.expand_steps(step) == scan.expand_steps(step)
    return indexed, scan


def _algebra(letters):
    alg = FreeAlgebra()
    for n in "abc"[:letters]:
        alg.add(n)
    return alg


@st.composite
def generator_sets(draw):
    letters = draw(st.integers(2, 3))
    # the empty word allowed: a constant lead retires every active lead
    word = st.lists(st.integers(0, letters - 1), max_size=4).map(tuple)
    poly = st.dictionaries(word, st.sampled_from([-2, -1, 1, 2]),
                           min_size=1, max_size=3)
    gens = draw(st.lists(poly, min_size=1, max_size=4))
    return letters, gens, draw(st.integers(2, 7))


CASES = {
    # lead a·b is a factor of the earlier lead a·b·a, which retires
    "retire": (2, [{(0, 1, 0): 1, (1,): -1}, {(0, 1): 1, (0,): -1}], 6),
    # the earlier lead a·b sits inside the later lead a·b·a
    "containment": (2, [{(0, 1): 1, (0,): -1},
                        {(0, 1, 0): 1, (1,): -1}], 6),
    # a·a·b − b·a reduces by b·a − a in its tail during interreduce
    "interreduce": (2, [{(0, 0, 1): 1, (1, 0): -1}, {(1, 0): 1, (0,): -1}],
                    6),
    # the generator lead a·b·a·b holds the earlier leads a·b at positions
    # 0 and 2 and b·a at position 1, between them
    "containment_twice": (2, [{(0, 1): 1, (0,): -1}, {(1, 0): 1, (1,): -1},
                              {(0, 1, 0, 1): 1, (0,): -1}], 6),
    # a constant lead is a factor of every word, at every position
    "constant": (2, [{(): 1}, {(0, 1): 1, (0,): -1}], 5),
    # a·b retires a·b·a and b·a·b at once; their requeue order matters
    "several": (2, [{(0, 1, 0): 1, (1,): -1}, {(1, 0, 1): 1, (0,): -1},
                    {(0, 1): 1, (0,): -1}], 6),
    # the one-letter lead b retires the earlier lead a·b·a·b·b
    "one_letter": (2, [{(0, 1, 0, 1, 1): 1, (0,): -1}, {(1,): 1, (): -1}],
                   6),
    # a·b·a·b holds a·b twice and retires a·b·a·b·b, indexed once under a·b
    "repeated_digram": (2, [{(0, 1, 0, 1, 1): 1, (0,): -1},
                            {(0, 1, 0, 1): 1, (1,): -1}], 6),
    # no active lead holds b·b, the second letter pair of a·b·b
    "unheld_digram": (2, [{(0, 1, 0): 1, (1,): -1},
                          {(0, 1, 1): 1, (0,): -1}], 6),
    # the overlaps of a·b with c·c·c·a (through the suffix index) and with
    # b·c·c·c (through the prefix index) have exactly max_degree 5 letters,
    # those with b·b·b·b·a and b·a·a·a·a (through both) have 6
    "degree_cut": (3, [{(2, 2, 2, 0): 1, (0,): -1},
                       {(1, 1, 1, 1, 0): 1, (1,): -1},
                       {(1, 2, 2, 2): 1, (2,): -1},
                       {(1, 0, 0, 0, 0): 1, (0,): -1},
                       {(0, 1): 1, (2,): -1}], 5),
}


@pytest.mark.parametrize("name, event", [
    ("retire", "retired"),
    ("containment", "containment"),
    ("containment_twice", "containment"),
    ("interreduce", "deactivated"),
    ("constant", "containment"),
    ("several", "several_retired"),
    ("one_letter", "one_letter_retires"),
    ("repeated_digram", "repeated_digram_retires"),
    ("unheld_digram", "unheld_digram"),
    ("degree_cut", "suffix_cut_kept"),
    ("degree_cut", "suffix_cut_skipped"),
    ("degree_cut", "prefix_cut_kept"),
    ("degree_cut", "prefix_cut_skipped"),
])
def test_indexed_enumeration_covers(name, event):
    letters, gens, max_degree = CASES[name]
    alg = _algebra(letters)
    _, scan = run_both(alg, [alg.poly(t) for t in gens], max_degree)
    events = scan.events
    assert events[event] > 0
    if event == "containment":
        # no lead was inside another when the first degree was built
        assert events["lead_factors_checked"] > 0
    if name == "interreduce":
        assert events["deactivated"] > events["retired"]


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_indexed_enumeration_matches_scan(case):
    letters, gens, max_degree = case
    alg = _algebra(letters)
    run_both(alg, [alg.poly(t) for t in gens], max_degree)


# a constant lead retires every other lead, and no degree has a row
@pytest.mark.parametrize("name", sorted(set(CASES) - {"constant"}))
def test_uncapped_lockstep_through_the_first_rise(name):
    letters, gens, _ = CASES[name]
    alg = _algebra(letters)
    indexed, _ = run_both(alg, [alg.poly(t) for t in gens], None)
    assert indexed._frontier > 0


@pytest.mark.parametrize("name", sorted(p.stem
                                         for p in FIXTURES.glob("*.prob")))
def test_uncapped_lockstep_on_fixtures(name):
    trans = translate(load_problem(FIXTURES / f"{name}.prob"))
    indexed, _ = run_both(trans.algebra, trans.assumptions, None,
                          order=trans.order)
    assert indexed._frontier > 0


def test_hartwig_degree_12_counters(recorded_engines):
    """``hartwig_v_to_i`` at max_degree 12 drains its queue without
    certifying the claim; the engine counters at the stop are pinned."""
    prob = load_problem(FIXTURES / "hartwig_v_to_i.prob")
    trans = translate(prob)
    limits = dataclasses.replace(prob.options.limits, max_degree=12)
    report = certify(trans.assumptions, trans.claims, trans.order, limits,
                     assumption_names=trans.assumption_names,
                     claim_names=trans.claim_names)
    (engine,) = recorded_engines
    res = report.results[0]
    assert not res.certified
    assert res.remainder == trans.algebra.parse("m† − c†·b†·a†")
    assert report.stats.completion_status == "complete"
    assert report.stats.basis_size == 2_008
    assert engine.stats.obstructions_processed == 11_265
    assert engine.stats.elements_added == 2_214
    # the cap stopped the frontier; no row above it was built
    assert engine._frontier == 12
    assert len(engine.active_indices()) == 2_008
    assert len(engine.queue) == 0
    assert engine.retired == 190
