"""The reducer's lead trie and the completion queue and its compact rows.

The reduction site that ``_Reducer.normal_form``'s trie walk picks, read
from one-word normal forms of engine words, is checked against a
brute-force listing of every lead factor of the tuple word under the
order's key, on lead tables that need not be interreduced, after entries
were deleted again.  After each entry and deletion the trie, whose
nodes are plain dicts, must hold each lead's lowest index under key
``None`` of its node, nothing but letters and leads, and no node left
empty.  The queue's padding helper, on engine words, is checked against
``rewrite``'s overlap scans of the tuple words (a self-overlap size rebuilt
into its words), and the queue's pop order against a heap keyed by
(degree, push order).  A constant lead must match the empty word: without
that match a completion whose ideal contains 1 appends its constant
element forever, so those tests stop at a small element count instead of
hanging.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.freealg import DegLexOrder, FreeAlgebra
from opcert.rewrite import (COMPLETE, CompletionEngine, CompletionLimits,
                            _paddings, _Queue, _Reducer, batch_overlaps,
                            reduce, self_overlaps, word_codec)

from match_oracle import best_match, reduction_site, trie_contents


def words(letters, max_size):
    return st.lists(st.integers(0, letters - 1), max_size=max_size).map(tuple)


@st.composite
def lead_tables(draw):
    """A ranking, a sequence of entries and deletions, and query words."""
    letters = draw(st.integers(1, 3))
    ranking = draw(st.none() | st.permutations(range(letters)).map(tuple))
    # (index, word) enters a lead, (None, word) deletes one; a repeated word
    # makes equal leads, a word extending another makes a prefix lead
    ops = draw(st.lists(st.tuples(st.none() | st.integers(0, 9),
                                  words(letters, 4)), max_size=12))
    queries = draw(st.lists(words(letters, 8), min_size=1, max_size=6))
    return ranking, ops, queries


def entered(red, ops, encode):
    """Apply ``ops`` to the reducer ``red``, each word encoded; returns the
    lead table (tuple lead word -> index, the lowest index kept), which the
    trie must hold encoded, and hold alone, after each operation."""
    table = {}
    for idx, w in ops:
        if idx is None:
            red.del_entry(encode(w))
            table.pop(w, None)
        else:
            red.set_entry(encode(w), idx)
            if w not in table or idx < table[w]:
                table[w] = idx
        assert trie_contents(red.trie) == \
            {encode(w): idx for w, idx in table.items()}
    return table


@settings(max_examples=300, deadline=None)
@given(lead_tables())
def test_reduction_site_equals_brute_force(case):
    ranking, ops, queries = case
    order = DegLexOrder(ranking)
    encode, _ = word_codec(order)
    red = _Reducer()
    table = entered(red, ops, encode)
    for w in queries + [w for _, w in ops]:
        assert reduction_site(red, encode(w)) == \
            best_match(table, w, order.key)


@settings(max_examples=300, deadline=None)
@given(words(3, 6), words(3, 6))
def test_paddings_rebuild_the_overlap_rows(u, v):
    rows = [(u,) + row[1:] for row in batch_overlaps(v, [(0, u)])]
    n = len(v)
    rows += [(v, (), v[k:], v[:n - k], (), v + v[k:])
             for k in self_overlaps(v)]
    encode, _ = word_codec(DegLexOrder(None))
    for lead, li, ri, lj, rj, overlap in rows:
        assert li + lead + ri == lj + v + rj == overlap
        assert _paddings(encode(lead), encode(v), len(li), len(lj)) == \
            tuple(map(encode, (li, ri, lj, rj)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | st.integers(0, 6), max_size=60))
def test_queue_pops_by_degree_then_push_order(ops):
    """``None`` pops a row, an int pushes a row of that degree."""
    queue, heap = _Queue(), []
    for seq, deg in enumerate(ops):
        if deg is None:
            if heap:
                assert queue.pop() == heapq.heappop(heap)[2]
        else:
            queue.push(deg, ("row", seq))
            heapq.heappush(heap, (deg, seq, ("row", seq)))
        assert len(queue) == len(heap)
        assert bool(queue) == bool(heap)
    while heap:
        assert queue.pop() == heapq.heappop(heap)[2]
    assert not queue


def _algebra():
    alg = FreeAlgebra()
    for name in "ab":
        alg.add(name)
    return alg


def test_reduce_by_one_is_zero():
    alg = _algebra()
    p = alg.parse("3·a·b − 2·b + 5")
    value, steps = reduce(p, [alg.one()])
    assert value.is_zero
    total = alg.zero()
    for c, l, i, r in steps:
        assert i == 0
        total = total + alg.monomial(l + r, c)
    assert total == p


class CappedEngine(CompletionEngine):
    """Fails at the 20th element: a constant element that no lead matches
    would be retired, requeued and appended again without end."""

    def _append(self, terms, steps, unreduced=False):
        assert len(self.elements) < 20
        return super()._append(terms, steps, unreduced)


@pytest.mark.parametrize("texts", [
    ("a − 1", "a"),
    # the constant 1 comes first; the requeued a − 2 then leaves the
    # constant −2, which must reduce by 1 and not replace it
    ("a − 1", "a − 2"),
])
def test_completion_of_an_ideal_holding_one_ends_in_one(texts):
    alg = _algebra()
    gens = [alg.parse(t) for t in texts]
    limits = CompletionLimits(max_iterations=20, time_budget=60)
    engine = CappedEngine(list(enumerate(gens)), alg.default_order(), limits)
    engine.interreduce()
    while engine.process():
        pass
    assert engine.status() == COMPLETE
    (k,) = engine.active_indices()
    assert engine.decode(engine.elements[k].terms) == {(): 1}
    # 1 = a − (a − 1), expanded back to the generators
    total = alg.zero()
    for c, l, i, r in engine.expand_steps([(1, "", k, "")]):
        total = total + alg.monomial(l, c) * gens[i] * alg.monomial(r)
    assert total == alg.one()
