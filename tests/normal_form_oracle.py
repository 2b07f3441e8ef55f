"""The reducer's former normal-form loop, kept as an oracle.

``heap_normal_form`` pops the words of ``terms`` from a heap keyed by
negated rank keys.  It divides a popped word's coefficient by the lead
coefficient of the reducer that matches it and adds that reducer's full
term items, whose lead cancels the word.  ``reduce`` scales each basis
element's tail once to a monic lead, and ``_Reducer.normal_form`` keeps a
sorted word list, deletes the popped word and adds only the tail.  Both
must leave the same terms and take the same steps in the same order.  The
oracle also counts the events a test needs covered: a word cancelled by a
step's tail, such a word coming back in a later step, and a repeated entry
popped again.
"""

import collections
import heapq
import operator
from fractions import Fraction

from opcert.freealg import add_terms, normalize_coeff

from match_oracle import reduction_site


def heap_normal_form(reducer, order, terms: dict, items_of, lcs: list,
                     steps: list):
    """Reduce ``terms`` in place by ``reducer``'s leads, appending the steps;
    ``items_of(idx)`` yields all term items of reducer ``idx``, whose lead
    has the coefficient ``lcs[idx]``.  Returns the event counts."""
    events = collections.Counter()
    negrank = operator.neg if order.ranking is None else \
        tuple(-r for r in order.ranking).__getitem__

    def neg_key(w):
        return (-len(w), tuple(map(negrank, w)))

    heap = [(neg_key(w), w) for w in terms]
    heapq.heapify(heap)
    cancelled = set()
    last = None
    while heap:
        _, w = heapq.heappop(heap)
        if w == last:
            events["repeat_popped"] += 1
            continue
        if w not in terms:
            continue
        last = w
        hit = reduction_site(reducer, w)
        if hit is None:
            continue
        pos, n, idx = hit
        lc = lcs[idx]
        left = w[:pos]
        right = w[pos + n:]
        c = terms[w] if lc == 1 else normalize_coeff(Fraction(terms[w]) / lc)
        steps.append((-c, left, idx, right))
        before = set(terms)
        new = add_terms(terms, items_of(idx), -c, left, right)
        gone = before.difference(terms) - {w}
        events["cancelled"] += len(gone)
        cancelled |= gone
        events["came_back"] += len(cancelled.intersection(new))
        for nw in new:
            heapq.heappush(heap, (neg_key(nw), nw))
    return events
