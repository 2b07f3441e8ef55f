"""Two-sided reduction and bounded completion in the free algebra.

``reduce`` computes full normal forms with cofactor tracking, ``complete``
runs an obstruction-driven completion loop (noncommutative Buchberger) under
explicit budgets, and both keep exact bookkeeping so that every result can be
expanded back into a two-sided combination of the inputs.

Trace conventions:

* ``reduce(p, basis)``:  p = value + sum(c * l . basis[i] . r)
* ``complete`` basis elements:  value = sum(c * l . generators[i] . r)
* internally, ``_Reducer.normal_form`` appends the steps it adds:
  after = before + sum(steps).  An engine element therefore satisfies
  terms = sum(steps), and ``reduce`` negates its steps once.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import _kernel_py
from .freealg import (AlgebraError, DegLexOrder, Polynomial, Word,
                      add_terms, normalize_coeff)


class TraceStep(NamedTuple):
    """One summand ``coeff * left . F[index] . right`` of a cofactor sum."""
    coeff: object  # int | Fraction
    left: Word
    index: int
    right: Word


@dataclass(frozen=True)
class TracedPolynomial:
    """A polynomial together with a two-sided cofactor combination.

    ``trace`` holds ``(c, l, i, r)`` steps; which polynomials ``i`` indexes
    and which identity the steps satisfy (see module docstring) depend on
    the operation that produced this value.
    """

    value: Polynomial
    trace: tuple

    def trace_triples(self) -> list:
        """Trace as (left Polynomial, index, right Polynomial) triples."""
        alg = self.value.alg
        return [(alg.monomial(l, c), i, alg.monomial(r)) for c, l, i, r in self.trace]


@dataclass(frozen=True)
class CompletionLimits:
    """Budgets for the (generally non-terminating) completion loop."""

    max_degree: int = 12
    max_iterations: int = 50_000
    max_basis_size: int = 10_000
    time_budget: float = 300.0

    def __post_init__(self):
        if min(self.max_degree, self.max_iterations, self.max_basis_size) <= 0 \
                or not self.time_budget > 0:  # NaN would disable the deadline
            raise AlgebraError("completion limits must be positive")


COMPLETE = "complete"
BUDGET_EXHAUSTED = "budget_exhausted"
# ``certify`` only: every claim was certified before the queue drained
STOPPED_EARLY = "stopped_early"


def _div(c, lc):
    if lc == 1:
        return c
    return normalize_coeff(Fraction(c) / lc)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

class _Reducer:
    """Heap-driven full normal form against a maintained lead table.

    Tie-break: rewrite the order-largest reducible monomial first; within it,
    the leftmost occurrence of the order-largest matching leading word; equal
    leading words resolve to the lowest index.
    """

    def __init__(self, order: DegLexOrder):
        self.key = order.key
        self.leadmap: dict = {}
        self._len_counts: dict = {}
        self.lengths: tuple = ()  # the distinct lead lengths, descending

    def set_entry(self, w: Word, idx: int, lc) -> None:
        cur = self.leadmap.get(w)
        if cur is None:
            n = self._len_counts.get(len(w), 0)
            self._len_counts[len(w)] = n + 1
            if not n:
                self.lengths = tuple(sorted(self._len_counts, reverse=True))
        elif idx >= cur[0]:
            return
        self.leadmap[w] = (idx, lc, self.key(w)[1])

    def del_entry(self, w: Word) -> None:
        if w in self.leadmap:
            del self.leadmap[w]
            n = self._len_counts[len(w)]
            if n == 1:
                del self._len_counts[len(w)]
                self.lengths = tuple(sorted(self._len_counts, reverse=True))
            else:
                self._len_counts[len(w)] = n - 1

    def find_best_match(self, w: Word):
        """The reduction site in ``w`` under the tie-break above, as
        ``(pos, lead_length, index, lead_coeff)``, or ``None``.

        ``leadmap`` values are ``(index, lead_coeff, rank_key)``; only an
        equal word has an equal rank key, so ``>`` keeps the leftmost site.
        """
        leadmap = self.leadmap
        n = len(w)
        for L in self.lengths:
            if L > n:
                continue
            best = None
            for pos in range(n - L + 1):
                hit = leadmap.get(w[pos:pos + L])
                if hit is not None and (best is None or hit[2] > best[2]):
                    best, at = hit, pos
            if best is not None:
                return at, L, best[0], best[1]
        return None

    def _neg_key(self, w):
        n, mapped = self.key(w)
        return (-n, tuple(-x for x in mapped))

    def normal_form(self, terms: dict, items_of, steps: list,
                    deadline: Optional[float] = None) -> bool:
        """Fully reduce ``terms`` in place; append the added multiples
        (c, l, idx, r), so that after = before + sum(appended steps).

        ``items_of(idx)`` yields the stored term items of reducer ``idx``.
        Returns False if the deadline struck before the normal form was
        reached (terms are then left mid-reduction).
        """
        if not self.leadmap:
            return True
        heap = [(self._neg_key(w), w) for w in terms]
        heapq.heapify(heap)
        # words pop in descending order (a step only adds words below the one
        # reduced), so a repeat of the last word is a duplicate heap entry
        last = None
        ticks = 0
        while heap:
            _, w = heapq.heappop(heap)
            if w == last or w not in terms:
                continue
            last = w
            hit = self.find_best_match(w)
            if hit is None:
                continue
            pos, n, idx, lc = hit
            left = w[:pos]
            right = w[pos + n:]
            c = _div(terms[w], lc)
            steps.append(TraceStep(-c, left, idx, right))
            for nw in add_terms(terms, items_of(idx), -c, left, right):
                heapq.heappush(heap, (self._neg_key(nw), nw))
            ticks += 1
            if deadline is not None and ticks % 256 == 0 \
                    and time.monotonic() > deadline:
                return False
        return True


def reduce(p: Polynomial, basis: Sequence[Polynomial],
           order: Optional[DegLexOrder] = None) -> TracedPolynomial:
    """Full two-sided normal form of ``p`` modulo ``basis``.

    The result value contains no monomial with a basis leading word as a
    factor, and ``p = value + sum(trace)`` exactly.  Terminates for any input
    (the order is well-founded).
    """
    order = order or p.alg.default_order()
    red = _Reducer(order)
    stored = []
    for idx, g in enumerate(basis):
        if g.is_zero:
            raise AlgebraError("basis elements must be nonzero")
        stored.append(list(g._terms.items()))
        red.set_entry(g.lead_word(order), idx, g.lead_coeff(order))
    terms = dict(p._terms)
    steps: list = []
    red.normal_form(terms, lambda idx: stored[idx], steps)
    return TracedPolynomial(Polynomial._make(p.alg, terms),
                            tuple(TraceStep(-c, l, i, r) for c, l, i, r in steps))


# ---------------------------------------------------------------------------
# Completion engine
# ---------------------------------------------------------------------------

_GEN = "g"


class _Element:
    __slots__ = ("terms", "lead", "steps")

    def __init__(self, terms, lead, steps):
        self.terms = terms
        self.lead = lead
        self.steps = steps  # (coeff, left, ref, right); ref int -> element,
        #                     (_GEN, i) -> original generator i


@dataclass
class CompletionStats:
    obstructions_processed: int = 0
    obstructions_skipped_degree: int = 0
    elements_added: int = 0


def _accumulate(acc: dict, c, l: Word, ref, r: Word, memo: dict) -> None:
    """Add ``c * l . ref . r`` to ``acc`` at generator level; ``memo`` maps
    an element to its own accumulation.  Zero sums drop out."""
    parts = [(((), ref[1], ()), 1)] if isinstance(ref, tuple) \
        else memo[ref].items()
    for (l2, gi, r2), c2 in parts:
        key = (l + l2, gi, r2 + r)
        v = acc.get(key, 0) + c * c2
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


class CompletionEngine:
    """Fair bounded completion with generator-level trace bookkeeping.

    Obstructions are processed as a FIFO keyed by (overlap degree, creation
    index).  Elements whose lead becomes reducible by a newer lead are retired
    and their normal forms re-enter the basis, so the active lead set stays
    interreduced: each active lead word belongs to exactly one element, and
    the reducer's ``leadmap`` is the table of active leads.  Three hash
    indexes of the active leads map a word to the ascending list of active
    indices whose lead has it as a proper prefix (``_prefixes``), as a proper
    suffix (``_suffixes``) or as a two-letter factor (``_digrams``).  A new
    lead finds its overlap partners through the first two and its factor
    partners through ``leadmap``; partners beyond ``max_degree`` are only
    counted.  The leads it retires all hold each of its two-letter factors,
    so ``_digrams`` narrows their search.

    Queue entries are raw rows (degree, seq, i, j, li, ri, lj, rj).
    """

    def __init__(self, generators, order: DegLexOrder,
                 limits: CompletionLimits):
        self.order = order
        self.limits = limits
        self.reducer = _Reducer(order)
        self.elements: list[_Element] = []
        self.queue: list = []
        self._active: dict = {}   # idx -> lead word (insertion ordered)
        # proper prefix / suffix of an active lead -> ascending idx list
        self._prefixes: dict = {}
        self._suffixes: dict = {}
        # two-letter factor of an active lead -> ascending idx list, each
        # idx once however often the factor recurs in its lead
        self._digrams: dict = {}
        self._seq = 0
        self._requeue: list = []
        self.stats = CompletionStats()
        self._deadline = time.monotonic() + limits.time_budget
        self._exhausted = False
        seen_monic: dict = {}
        for src_index, g in generators:
            if g.is_zero:
                continue
            lc = g.lead_coeff(order)
            monic = g.monic(order)
            key = frozenset(monic._terms.items())
            if key in seen_monic:
                continue  # duplicate generator: alias to first occurrence
            seen_monic[key] = src_index
            steps = (TraceStep(_div(1, lc), (), (_GEN, src_index), ()),)
            self._append(dict(monic._terms), steps)

    # -- lead bookkeeping ----------------------------------------------------

    def _index_keys(self, w: Word):
        """``(table, key)`` for each lead-index entry of the lead ``w``."""
        n = len(w)
        for k in range(1, n):
            yield self._prefixes, w[:k]
            yield self._suffixes, w[n - k:]
        for key in set(zip(w, w[1:])):  # each w[t:t + 2] once
            yield self._digrams, key

    def _activate(self, idx: int, w: Word) -> None:
        """Enter ``idx`` with lead ``w`` into the active set, the reducer
        and the lead indexes."""
        self._active[idx] = w
        self.reducer.set_entry(w, idx, 1)
        for table, key in self._index_keys(w):
            # idx is the newest index: lists stay sorted
            table.setdefault(key, []).append(idx)

    def _deactivate(self, idx: int) -> None:
        """Drop ``idx`` from the active set and the lead indexes (the
        reducer entry is the caller's business)."""
        for table, key in self._index_keys(self._active.pop(idx)):
            lst = table[key]
            if len(lst) == 1:
                del table[key]
            else:
                lst.remove(idx)

    def _retire(self, idx: int) -> None:
        self._deactivate(idx)
        self.reducer.del_entry(self.elements[idx].lead)

    def active_indices(self) -> list:
        return sorted(self._active)

    # -- element creation ------------------------------------------------------

    def _append(self, terms: dict, steps) -> int:
        """Add a monic, fully reduced element; retire superseded leads."""
        lead = max(terms, key=self.order.key)
        lc = terms[lead]
        if lc != 1:
            terms = {w: _div(c, lc) for w, c in terms.items()}
            steps = tuple(TraceStep(_div(c, lc), l, ref, r)
                          for c, l, ref, r in steps)
        elem = _Element(terms, lead, tuple(steps))
        idx = len(self.elements)
        self.elements.append(elem)
        self.stats.elements_added += 1
        # retire active elements whose lead contains the new lead as a factor
        # (an equal lead included, so active leads stay distinct)
        for m in self._retirees(lead):
            self._retire(m)
            self._requeue.append(m)
        # queue obstructions against the still-active leads, then self
        self._push_rows(idx, self._pair_rows(lead))
        self._push_rows(idx, [(idx,) + row
                              for row in _kernel_py.self_overlaps(lead)])
        self._activate(idx, lead)
        return idx

    def _retirees(self, lead: Word) -> list:
        """Active indices, ascending, whose lead contains ``lead`` as a
        factor.  Such a lead holds every two-letter factor of ``lead``, so
        only the shortest ``_digrams`` list among them needs confirming; a
        lead of fewer than two letters checks every active lead."""
        active = self._active
        if len(lead) < 2:
            return _kernel_py.find_retirees(lead, active.items())
        digrams = self._digrams
        fewest = min([digrams.get(d, ()) for d in zip(lead, lead[1:])],
                     key=len)
        return _kernel_py.find_retirees(lead, [(i, active[i]) for i in fewest])

    def _pair_rows(self, v: Word) -> list:
        """Rows ``_kernel_py.batch_overlaps(v, active leads)`` would give, in
        its order, less those above ``max_degree``, which are only counted.

        No active lead contains ``v`` (those were just retired), so the
        containments left are active leads that are factors of ``v``,
        including an empty lead.
        """
        nv = len(v)
        maxdeg = self.limits.max_degree
        room = maxdeg - nv  # an overlap of length k fits iff |u| - k <= room
        active = self._active
        prefixes, suffixes = self._prefixes, self._suffixes
        skipped = 0
        hits = []  # (i, k, orientation, row): the kernel's order per i
        for k in range(1, nv):
            for i in suffixes.get(v[:k], ()):
                u = active[i]
                if len(u) - k > room:
                    skipped += 1
                else:
                    hits.append((i, k, 0, ((), v[k:], u[:len(u) - k], (),
                                           u + v[k:])))
            for i in prefixes.get(v[nv - k:], ()):
                u = active[i]
                if len(u) - k > room:
                    skipped += 1
                else:
                    hits.append((i, k, 1, (v[:nv - k], (), (), u[k:],
                                           v + u[k:])))
        leadmap = self.reducer.leadmap
        for n in range(nv):
            for t in range(nv - n + 1):
                hit = leadmap.get(v[t:t + n])
                if hit is None:
                    continue
                if nv > maxdeg:
                    skipped += 1
                else:  # after every overlap row of i: nv > any k
                    hits.append((hit[0], nv, t, (v[:t], v[t + n:], (), (), v)))
        self.stats.obstructions_skipped_degree += skipped
        hits.sort()
        return [(i,) + row for i, _, _, row in hits]

    def _push_rows(self, j: int, rows) -> None:
        maxdeg = self.limits.max_degree
        queue = self.queue
        for row in rows:
            i, li, ri, lj, rj, overlap = row
            deg = len(overlap)
            if deg > maxdeg:
                self.stats.obstructions_skipped_degree += 1
                continue
            heapq.heappush(queue, (deg, self._seq, i, j, li, ri, lj, rj))
            self._seq += 1

    # -- normal forms ----------------------------------------------------------

    def normal_form(self, terms: dict, steps: list) -> bool:
        """Reduce ``terms`` in place by the reducer's leads, appending the
        added multiples (c, l, idx, r) to ``steps``; if ``terms = sum(steps)``
        held before, it holds after.

        Returns False if the deadline struck first; the engine is then
        exhausted and ``terms`` are left mid-reduction.
        """
        if self.reducer.normal_form(
                terms, lambda idx: self.elements[idx].terms.items(),
                steps, self._deadline):
            return True
        self._exhausted = True
        return False

    def _process_requeue(self) -> None:
        while self._requeue:
            m = self._requeue.pop()
            terms = dict(self.elements[m].terms)
            steps: list = [TraceStep(1, (), m, ())]
            if not self.normal_form(terms, steps):
                return
            if terms:
                self._append(terms, steps)

    # -- budgets -----------------------------------------------------------------

    def _budget_ok(self) -> bool:
        if self._exhausted:
            return False
        if self.stats.obstructions_processed >= self.limits.max_iterations:
            return False
        if len(self._active) >= self.limits.max_basis_size:
            return False
        if time.monotonic() > self._deadline:
            return False
        return True

    def status(self) -> str:
        """COMPLETE if every obstruction within ``max_degree`` was resolved
        within budget, else BUDGET_EXHAUSTED."""
        if self.queue or self._requeue or self._exhausted:
            return BUDGET_EXHAUSTED
        return COMPLETE

    # -- main loop -----------------------------------------------------------------

    def process(self) -> bool:
        """Work the queue until one element was added, the queue is
        exhausted, or a budget tripped.  Returns True iff one was added."""
        elements = self.elements
        active = self._active
        while True:
            self._process_requeue()
            if not self.queue or not self._budget_ok():
                return False
            _, _, i, j, li, ri, lj, rj = heapq.heappop(self.queue)
            # a retired partner cannot survive into the final basis, so its
            # obstruction is moot
            if i not in active or j not in active:
                continue
            self.stats.obstructions_processed += 1
            terms: dict = {}
            add_terms(terms, elements[i].terms.items(), 1, li, ri)
            add_terms(terms, elements[j].terms.items(), -1, lj, rj)
            steps: list = [TraceStep(1, li, i, ri), TraceStep(-1, lj, j, rj)]
            if not self.normal_form(terms, steps):
                return False
            if terms:
                self._append(terms, steps)
                self._process_requeue()
                return True

    # -- trace expansion --------------------------------------------------------------

    def expand_steps(self, steps) -> list:
        """Expand element-level steps into generator-level TraceSteps.

        Quads with equal (left, generator, right) merge; zero coefficients
        drop out.
        """
        needed = set()
        stack = [ref for _, _, ref, _ in steps if not isinstance(ref, tuple)]
        while stack:
            k = stack.pop()
            if k in needed:
                continue
            needed.add(k)
            stack.extend(ref for _, _, ref, _ in self.elements[k].steps
                         if not isinstance(ref, tuple))
        memo: dict = {}
        for k in sorted(needed):
            acc: dict = {}
            for c, l, ref, r in self.elements[k].steps:
                _accumulate(acc, c, l, ref, r, memo)
            memo[k] = acc
        out: dict = {}
        for c, l, ref, r in steps:
            _accumulate(out, c, l, ref, r, memo)
        return [TraceStep(normalize_coeff(c), l, gi, r)
                for (l, gi, r), c in out.items()]

    def interreduce(self) -> None:
        """Reduce every active element against the others until stable."""
        changed = True
        guard = 0
        while changed and guard < 10_000 and not self._exhausted:
            changed = False
            guard += 1
            for k in self.active_indices():
                lead = self.elements[k].lead
                self.reducer.del_entry(lead)  # reduce k by the others
                terms = dict(self.elements[k].terms)
                steps: list = [TraceStep(1, (), k, ())]
                if not self.normal_form(terms, steps) or len(steps) == 1:
                    # deadline struck or nothing reduced: restore
                    self.reducer.set_entry(lead, k, 1)
                    if self._exhausted:
                        return
                    continue
                self._deactivate(k)
                if terms:
                    self._append(terms, steps)
                self._process_requeue()
                changed = True
                break


def complete(generators: Sequence[Polynomial],
             order: Optional[DegLexOrder] = None,
             limits: Optional[CompletionLimits] = None):
    """Bounded completion of the generator set.

    Returns ``(basis, status)`` where each basis element is a
    ``TracedPolynomial`` whose trace expresses it exactly in the original
    generators (``value = sum(trace)``), and status is ``"complete"`` when
    every obstruction within ``max_degree`` reduced to zero within budget.
    """
    generators = list(generators)
    if not generators:
        return [], COMPLETE
    order = order or generators[0].alg.default_order()
    limits = limits or CompletionLimits()
    engine = CompletionEngine(list(enumerate(generators)), order, limits)
    engine.interreduce()
    if engine._budget_ok():
        while engine.process():
            pass
    status = engine.status()
    alg = generators[0].alg
    basis = []
    for k in engine.active_indices():
        elem = engine.elements[k]
        trace = engine.expand_steps([TraceStep(1, (), k, ())])
        basis.append(TracedPolynomial(Polynomial._make(alg, dict(elem.terms)),
                                      tuple(trace)))
    return basis, status
