"""Two-sided reduction and bounded completion in the free algebra.

``reduce`` computes full normal forms with cofactor tracking.
``CompletionEngine.run`` reduces claims while an obstruction-driven
completion (noncommutative Buchberger) grows the basis under explicit
budgets, and decides the completion status.  Both keep exact bookkeeping
so that every result can be expanded back into a two-sided combination of
the inputs.

Trace conventions:

* ``reduce(p, basis)``:  p = value + sum(c * l . basis[i] . r)
* internally, ``_Reducer.normal_form`` reduces by monic leads and appends
  the steps it adds: after = before + sum(steps).  A step cancels the word
  it reduces exactly, so it deletes that word and adds only the reducer's
  tail.  An engine element is monic and satisfies terms = sum(steps).
  ``reduce`` is the one caller whose leads need not be monic: it divides
  each basis element's tail by its lead coefficient ``lc`` once, and writes
  a step ``c`` by the monic element as the trace step ``-c/lc`` by the
  basis element (negated, since the trace satisfies p = value + sum).
* engine steps are plain ``(c, l, ref, r)`` tuples; ``ref`` is element
  ``k >= 0`` or generator ``i`` as ``~i``.  ``expand_steps`` expands them
  top-down into ``TraceStep`` values over the generators.  Each pending
  element, and each generator, maps the ``(l, r)`` word pairs in which it
  is still to be expanded to their coefficients.  The newest element goes
  first (a step refers only to older elements, so its contexts are final)
  and passes its contexts on through its steps; the generators' contexts
  are the result.  Every sum is one ``add_terms`` call per step, and each
  element is expanded once, in all its contexts together.
"""

from __future__ import annotations

import heapq
import operator
import time
from bisect import bisect_left, insort
from collections import deque
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
# ``CompletionEngine.run`` only: every claim proven before the queue drained
STOPPED_EARLY = "stopped_early"


def _div(c, lc):
    """``c / lc`` as a coefficient: an int where the quotient is integral."""
    if type(c) is int and type(lc) is int and not c % lc:
        return c // lc
    return normalize_coeff(Fraction(c) / lc)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

class _Reducer:
    """Full normal form against a trie of monic leading words, rewriting the
    largest pending word of a sorted word list at each step.

    ``trie`` is the root node.  Every node is a dict that maps a letter to
    the node of its word extended by that letter; a lead's index sits under
    key ``None`` of its node, so the root's ``None`` is the empty lead.
    Nodes hold nothing else, and a node left empty is pruned.  The trie is
    the reducer's own: ``set_entry`` and ``del_entry`` change it, and
    ``normal_form`` and ``factors`` read it.

    Tie-break: rewrite the order-largest reducible monomial first; within it,
    the leftmost occurrence of the order-largest matching leading word; equal
    leading words resolve to the lowest index.  ``normal_form`` finds that
    site by walking the trie from each position of the word.
    """

    def __init__(self, order: DegLexOrder):
        self.key = order.key
        self.trie: dict = {}

    def set_entry(self, w: Word, idx: int) -> None:
        """Enter lead ``w`` of ``idx``, unless a lower index holds it."""
        node = self.trie
        for c in w:
            child = node.get(c)
            if child is None:
                child = node[c] = {}
            node = child
        cur = node.get(None)
        if cur is None or idx < cur:
            node[None] = idx

    def del_entry(self, w: Word) -> None:
        """Remove lead ``w``, if entered, and prune the nodes left empty."""
        node = self.trie
        path = [node]  # the nodes of w[:0], w[:1], ..., w
        for c in w:
            node = node.get(c)
            if node is None:
                return
            path.append(node)
        if node.pop(None, None) is None:
            return
        for k in range(len(w), 0, -1):  # deepest first
            if path[k]:
                return
            del path[k - 1][w[k - 1]]

    def factors(self, w: Word) -> list:
        """The leads that are factors of ``w``, as ``(pos, idx)`` pairs by
        position, and at each position the empty lead first, then by
        length."""
        root = self.trie
        empty = root.get(None)
        out = []
        for pos in range(len(w) + 1):
            if empty is not None:
                out.append((pos, empty))
            node = root
            for c in w[pos:]:
                node = node.get(c)
                if node is None:
                    break
                if None in node:
                    out.append((pos, node[None]))
        return out

    def normal_form(self, terms: dict, items_of, steps: list,
                    deadline: Optional[float] = None) -> bool:
        """Fully reduce ``terms`` in place; append the added multiples
        (c, l, idx, r), so that after = before + sum(appended steps).

        ``items_of(idx)`` yields the tail items of reducer ``idx``, its
        terms less the lead, scaled so that the lead is monic: a step
        cancels the word ``w`` it reduces exactly, so it deletes ``w`` and
        adds the tail.  Returns False if the deadline struck before the
        normal form was reached (terms are then left mid-reduction).
        """
        root = self.trie
        if not root:
            return True
        key = self.key
        empty = root.get(None)  # the empty lead, a factor at position 0
        # (key, word) pairs in ascending order, so ``pop`` gives the largest
        pending = sorted([(key(w), w) for w in terms])
        # words pop in descending order (a step only adds words below the one
        # reduced), so a repeat of the last word is a duplicate entry
        last = None
        ticks = 0
        while pending:
            w = pending.pop()[1]
            if w == last or w not in terms:
                continue
            last = w
            # the reduction site: walk the trie from each position and keep
            # the longest hit, then the order-largest; only an equal word
            # ranks equal, so ``>`` keeps the leftmost site.  A position with
            # fewer letters left than the best hit is not walked.
            idx = empty
            size = at = 0
            n = len(w)
            for pos in range(n):
                if n - pos < size:
                    break
                node = root
                t = pos
                while t < n:
                    node = node.get(w[t])
                    if node is None:
                        break
                    t += 1
                    if None in node:
                        if t - pos > size or t - pos == size and \
                                key(w[pos:t]) > key(w[at:at + size]):
                            idx, size, at = node[None], t - pos, pos
            if idx is None:
                continue
            left = w[:at]
            right = w[at + size:]
            c = terms.pop(w)
            steps.append((-c, left, idx, right))
            for nw in add_terms(terms, items_of(idx), -c, left, right):
                insort(pending, (key(nw), nw))
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
    lcs, tails = [], []
    for idx, g in enumerate(basis):
        if g.is_zero:
            raise AlgebraError("basis elements must be nonzero")
        lead = g.lead_word(order)
        lc = g._terms[lead]
        lcs.append(lc)
        tails.append([(w, _div(c, lc)) for w, c in g._terms.items()
                      if w != lead])
        red.set_entry(lead, idx)
    terms = dict(p._terms)
    steps: list = []
    red.normal_form(terms, tails.__getitem__, steps)
    return TracedPolynomial(Polynomial._make(p.alg, terms),
                            tuple(TraceStep(_div(-c, lcs[i]), l, i, r)
                                  for c, l, i, r in steps))


# ---------------------------------------------------------------------------
# Completion engine
# ---------------------------------------------------------------------------

def _paddings(u: Word, v: Word, a: int, b: int) -> tuple:
    """The words ``(li, ri, lj, rj)`` with ``li.u.ri == lj.v.rj``, the
    overlap word of a queue row, from ``a = len(li)`` and ``b = len(lj)``.

    One of the two leads starts the overlap word, so ``a`` or ``b`` is 0;
    the other lead then supplies the padding on both sides.
    """
    if a:
        return v[:a], v[a + len(u):], (), u[len(v) - a:]
    return (), v[len(u) - b:], u[:b], u[b + len(v):]


# a prefix or suffix list entry is ``len(lead) << _SHIFT | idx``, so that the
# lists sort by (lead length, index) as plain ints (no engine holds 2**32
# elements, so ``idx`` fits below the shift)
_SHIFT = 32
_IDX = (1 << _SHIFT) - 1


def _unlist(table: dict, key, entry: int) -> None:
    """Remove ``entry`` from the ascending list ``table[key]``; drop the key
    with its last entry."""
    lst = table[key]
    if len(lst) == 1:
        del table[key]
    else:
        del lst[bisect_left(lst, entry)]


class _Queue:
    """Queue rows in (degree, push order) order: one FIFO per degree, and
    the lowest non-empty degree pops first.  ``len`` counts the rows."""

    __slots__ = ("_fifos", "_low", "_size")

    def __init__(self):
        self._fifos: list = []  # degree -> deque of rows
        self._low = 0           # no row has a lower degree
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, deg: int, row) -> None:
        fifos = self._fifos
        while len(fifos) <= deg:
            fifos.append(deque())
        fifos[deg].append(row)
        if deg < self._low:
            self._low = deg
        self._size += 1

    def pop(self):
        """The oldest row of the lowest degree; the queue must not be
        empty."""
        fifos = self._fifos
        low = self._low
        while not fifos[low]:
            low += 1
        self._low = low
        self._size -= 1
        return fifos[low].popleft()


class _Element:
    # a monic element: its lead word (coefficient 1) and its other terms,
    # ``tail``, as a tuple of (word, coeff) items
    __slots__ = ("lead", "tail", "steps")

    def __init__(self, lead, tail, steps):
        self.lead = lead
        self.tail = tail
        self.steps = steps  # (coeff, left, ref, right); ref k >= 0 ->
        #                     element k, ~i -> generator i

    @property
    def terms(self) -> dict:
        """A new term dict of the element."""
        terms = dict(self.tail)
        terms[self.lead] = 1
        return terms


@dataclass
class CompletionStats:
    obstructions_processed: int = 0
    obstructions_skipped_degree: int = 0
    elements_added: int = 0


class CompletionEngine:
    """Fair bounded completion with generator-level trace bookkeeping.

    Obstructions are processed lowest overlap degree first, and in the order
    they were queued within a degree.  Elements whose lead becomes reducible
    by a newer lead are retired and their normal forms re-enter the basis,
    so the active lead set stays interreduced: each active lead word belongs
    to exactly one element, and the reducer holds exactly the active leads.
    The engine's own three dicts map a word to the list of active indices
    whose lead has it as a proper prefix (``_prefixes``), as a proper suffix
    (``_suffixes``) or as a two-letter factor (``_digrams``).  A prefix or
    suffix list holds the ints ``len(lead) << _SHIFT | idx`` in ascending
    order, so the partners beyond ``max_degree`` form one tail of each list,
    which is only counted; digram lists are ascending.  A new lead finds its
    overlap partners through the first two.  Only a raw generator's lead can
    have active leads as factors: every other new lead is a normal form, so
    the reducer lists factor partners (``_Reducer.factors``) only for the
    generators.  The leads a new lead retires all hold each of its
    two-letter factors, so ``_digrams`` narrows their search.

    ``queue`` is a ``_Queue`` of rows ``(i, j, len(li), len(lj))``;
    ``_paddings`` rebuilds the padding words from the two leads.
    """

    def __init__(self, generators, order: DegLexOrder,
                 limits: CompletionLimits):
        self.order = order
        self.limits = limits
        self.reducer = _Reducer(order)
        elements: list[_Element] = []
        self.elements = elements
        self._tail_of = lambda idx: elements[idx].tail
        self.queue = _Queue()
        self._active: dict = {}   # idx -> lead word (insertion ordered)
        # proper prefix, and proper suffix, of an active lead -> ascending
        # list of entries ``len(lead) << _SHIFT | idx``
        self._prefixes: dict = {}
        self._suffixes: dict = {}
        # two-letter factor of an active lead -> ascending idx list, each
        # idx once however often the factor recurs in its lead
        self._digrams: dict = {}
        self._requeue: list = []
        self.stats = CompletionStats()
        self._deadline = time.monotonic() + limits.time_budget
        # the first limit found tripped: "max_iterations", "max_basis_size"
        # or "time_budget" (also when the deadline strikes mid-reduction)
        self.tripped_limit: Optional[str] = None
        seen_monic = set()
        for src_index, g in generators:
            if g.is_zero:
                continue
            lc = g.lead_coeff(order)
            monic = g.monic(order)
            key = frozenset(monic._terms.items())
            if key in seen_monic:
                continue  # duplicate generator: alias to first occurrence
            seen_monic.add(key)
            self._append(monic._terms, ((_div(1, lc), (), ~src_index, ()),),
                         unreduced=True)

    # -- lead bookkeeping ----------------------------------------------------

    def _activate(self, idx: int, w: Word) -> None:
        """Enter ``idx`` with lead ``w`` into the active set, the reducer
        and the lead indexes.  ``idx`` is the newest index, so it goes after
        every lead no longer than ``w`` and the lists keep their order."""
        self._active[idx] = w
        self.reducer.set_entry(w, idx)
        prefixes = self._prefixes
        suffixes = self._suffixes
        n = len(w)
        entry = n << _SHIFT | idx
        for k in range(1, n):
            insort(prefixes.setdefault(w[:k], []), entry)
            insort(suffixes.setdefault(w[n - k:], []), entry)
        digrams = self._digrams
        for key in set(zip(w, w[1:])):  # each w[t:t + 2] once
            digrams.setdefault(key, []).append(idx)

    def _deactivate(self, idx: int) -> None:
        """Drop ``idx`` from the active set and the lead indexes (the
        reducer entry is the caller's business)."""
        w = self._active.pop(idx)
        prefixes = self._prefixes
        suffixes = self._suffixes
        n = len(w)
        entry = n << _SHIFT | idx
        for k in range(1, n):
            _unlist(prefixes, w[:k], entry)
            _unlist(suffixes, w[n - k:], entry)
        digrams = self._digrams
        for key in set(zip(w, w[1:])):  # each w[t:t + 2] once
            lst = digrams[key]
            if len(lst) == 1:
                del digrams[key]
            else:
                del lst[bisect_left(lst, idx)]

    def _retire(self, idx: int) -> None:
        self._deactivate(idx)
        self.reducer.del_entry(self.elements[idx].lead)

    def active_indices(self) -> list:
        return sorted(self._active)

    # -- element creation ------------------------------------------------------

    def _append(self, terms: dict, steps, unreduced: bool = False) -> int:
        """Add the element ``terms`` scaled to be monic; retire superseded
        leads.  ``terms`` is a normal form by the active leads unless
        ``unreduced`` (a generator)."""
        lead = max(terms, key=self.order.key)
        lc = terms[lead]
        tail = [(w, c) for w, c in terms.items() if w != lead]
        if lc != 1:
            tail = [(w, _div(c, lc)) for w, c in tail]
            steps = [(_div(c, lc), l, ref, r) for c, l, ref, r in steps]
        elem = _Element(lead, tuple(tail), tuple(steps))
        idx = len(self.elements)
        self.elements.append(elem)
        self.stats.elements_added += 1
        # retire active elements whose lead contains the new lead as a factor
        # (an equal lead included, so active leads stay distinct)
        for m in self._retirees(lead):
            self._retire(m)
            self._requeue.append(m)
        # queue obstructions against the still-active leads, then self
        self._push_rows(idx, self._pair_rows(lead, unreduced))
        self._push_rows(idx, [(idx, 0, len(lj), len(overlap)) for _, _, lj, _,
                              overlap in _kernel_py.self_overlaps(lead)])
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

    def _pair_rows(self, v: Word, unreduced: bool) -> list:
        """Rows ``(i, len(li), len(lj), degree)`` of the overlaps that
        ``_kernel_py.batch_overlaps(v, active leads)`` would give, in its
        order, less those above ``max_degree``, which are only counted.

        A partner ``u`` overlapping ``v`` in ``k`` letters fits iff
        ``len(u) <= max_degree - len(v) + k``; the prefix and suffix lists
        are ordered by lead length, so one ``bisect_left`` splits each into
        the partners that fit and the tail that is counted.  No active lead
        contains ``v`` (those were just retired), so the containments left
        are active leads that are factors of ``v``, including an empty lead;
        they are searched only if ``v`` is ``unreduced``, since a normal
        form has no active lead as a factor.  Rows are made in the scan's
        order for each partner, so a stable sort by partner finishes them.
        """
        nv = len(v)
        maxdeg = self.limits.max_degree
        room = maxdeg - nv
        prefixes = self._prefixes
        suffixes = self._suffixes
        skipped = 0
        rows = []
        for k in range(1, nv):
            # the first entry of a lead longer than ``room + k``
            above = (room + k + 1) << _SHIFT
            lst = suffixes.get(v[:k])
            if lst:
                cut = bisect_left(lst, above)
                skipped += len(lst) - cut
                for e in lst[:cut]:
                    nu = e >> _SHIFT
                    rows.append((e & _IDX, 0, nu - k, nu + nv - k))
            lst = prefixes.get(v[nv - k:])
            if lst:
                cut = bisect_left(lst, above)
                skipped += len(lst) - cut
                for e in lst[:cut]:
                    rows.append((e & _IDX, nv - k, 0, nv + (e >> _SHIFT) - k))
        if unreduced:
            hits = self.reducer.factors(v)
            if nv > maxdeg:
                skipped += len(hits)
            else:  # after every overlap row of a partner: nv > any k
                rows += [(i, pos, 0, nv) for pos, i in hits]
        self.stats.obstructions_skipped_degree += skipped
        rows.sort(key=operator.itemgetter(0))
        return rows

    def _push_rows(self, j: int, rows) -> None:
        maxdeg = self.limits.max_degree
        push = self.queue.push
        for i, a, b, deg in rows:
            if deg > maxdeg:
                self.stats.obstructions_skipped_degree += 1
                continue
            push(deg, (i, j, a, b))

    # -- normal forms ----------------------------------------------------------

    def normal_form(self, terms: dict, steps: list) -> bool:
        """Reduce ``terms`` in place by the reducer's leads, appending the
        added multiples (c, l, idx, r) to ``steps``; if ``terms = sum(steps)``
        held before, it holds after.

        Returns False if the deadline struck first; ``time_budget`` has then
        tripped and ``terms`` are left mid-reduction.
        """
        if self.reducer.normal_form(terms, self._tail_of, steps,
                                    self._deadline):
            return True
        self.tripped_limit = "time_budget"
        return False

    def _process_requeue(self) -> None:
        while self._requeue:
            m = self._requeue.pop()
            terms = self.elements[m].terms
            steps: list = [(1, (), m, ())]
            if not self.normal_form(terms, steps):
                return
            if terms:
                self._append(terms, steps)

    # -- budgets -----------------------------------------------------------------

    def _check_limits(self) -> Optional[str]:
        """The name of the tripped limit, kept in ``tripped_limit``, or
        None while every limit holds."""
        if self.tripped_limit is None:
            limits = self.limits
            if self.stats.obstructions_processed >= limits.max_iterations:
                self.tripped_limit = "max_iterations"
            elif len(self._active) >= limits.max_basis_size:
                self.tripped_limit = "max_basis_size"
            elif time.monotonic() > self._deadline:
                self.tripped_limit = "time_budget"
        return self.tripped_limit

    def status(self) -> str:
        """COMPLETE if every obstruction within ``max_degree`` was resolved
        within budget, else BUDGET_EXHAUSTED."""
        if self.queue or self._requeue or self.tripped_limit:
            return BUDGET_EXHAUSTED
        return COMPLETE

    # -- main loop -----------------------------------------------------------------

    def process(self) -> bool:
        """Work the queue until one element was added, the queue is
        exhausted, or a budget tripped.  Returns True iff one was added."""
        elements = self.elements
        active = self._active
        queue = self.queue
        while True:
            if self._requeue:
                self._process_requeue()
            if not queue or self._check_limits():
                return False
            i, j, a, b = queue.pop()
            # a retired partner cannot survive into the final basis, so its
            # obstruction is moot
            u = active.get(i)
            v = active.get(j)
            if u is None or v is None:
                continue
            li, ri, lj, rj = _paddings(u, v, a, b)
            self.stats.obstructions_processed += 1
            # both leads are monic and cancel in the overlap word
            terms: dict = {}
            add_terms(terms, elements[i].tail, 1, li, ri)
            add_terms(terms, elements[j].tail, -1, lj, rj)
            steps: list = [(1, li, i, ri), (-1, lj, j, rj)]
            if not self.normal_form(terms, steps):
                return False
            if terms:
                self._append(terms, steps)
                if self._requeue:
                    self._process_requeue()
                return True

    # -- trace expansion --------------------------------------------------------------

    def expand_steps(self, steps) -> list:
        """Expand element-level steps into generator-level TraceSteps.

        Top-down: each element and each generator maps the ``(left, right)``
        contexts in which it is still to be expanded to their coefficients.
        The newest pending element has all its contexts, since a step refers
        only to older elements, and passes them through its steps.  Each
        step moves all contexts in one ``add_terms`` call, wrapped in its
        left and right words.  Equal pairs merge and zero sums drop out.
        """
        elements = self.elements
        out: dict = {}      # generator -> its contexts
        pending: dict = {}  # element -> its contexts
        newest: list = []   # heap of -k over the pending elements

        def spread(steps, contexts: dict) -> None:
            for c, l, ref, r in steps:
                if ref < 0:
                    acc = out.setdefault(~ref, {})
                elif ref in pending:
                    acc = pending[ref]
                else:
                    acc = pending[ref] = {}
                    heapq.heappush(newest, -ref)
                # pair keys pass add_terms's empty default words unchanged
                if l or r:
                    add_terms(acc, [((left + l, r + right), cw)
                                    for (left, right), cw in contexts.items()],
                              c)
                else:
                    add_terms(acc, contexts.items(), c)

        spread(steps, {((), ()): 1})
        while newest:
            k = -heapq.heappop(newest)
            contexts = pending.pop(k)
            if contexts:
                spread(elements[k].steps, contexts)
        return [TraceStep(c, l, i, r) for i, contexts in out.items()
                for (l, r), c in contexts.items()]

    def interreduce(self) -> None:
        """Reduce every active element against the others until stable."""
        changed = True
        guard = 0
        while changed and guard < 10_000 and not self.tripped_limit:
            changed = False
            guard += 1
            for k in self.active_indices():
                lead = self.elements[k].lead
                self.reducer.del_entry(lead)  # reduce k by the others
                terms = self.elements[k].terms
                steps: list = [(1, (), k, ())]
                if not self.normal_form(terms, steps) or len(steps) == 1:
                    # deadline struck or nothing reduced: restore
                    self.reducer.set_entry(lead, k)
                    if self.tripped_limit:
                        return
                    continue
                self._deactivate(k)
                if terms:
                    self._append(terms, steps)
                self._process_requeue()
                changed = True
                break

    def run(self, claims) -> str:
        """Complete the basis while reducing each claim, a ``(terms,
        steps)`` pair, in place; a claim is proven once its terms are empty.

        Returns STOPPED_EARLY when every claim was proven but completion
        did not finish (``status()`` is BUDGET_EXHAUSTED), else ``status()``.
        ``tripped_limit`` names the limit that stopped the run, if one did.
        """
        # First pass against the raw generators: direct reductions keep the
        # cofactor attribution on the assumptions as stated (and are cheap).
        pending = self._reduce_claims(claims)
        if pending:
            self.interreduce()
            pending = self._reduce_claims(pending)
            while pending and self.process():
                pending = self._reduce_claims(pending)
            # final pass against the last basis state
            pending = self._reduce_claims(pending)
        status = self.status()
        if status == BUDGET_EXHAUSTED and not pending:
            return STOPPED_EARLY
        return status

    def _reduce_claims(self, claims) -> list:
        """Reduce each claim by the current basis; returns those left."""
        for terms, steps in claims:
            self.normal_form(terms, steps)
        return [claim for claim in claims if claim[0]]
