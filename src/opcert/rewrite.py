"""Two-sided reduction and bounded completion in the free algebra.

``reduce`` computes full normal forms with cofactor tracking.
``CompletionEngine.run`` reduces claims while an obstruction-driven
completion (noncommutative Buchberger) grows the basis under explicit
budgets, and decides the completion status.  The completion processes the
lowest overlap degree first and builds a degree's obstructions only when it
reaches that degree (the engine's frontier), so it needs no degree bound;
``CompletionLimits.max_degree`` optionally stops the frontier at that
degree, and no row above it is built or counted.  Both keep exact
bookkeeping so that every result can be expanded back into a
two-sided combination of the inputs.

Engine words: inside this module a word is a ``str`` with one character
per letter, the letter's rank under the order: ``chr(ranking[iid])``, or
``chr(iid)`` when the order has no ranking.  So ``(len(w), w)`` sorts words
as the deglex order does, and a factor test is ``lead in w``.
``word_codec`` gives the maps between engine words and tuple words.  They
are applied at four boundaries only: ``CompletionEngine`` encodes its
generators; ``certify`` encodes its claims and decodes remainders through
the engine's ``encode``/``decode``; ``expand_steps`` returns tuple words;
``reduce`` encodes its inputs and decodes its outputs.

The engine's lead-word scans are ``self_overlaps`` and ``find_retirees``;
``batch_overlaps``, the pairwise overlap scan, is the tests' reference.

Trace conventions:

* ``reduce(p, basis)`` returns ``(value, steps)`` with
  p = value + sum(c * l . basis[i] . r)
* internally, ``_Reducer.normal_form`` reduces by monic leads and appends
  the steps it adds: after = before + sum(steps).  A step cancels the word
  it reduces exactly, so it deletes that word and adds only the reducer's
  tail.  An engine element is monic and satisfies terms = sum(steps).
  ``reduce`` is the one caller whose leads need not be monic: it divides
  each basis element's tail by its lead coefficient ``lc`` once, and writes
  a step ``c`` by the monic element as the step ``-c/lc`` by the basis
  element (negated, since its steps satisfy p = value + sum).
* every step is a plain ``(c, l, ref, r)`` tuple.  In the engine ``ref``
  is element ``k >= 0`` or generator ``i`` as ``~i``; ``expand_steps``
  expands such steps top-down into ``(c, l, i, r)`` over the generators,
  with tuple words ``l`` and ``r``.  Each pending element, and each
  generator, maps the ``(l, r)`` word pairs in which it is still to be
  expanded to their coefficients.  The newest element goes first (a step
  refers only to older elements, so its contexts are final) and passes its
  contexts on through its steps; the generators' contexts are the result.
  Every sum is one ``add_terms`` call per step, and each element is
  expanded once, in all its contexts together.
"""

from __future__ import annotations

import heapq
import operator
import sys
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .freealg import (AlgebraError, DegLexOrder, Polynomial, add_terms,
                      normalize_coeff)


@dataclass(frozen=True)
class CompletionLimits:
    """Budgets for the (generally non-terminating) completion loop.

    ``max_degree`` stops the frontier at that overlap degree: no
    obstruction above it is built or counted, so a capped COMPLETE says
    nothing about higher degrees.  None, the default, builds every degree,
    and the other budgets stop a completion that does not terminate."""

    max_degree: Optional[int] = None
    max_iterations: int = 50_000
    max_basis_size: int = 10_000
    time_budget: float = 300.0

    def __post_init__(self):
        if min(self.max_iterations, self.max_basis_size) <= 0 \
                or self.max_degree is not None and self.max_degree <= 0 \
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


def word_codec(order: DegLexOrder) -> tuple:
    """``(encode, decode)``: a tuple word to its engine word under ``order``
    and back.  The characters of an engine word are the letters' ranks."""
    ranking = order.ranking
    if ranking is None:
        return (lambda w: "".join(map(chr, w))), (lambda s: tuple(map(ord, s)))
    up = [chr(rank) for rank in ranking]
    down = [0] * len(ranking)
    for iid, rank in enumerate(ranking):
        down[rank] = iid
    return (lambda w: "".join(map(up.__getitem__, w))), \
        (lambda s: tuple(map(down.__getitem__, map(ord, s))))


def _deglex(w: str) -> tuple:
    """The deglex sort key of an engine word."""
    return len(w), w


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

class _Reducer:
    """Full normal form against a trie of monic leading words, rewriting the
    largest pending word of a sorted word list at each step.  Words are
    engine words, so ``(len(w), w)`` is their order.

    ``trie`` is the root node.  Every node is a dict that maps a letter to
    the node of its word extended by that letter; a lead's index sits under
    key ``None`` of its node, so the root's ``None`` is the empty lead.
    Nodes hold nothing else, and a node left empty is pruned.  The trie is
    the reducer's own: ``set_entry`` and ``del_entry`` change it, and
    ``normal_form`` alone reads it.

    Tie-break: rewrite the order-largest reducible monomial first; within it,
    the leftmost occurrence of the order-largest matching leading word, the
    longest one and, among leads of one length, the largest by plain ``str``
    comparison; equal leading words resolve to the lowest index.
    ``normal_form`` finds that site by walking the trie from each position
    of the word.
    """

    def __init__(self):
        self.trie: dict = {}

    def set_entry(self, w: str, idx: int) -> None:
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

    def del_entry(self, w: str) -> None:
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

    # perfbench's tracer wraps this method on the engine's ``reducer`` and
    # counts the steps appended to its third positional argument; CI asserts
    # those counts, so keep the name and the argument order
    def normal_form(self, terms: dict, tails: Sequence, steps: list,
                    deadline: Optional[float] = None) -> bool:
        """Fully reduce ``terms`` in place; append the added multiples
        (c, l, idx, r), so that after = before + sum(appended steps).

        ``tails[idx]`` holds the tail items of reducer ``idx``, its
        terms less the lead, scaled so that the lead is monic: a step
        cancels the word ``w`` it reduces exactly, so it deletes ``w`` and
        adds the tail.  Returns False if the deadline struck before the
        normal form was reached (terms are then left mid-reduction).
        """
        root = self.trie
        if not root:
            return True
        empty = root.get(None)  # the empty lead, a factor at position 0
        # (length, word) pairs in ascending order, so ``pop`` gives the largest
        pending = sorted([(len(w), w) for w in terms])
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
                                w[pos:t] > w[at:at + size]:
                            idx, size, at = node[None], t - pos, pos
            if idx is None:
                continue
            left = w[:at]
            right = w[at + size:]
            c = terms.pop(w)
            steps.append((-c, left, idx, right))
            for nw in add_terms(terms, tails[idx], -c, left, right):
                insort(pending, (len(nw), nw))
            ticks += 1
            if deadline is not None and ticks % 256 == 0 \
                    and time.monotonic() > deadline:
                return False
        return True


def reduce(p: Polynomial, basis: Sequence[Polynomial],
           order: Optional[DegLexOrder] = None) -> tuple:
    """Full two-sided normal form of ``p`` modulo ``basis``: the pair
    ``(value, steps)`` of the normal form and a tuple of ``(c, l, i, r)``.

    ``value`` contains no monomial with a basis leading word as a factor,
    and ``p = value + sum(c * l . basis[i] . r)`` exactly.  Terminates for
    any input (the order is well-founded).
    """
    encode, decode = word_codec(order or p.alg.default_order())
    red = _Reducer()
    lcs, tails = [], []
    for idx, g in enumerate(basis):
        if g.is_zero:
            raise AlgebraError("basis elements must be nonzero")
        terms = {encode(w): c for w, c in g._terms.items()}
        lead = max(terms, key=_deglex)
        lc = terms[lead]
        lcs.append(lc)
        tails.append([(w, _div(c, lc)) for w, c in terms.items()
                      if w != lead])
        red.set_entry(lead, idx)
    terms = {encode(w): c for w, c in p._terms.items()}
    steps: list = []
    red.normal_form(terms, tails, steps)
    return Polynomial._make(p.alg, {decode(w): c for w, c in terms.items()}), \
        tuple((_div(-c, lcs[i]), decode(l), i, decode(r))
              for c, l, i, r in steps)


# ---------------------------------------------------------------------------
# Completion engine
# ---------------------------------------------------------------------------

def self_overlaps(v):
    """Sizes ``0 < k < len(v)``, ascending, with ``v[-k:] == v[:k]``: the
    proper self-overlaps of a leading word, overlap word ``v + v[k:]``."""
    n = len(v)
    return [k for k in range(1, n) if v[n - k:] == v[:k]]


def find_retirees(lead, others):
    """Indices from (i, w) pairs whose engine word contains ``lead`` as a
    factor, in the pairs' order; an empty lead is a factor of every word."""
    return [i for i, w in others if lead in w]


def batch_overlaps(v, others):
    """All nontrivial overlaps of ``v`` (role j) against ``others``.

    ``others`` is a sequence of (i, u) with distinct indices; returns rows
    (i, li, ri, lj, rj, overlap) such that li.u.ri == lj.v.rj == overlap,
    covering suffix/prefix overlaps in both orientations and factor
    containments (including equal words).
    """
    out = []
    nv = len(v)
    e = v[:0]  # the empty word of v's type
    for i, u in others:
        nu = len(u)
        m = nu if nu < nv else nv
        for k in range(1, m):
            if u[nu - k:] == v[:k]:
                out.append((i, e, v[k:], u[:nu - k], e, u + v[k:]))
            if v[nv - k:] == u[:k]:
                out.append((i, v[:nv - k], e, e, u[k:], v + u[k:]))
        if nv < nu:
            for t in range(nu - nv + 1):
                if u[t:t + nv] == v:
                    out.append((i, e, e, u[:t], u[t + nv:], u))
        elif nu < nv:
            for t in range(nv - nu + 1):
                if v[t:t + nu] == u:
                    out.append((i, v[:t], v[t + nu:], e, e, v))
        elif u == v:
            out.append((i, e, e, e, e, v))
    return out


# perfbench's tracer patches the three scans through this name; the engine
# calls them as module globals, so the patched scans are the ones it counts
KERNEL = sys.modules[__name__]


def _paddings(u: str, v: str, a: int, b: int) -> tuple:
    """The words ``(li, ri, lj, rj)`` with ``li.u.ri == lj.v.rj``, the
    overlap word of a queue row, from ``a = len(li)`` and ``b = len(lj)``.

    One of the two leads starts the overlap word, so ``a`` or ``b`` is 0;
    the other lead then supplies the padding on both sides.
    """
    if a:
        return v[:a], v[a + len(u):], "", u[len(v) - a:]
    return "", v[len(u) - b:], u[:b], u[b + len(v):]


# a prefix or suffix list entry is ``len(lead) << _SHIFT | idx``, so that the
# lists sort by (lead length, index) as plain ints (no engine holds 2**32
# elements, so ``idx`` fits below the shift)
_SHIFT = 32
_IDX = (1 << _SHIFT) - 1


def _unlist(table: dict, key, entry: int) -> None:
    """Remove ``entry`` from the ascending list ``table[key]``; drop the key
    with its last entry (the list, emptied, may still be referenced)."""
    lst = table[key]
    del lst[bisect_left(lst, entry)]
    if not lst:
        del table[key]


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
    # a monic element: its lead engine word (coefficient 1) and its other
    # terms, ``tail``, as a tuple of (word, coeff) items
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
    """Work counters."""

    obstructions_processed: int = 0
    # never counted, always 0: perfbench's tracer reads it by name (ROADMAP
    # item 1 step A drops it)
    obstructions_skipped_degree: int = 0
    elements_added: int = 0


class CompletionEngine:
    """Fair bounded completion with generator-level trace bookkeeping.

    Obstructions are processed lowest overlap degree first, and in the order
    they were queued within a degree.  Elements whose lead becomes reducible
    by a newer lead are retired and their normal forms re-enter the basis,
    so the active lead set stays interreduced: each active lead word belongs
    to exactly one element, and the reducer holds exactly the active leads.
    A new lead finds the leads it retires through ``_digrams``
    (``_retirees``), and its overlap partners through the lead indexes
    ``_prefixes`` and ``_suffixes``; it keeps the index lists it found in
    ``_partners`` for the degrees built later (``_pair_rows``).

    Rows are built on demand.  ``_frontier`` is the highest degree whose
    rows are all built: a new element queues its rows up to it, and when the
    queue runs dry ``_advance`` raises it to the next degree that has rows
    and builds that degree for every active element.  No row is built
    before the first ``process``, which comes after ``interreduce``; from
    then on no active lead is a factor of another, so every row is a proper
    overlap.  The last degree with rows is ``_degree_limit()``.

    Only ``_pair_rows`` reads the prefix and suffix indexes, so they are
    built when the frontier first rises (``_index_leads``): intake and
    ``interreduce`` keep only the reducer and ``_digrams``, and
    ``_partners`` is None until then.  ``max_degree`` acts only through
    ``_degree_limit()``: the frontier stops there, and no row above it is
    built.

    ``queue`` is a ``_Queue`` of rows ``(i, j, len(li), len(lj))``;
    ``_paddings`` rebuilds the padding words from the two leads.  Words are
    engine words throughout (see the module docstring).
    """

    def __init__(self, generators, order: DegLexOrder,
                 limits: CompletionLimits):
        self.limits = limits
        self.encode_word, self.decode_word = word_codec(order)
        self.reducer = _Reducer()
        self.elements: list[_Element] = []
        self._tails: list = []  # idx -> elements[idx].tail
        self.queue = _Queue()
        self._active: dict = {}   # idx -> lead word (insertion ordered)
        # proper prefix, and proper suffix, of an active lead -> ascending
        # list of entries ``len(lead) << _SHIFT | idx``
        self._prefixes: dict = {}
        self._suffixes: dict = {}
        # active idx -> its partner lists, ``(k, suffix list of lead[:k],
        # prefix list of lead[-k:])`` for each k with one; fixed when idx is
        # added or the indexes are built, as every older partner is active by
        # then.  None while the prefix and suffix indexes are not built
        self._partners: Optional[dict] = None
        # two-letter factor of an active lead, as a pair of letters ->
        # ascending idx list, each idx once however often the factor recurs
        # in its lead
        self._digrams: dict = {}
        self._requeue: list = []
        self._frontier = 0
        self.stats = CompletionStats()
        self._deadline = time.monotonic() + limits.time_budget
        # the first limit found tripped: "max_iterations", "max_basis_size"
        # or "time_budget" (also when the deadline strikes mid-reduction)
        self.tripped_limit: Optional[str] = None
        seen_monic = set()
        for src_index, g in generators:
            if g.is_zero:
                continue
            terms = self.encode(g._terms)
            lc = terms[max(terms, key=_deglex)]
            if lc != 1:
                terms = {w: _div(c, lc) for w, c in terms.items()}
            key = frozenset(terms.items())
            if key in seen_monic:
                continue  # duplicate generator: alias to first occurrence
            seen_monic.add(key)
            self._append(terms, ((_div(1, lc), "", ~src_index, ""),))

    def encode(self, terms: dict) -> dict:
        """A term dict over tuple words as one over engine words."""
        encode = self.encode_word
        return {encode(w): c for w, c in terms.items()}

    def decode(self, terms: dict) -> dict:
        """A term dict over engine words as one over tuple words."""
        decode = self.decode_word
        return {decode(w): c for w, c in terms.items()}

    # -- lead bookkeeping ----------------------------------------------------

    def _activate(self, idx: int, w: str) -> None:
        """Enter ``idx`` with lead ``w`` into the active set, the reducer
        and the lead indexes.  ``idx`` is the newest index, so it goes after
        every lead no longer than ``w`` and the lists keep their order."""
        self._active[idx] = w
        self.reducer.set_entry(w, idx)
        if self._partners is not None:
            self._index_lead(w, len(w) << _SHIFT | idx)
        digrams = self._digrams
        for key in set(zip(w, w[1:])):  # each w[t:t + 2] once, as a pair
            lst = digrams.get(key)
            if lst is None:
                digrams[key] = [idx]
            else:
                lst.append(idx)

    def _index_lead(self, w: str, entry: int) -> None:
        """Enter ``entry`` under each proper prefix and suffix of ``w``."""
        prefixes = self._prefixes
        suffixes = self._suffixes
        n = len(w)
        for k in range(1, n):
            key = w[:k]
            lst = prefixes.get(key)
            if lst is None:
                prefixes[key] = [entry]
            else:
                insort(lst, entry)
            key = w[n - k:]
            lst = suffixes.get(key)
            if lst is None:
                suffixes[key] = [entry]
            else:
                insort(lst, entry)

    def _deactivate(self, idx: int) -> None:
        """Drop ``idx`` from the active set and the lead indexes (the
        reducer entry is the caller's business)."""
        w = self._active.pop(idx)
        if self._partners is not None:
            prefixes = self._prefixes
            suffixes = self._suffixes
            n = len(w)
            entry = n << _SHIFT | idx
            for k in range(1, n):
                _unlist(prefixes, w[:k], entry)
                _unlist(suffixes, w[n - k:], entry)
            del self._partners[idx]
        digrams = self._digrams
        for key in set(zip(w, w[1:])):  # each w[t:t + 2] once, as a pair
            _unlist(digrams, key, idx)

    def _retire(self, idx: int) -> None:
        self._deactivate(idx)
        self.reducer.del_entry(self.elements[idx].lead)

    def active_indices(self) -> list:
        return sorted(self._active)

    def basis_size(self) -> int:
        """The number of active elements."""
        return len(self._active)

    # -- element creation ------------------------------------------------------

    def _append(self, terms: dict, steps) -> int:
        """Add the element ``terms`` scaled to be monic; retire superseded
        leads and queue the element's rows up to the frontier."""
        lead = max(terms, key=_deglex)
        lc = terms[lead]
        tail = [(w, c) for w, c in terms.items() if w != lead]
        if lc != 1:
            tail = [(w, _div(c, lc)) for w, c in tail]
            steps = [(_div(c, lc), l, ref, r) for c, l, ref, r in steps]
        elem = _Element(lead, tuple(tail), tuple(steps))
        idx = len(self.elements)
        self.elements.append(elem)
        self._tails.append(elem.tail)
        self.stats.elements_added += 1
        # retire active elements whose lead contains the new lead as a factor
        # (an equal lead included, so active leads stay distinct)
        for m in self._retirees(lead):
            self._retire(m)
            self._requeue.append(m)
        # queue obstructions against the still-active leads, then self;
        # before the lead indexes exist no row is built
        if self._partners is not None:
            frontier = self._frontier
            self._partners[idx] = self._partner_lists(lead)
            self._push_rows(idx, self._pair_rows(idx, 0, frontier))
            n = len(lead)
            push = self.queue.push
            for k in self_overlaps(lead):
                deg = 2 * n - k
                if deg <= frontier:
                    push(deg, (idx, idx, 0, n - k))
        self._activate(idx, lead)
        return idx

    def _partner_lists(self, lead: str) -> list:
        """``(k, suffix list of lead[:k], prefix list of lead[-k:])`` for
        each ``0 < k < len(lead)`` with an active lead in either list."""
        prefixes = self._prefixes
        suffixes = self._suffixes
        n = len(lead)
        partners = []
        for k in range(1, n):
            suf = suffixes.get(lead[:k])
            pre = prefixes.get(lead[n - k:])
            if suf or pre:
                partners.append((k, suf, pre))
        return partners

    def _index_leads(self) -> None:
        """Build the prefix and suffix indexes of the active leads in one
        pass, in (length, index) order, then each active element's partner
        lists.  Its partner lists hold newer leads too, which ``_pair_rows``
        leaves out of the single-degree windows it builds from then on."""
        active = self._active
        for entry in sorted([len(w) << _SHIFT | idx
                             for idx, w in active.items()]):
            self._index_lead(active[entry & _IDX], entry)
        self._partners = {idx: self._partner_lists(w)
                          for idx, w in active.items()}

    def _retirees(self, lead: str) -> list:
        """Active indices, ascending, whose lead contains ``lead`` as a
        factor.  Such a lead holds every two-letter factor of ``lead``, so
        only the shortest ``_digrams`` list among them needs confirming; a
        lead of fewer than two letters checks every active lead."""
        active = self._active
        if len(lead) < 2:
            return find_retirees(lead, active.items())
        digrams = self._digrams
        fewest = min([digrams.get(d, ()) for d in zip(lead, lead[1:])],
                     key=len)
        return find_retirees(lead, [(i, active[i]) for i in fewest])

    def _pair_rows(self, j: int, lo: int, hi: int) -> list:
        """Rows ``(i, len(li), len(lj), degree)`` of the overlaps of the
        lead of element ``j`` with the active leads of older partners
        ``i < j``, of degree ``lo < degree <= hi``, in the order of
        ``batch_overlaps``: by partner, then by overlap length, the suffix
        match first.

        A partner ``u`` overlapping the lead ``v`` in ``k`` letters has
        degree ``len(u) + len(v) - k``.  The partner lists of ``j``
        (``_partners``) hold every older partner still active, ordered by
        (lead length, index), so one ``bisect`` range per ``k`` holds the
        partners of the window.  Only entries of the window's longest
        partners are checked against ``j``: the window is one degree, or
        ``j`` is the newest element.  Rows are made in ``k`` order for each
        partner, so a stable sort by partner finishes them.
        """
        nv = len(self.elements[j].lead)
        rows = []
        for k, suf, pre in self._partners[j]:
            # partner lengths lo - nv + k < len(u) <= hi - nv + k, the
            # longest of them only below index j
            first = (lo - nv + k + 1) << _SHIFT
            last = (hi - nv + k) << _SHIFT | j
            if suf:
                for e in suf[bisect_left(suf, first):bisect_left(suf, last)]:
                    nu = e >> _SHIFT
                    rows.append((e & _IDX, 0, nu - k, nu + nv - k))
            if pre:
                for e in pre[bisect_left(pre, first):bisect_left(pre, last)]:
                    rows.append((e & _IDX, nv - k, 0, nv + (e >> _SHIFT) - k))
        rows.sort(key=operator.itemgetter(0))
        return rows

    def _push_rows(self, j: int, rows) -> None:
        push = self.queue.push
        for i, a, b, deg in rows:
            push(deg, (i, j, a, b))

    def _degree_limit(self) -> int:
        """The highest degree that can have rows: the cap, or below it
        ``2 * (longest active lead) - 1``, the longest proper overlap."""
        limit = 2 * max(map(len, self._active.values()), default=0) - 1
        cap = self.limits.max_degree
        return limit if cap is None or limit < cap else cap

    def _advance(self) -> bool:
        """Raise the frontier to the next degree that has rows and queue
        them: each active element's rows of that degree against its older
        active partners, then its self-overlap row.  False when no degree
        up to ``_degree_limit()`` has any."""
        queue = self.queue
        limit = self._degree_limit()
        while not queue and self._frontier < limit:
            if self._partners is None:
                self._index_leads()
            d = self._frontier = self._frontier + 1
            for j, v in self._active.items():
                n = len(v)
                if n < d:  # a longer or equal lead overlaps in no degree d
                    self._push_rows(j, self._pair_rows(j, d - 1, d))
                    k = 2 * n - d
                    if k > 0 and v[n - k:] == v[:k]:
                        queue.push(d, (j, j, 0, n - k))
        return bool(queue)

    # -- normal forms ----------------------------------------------------------

    def normal_form(self, terms: dict, steps: list) -> bool:
        """Reduce ``terms`` in place by the reducer's leads, appending the
        added multiples (c, l, idx, r) to ``steps``; if ``terms = sum(steps)``
        held before, it holds after.

        Returns False if the deadline struck first; ``terms`` are then left
        mid-reduction, and ``time_budget`` has tripped unless another limit
        tripped before it.
        """
        if self.reducer.normal_form(terms, self._tails, steps,
                                    self._deadline):
            return True
        self.tripped_limit = self.tripped_limit or "time_budget"
        return False

    def _process_requeue(self) -> None:
        while self._requeue:
            m = self._requeue.pop()
            terms = self.elements[m].terms
            steps: list = [(1, "", m, "")]
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
        """COMPLETE if every obstruction up to ``_degree_limit()`` was built
        and resolved within budget, else BUDGET_EXHAUSTED.  Without a cap,
        COMPLETE means the queue drained with no degree left unbuilt."""
        if self.queue or self._requeue or self.tripped_limit \
                or self._frontier < self._degree_limit():
            return BUDGET_EXHAUSTED
        return COMPLETE

    # -- main loop -----------------------------------------------------------------

    # perfbench's tracer wraps ``process``, ``interreduce`` and
    # ``expand_steps`` by name, and CI asserts the counters it collects:
    # keep their names and signatures
    def process(self) -> bool:
        """Work the queue until one element was added, the queue is
        exhausted, or a budget tripped.  Returns True iff one was added."""
        elements = self.elements
        active = self._active
        queue = self.queue
        while True:
            if self._requeue:
                self._process_requeue()
            if not queue and not self._advance() or self._check_limits():
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
        """Expand element-level steps into generator-level ``(c, l, i, r)``
        with tuple words ``l`` and ``r``.

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

        spread(steps, {("", ""): 1})
        while newest:
            k = -heapq.heappop(newest)
            contexts = pending.pop(k)
            if contexts:
                spread(elements[k].steps, contexts)
        # each distinct word decoded once, so that the quads share them
        decode = self.decode_word
        words = {w: decode(w) for w in {w for contexts in out.values()
                                        for pair in contexts for w in pair}}
        return [(c, words[l], i, words[r]) for i, contexts in out.items()
                for (l, r), c in contexts.items()]

    def interreduce(self) -> None:
        """Reduce every active element against the others until stable.

        A worklist (Mora's interreduction): a min-heap holds the active
        indices not yet known to be irreducible, and the lowest is tried
        first.  A change pushes the elements it adds, and each element found
        irreducible before one of whose words contains a lead it adds;
        removing a lead never makes an element reducible.  So each change
        reduces the lowest active index that the other leads reduce, as a
        sweep from the lowest index restarted after every change would.
        """
        elements = self.elements
        active = self._active
        reducer = self.reducer
        todo = list(active)
        heapq.heapify(todo)
        irreducible: list = []
        while todo and not self.tripped_limit:
            # a normal form checks the deadline only every 256 steps, so a
            # run of short ones is stopped here
            if time.monotonic() > self._deadline:
                self.tripped_limit = "time_budget"
                return
            k = heapq.heappop(todo)
            if k not in active:
                continue
            lead = elements[k].lead
            reducer.del_entry(lead)  # reduce k by the others
            terms = elements[k].terms
            steps: list = [(1, "", k, "")]
            if not self.normal_form(terms, steps) or len(steps) == 1:
                # deadline struck or nothing reduced: restore
                reducer.set_entry(lead, k)
                if self.tripped_limit:
                    return
                irreducible.append(k)
                continue
            first = len(elements)
            self._deactivate(k)
            if terms:
                self._append(terms, steps)
            self._process_requeue()
            added = [m for m in range(first, len(elements)) if m in active]
            leads = [elements[m].lead for m in added]
            # an active element holds no added lead in its own lead (that
            # would have retired it), so only its tail words are searched
            kept = []
            for m in irreducible:
                if m not in active:
                    continue
                if any(v in w for w, _ in elements[m].tail for v in leads):
                    heapq.heappush(todo, m)
                else:
                    kept.append(m)
            irreducible = kept
            for m in added:
                heapq.heappush(todo, m)

    def run(self, claims) -> str:
        """Complete the basis while reducing each claim, a ``(terms,
        steps)`` pair with ``terms`` over engine words (see ``encode``), in
        place; a claim is proven once its terms are empty.

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
            elements = self.elements
            active = self._active
            first = len(elements)
            while pending and self.process():
                # a claim is irreducible by the leads of the last pass, and
                # retiring a lead makes no word reducible, so only a claim
                # holding a lead added since can reduce
                leads = [elements[m].lead
                         for m in range(first, len(elements)) if m in active]
                first = len(elements)
                pending = self._reduce_claims(pending, leads)
            # final pass against the last basis state; a full one, since a
            # deadline may have stopped a reduction halfway
            pending = self._reduce_claims(pending)
        status = self.status()
        if status == BUDGET_EXHAUSTED and not pending:
            return STOPPED_EARLY
        return status

    def _reduce_claims(self, claims, leads=None) -> list:
        """Reduce each claim by the current basis, or only the claims with
        one of ``leads`` in a word; returns those left."""
        for terms, steps in claims:
            if leads is None or any(v in w for w in terms for v in leads):
                self.normal_form(terms, steps)
        return [claim for claim in claims if claim[0]]
