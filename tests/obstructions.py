"""Reference obstruction enumeration, S-polynomials and a completion helper.

A pairwise scan over the basis leads on ``rewrite``'s ``batch_overlaps``
and ``self_overlaps``.  ``test_rewrite`` checks it against a brute-force
placement enumeration and uses it to check that a completed basis resolves
every S-polynomial; the completion engine itself finds overlaps through its
lead indexes.  ``ScanEngine`` is the engine on that pairwise scan, and
``complete`` drains an engine without claims and expands every basis
element back to the generators.  ``lead_word`` and ``lead_coeff`` read a
``Polynomial``'s leading term, which the engine finds on engine words.
``restart_interreduce`` is the reference for the engine's worklist
``interreduce``: a sweep from the lowest active index, restarted after
every change.  ``full_pass_run`` is the reference for
``CompletionEngine.run``: it reduces every pending claim after every
``process`` call.
"""

import collections
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from opcert.freealg import (AlgebraError, DegLexOrder, Polynomial, Word,
                            normalize_coeff)
from opcert.rewrite import (BUDGET_EXHAUSTED, COMPLETE, STOPPED_EARLY,
                            CompletionEngine, CompletionLimits,
                            batch_overlaps, find_retirees, self_overlaps)


def lead_word(p: Polynomial, order: DegLexOrder) -> Word:
    """The order-largest word of the nonzero polynomial ``p``."""
    if p.is_zero:
        raise AlgebraError("zero polynomial has no leading word")
    return max(p._terms, key=order.key)


def lead_coeff(p: Polynomial, order: DegLexOrder):
    """The coefficient of ``lead_word(p, order)``."""
    return p._terms[lead_word(p, order)]


@dataclass(frozen=True)
class Obstruction:
    """Overlap of two leading words: both padded products equal ``overlap``."""

    i: int
    j: int
    left_i: Word
    right_i: Word
    left_j: Word
    right_j: Word
    overlap: Word

    @property
    def degree(self) -> int:
        return len(self.overlap)


def _pair_obstructions(i: int, u: Word, j: int, v: Word):
    """All nontrivial overlaps between leading words u (index i) and v (j).

    For i == j only proper self-overlaps exist; for i < j we enumerate
    suffix/prefix overlaps in both orientations plus factor containments
    (including equal words).
    """
    if i == j:
        n = len(u)
        return [Obstruction(i, i, (), u[k:], u[:n - k], (), u + u[k:])
                for k in self_overlaps(u)]
    return [Obstruction(row[0], j, *row[1:])
            for row in batch_overlaps(v, [(i, u)])]


def find_obstructions(basis: Sequence[Polynomial],
                      order: Optional[DegLexOrder] = None) -> list:
    """Enumerate all self- and pairwise obstructions of the basis leads."""
    if not basis:
        return []
    order = order or basis[0].alg.default_order()
    leads = []
    for g in basis:
        if g.is_zero:
            raise AlgebraError("basis elements must be nonzero")
        leads.append(lead_word(g, order))
    seen = set()
    out = []
    for j in range(len(basis)):
        for i in range(j + 1):
            for ob in _pair_obstructions(i, leads[i], j, leads[j]):
                if ob not in seen:
                    seen.add(ob)
                    out.append(ob)
    return out


def s_polynomial(o: Obstruction, basis: Sequence[Polynomial],
                 order: Optional[DegLexOrder] = None) -> tuple:
    """Difference of the two padded, lead-normalized multiples, as the
    pair ``(value, steps)`` with ``value = sum(steps)``.

    The leading terms cancel by construction.
    """
    order = order or basis[0].alg.default_order()
    gi, gj = basis[o.i], basis[o.j]
    alg = gi.alg
    ci = normalize_coeff(Fraction(1) / lead_coeff(gi, order))
    cj = normalize_coeff(Fraction(1) / lead_coeff(gj, order))
    left_i = alg.monomial(o.left_i, ci)
    left_j = alg.monomial(o.left_j, cj)
    value = left_i * gi * alg.monomial(o.right_i) \
        - left_j * gj * alg.monomial(o.right_j)
    return value, ((ci, o.left_i, o.i, o.right_i),
                   (normalize_coeff(-cj), o.left_j, o.j, o.right_j))


class ScanEngine(CompletionEngine):
    """Pairwise-scan enumeration; counts the events the tests must cover.

    Rows come from ``batch_overlaps`` of an element's lead against every
    older active lead, when the element is added and at each frontier step;
    a frontier step takes its self-overlap rows from ``self_overlaps``.
    Before a degree is built, no active lead may be a factor of another."""

    def __init__(self, *args, **kwargs):
        self.events = collections.Counter()
        super().__init__(*args, **kwargs)

    def _pair_rows(self, j, lo, hi, cap=None):
        older = [(i, u) for i, u in self._active.items() if i < j]
        rows = []
        for i, li, ri, lj, rj, overlap in batch_overlaps(
                self.elements[j].lead, older):
            deg = len(overlap)
            if not (li or ri) or not (lj or rj):
                # one lead inside the other: only a generator's lead holds
                # one, and ``interreduce`` removes it before the first row
                assert self._frontier == 0
                self.events["containment"] += 1
                continue
            index = "suffix" if not li else "prefix"
            if cap is not None and deg > cap:
                self.stats.obstructions_skipped_degree += 1
                if deg == cap + 1:  # one letter beyond the cut
                    self.events[f"{index}_cut_skipped"] += 1
            if lo < deg <= hi:
                if deg == self.limits.max_degree:  # at the cut, built
                    self.events[f"{index}_cut_kept"] += 1
                rows.append((i, len(li), len(lj), deg))
        return rows

    def _advance(self):
        active = self._active
        for i, u in active.items():
            assert not find_retirees(
                u, [(m, w) for m, w in active.items() if m != i])
        self.events["lead_factors_checked"] += 1
        limit = self._degree_limit()
        while not self.queue and self._frontier < limit:
            if self._partners is None:
                self._index_leads()  # unread here, but ``_append`` keys on it
            d = self._frontier = self._frontier + 1
            for j, v in active.items():
                self._push_rows(j, self._pair_rows(j, d - 1, d))
                n = len(v)
                for k in self_overlaps(v):
                    if 2 * n - k == d:
                        self.queue.push(d, (j, j, 0, n - k))
        return bool(self.queue)

    def _retirees(self, lead):
        retirees = find_retirees(lead, self._active.items())
        digrams = [lead[t:t + 2] for t in range(len(lead) - 1)]
        held = {w[t:t + 2] for w in self._active.values()
                for t in range(len(w) - 1)}
        if len(retirees) > 1:
            self.events["several_retired"] += 1
        if len(lead) == 1 and retirees:
            self.events["one_letter_retires"] += 1
        if len(set(digrams)) < len(digrams) and retirees:
            self.events["repeated_digram_retires"] += 1
        if not held.issuperset(digrams):
            self.events["unheld_digram"] += 1
        return retirees

    def _retire(self, idx):
        self.events["retired"] += 1
        super()._retire(idx)

    def _deactivate(self, idx):
        self.events["deactivated"] += 1
        super()._deactivate(idx)


def complete(generators: Sequence[Polynomial],
             order: Optional[DegLexOrder] = None,
             limits: Optional[CompletionLimits] = None):
    """Bounded completion of the generator set.

    Returns ``(basis, status)`` where each basis element is a pair
    ``(value, steps)`` whose steps express it exactly in the original
    generators (``value = sum(steps)``), and status is ``"complete"`` when
    every obstruction (up to an explicit ``max_degree``) was built and
    reduced to zero within budget.
    """
    generators = list(generators)
    if not generators:
        return [], COMPLETE
    order = order or generators[0].alg.default_order()
    limits = limits or CompletionLimits()
    engine = CompletionEngine(list(enumerate(generators)), order, limits)
    engine.interreduce()
    while engine.process():
        pass
    alg = generators[0].alg
    basis = []
    for k in engine.active_indices():
        terms = engine.decode(engine.elements[k].terms)
        basis.append((Polynomial._make(alg, terms),
                      tuple(engine.expand_steps([(1, "", k, "")]))))
    return basis, engine.status()


def restart_interreduce(engine: CompletionEngine) -> None:
    """Reduce every active element of ``engine`` against the others until
    stable, by sweeps from the lowest active index; each change restarts
    the sweep, so the element reduced is the lowest one the others reduce."""
    changed = True
    guard = 0
    while changed and guard < 10_000 and not engine.tripped_limit:
        changed = False
        guard += 1
        for k in engine.active_indices():
            lead = engine.elements[k].lead
            engine.reducer.del_entry(lead)  # reduce k by the others
            terms = engine.elements[k].terms
            steps: list = [(1, "", k, "")]
            if not engine.normal_form(terms, steps) or len(steps) == 1:
                # deadline struck or nothing reduced: restore
                engine.reducer.set_entry(lead, k)
                if engine.tripped_limit:
                    return
                continue
            engine._deactivate(k)
            if terms:
                engine._append(terms, steps)
            engine._process_requeue()
            changed = True
            break


def full_pass_run(engine: CompletionEngine, claims) -> str:
    """``engine.run(claims)`` with every pending claim reduced after every
    ``process`` call, whichever leads it added."""
    def reduce_all(claims):
        for terms, steps in claims:
            engine.normal_form(terms, steps)
        return [claim for claim in claims if claim[0]]

    pending = reduce_all(claims)
    if pending:
        engine.interreduce()
        pending = reduce_all(pending)
        while pending and engine.process():
            pending = reduce_all(pending)
        pending = reduce_all(pending)
    status = engine.status()
    if status == BUDGET_EXHAUSTED and not pending:
        return STOPPED_EARLY
    return status
