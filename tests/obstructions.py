"""Reference obstruction enumeration, S-polynomials and a completion helper.

A pairwise scan over the basis leads on the kernel's ``batch_overlaps`` and
``self_overlaps``.  ``test_rewrite`` checks it against a brute-force
placement enumeration and uses it to check that a completed basis resolves
every S-polynomial; the completion engine itself finds overlaps through its
lead indexes.  ``ScanEngine`` is the engine on that pairwise scan, and
``complete`` drains an engine without claims and expands every basis
element back to the generators.
"""

import collections
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from opcert import _kernel_py
from opcert.freealg import (AlgebraError, DegLexOrder, Polynomial, Word,
                            normalize_coeff)
from opcert.rewrite import (COMPLETE, CompletionEngine, CompletionLimits,
                            TracedPolynomial, TraceStep)


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
        return [Obstruction(i, i, *row) for row in _kernel_py.self_overlaps(u)]
    return [Obstruction(row[0], j, *row[1:])
            for row in _kernel_py.batch_overlaps(v, [(i, u)])]


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
        leads.append(g.lead_word(order))
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
                 order: Optional[DegLexOrder] = None) -> TracedPolynomial:
    """Difference of the two padded, lead-normalized multiples.

    The leading terms cancel by construction; ``value = sum(trace)``.
    """
    order = order or basis[0].alg.default_order()
    gi, gj = basis[o.i], basis[o.j]
    alg = gi.alg
    ci = normalize_coeff(Fraction(1) / gi.lead_coeff(order))
    cj = normalize_coeff(Fraction(1) / gj.lead_coeff(order))
    left_i = alg.monomial(o.left_i, ci)
    left_j = alg.monomial(o.left_j, cj)
    value = left_i * gi * alg.monomial(o.right_i) \
        - left_j * gj * alg.monomial(o.right_j)
    trace = (TraceStep(ci, o.left_i, o.i, o.right_i),
             TraceStep(normalize_coeff(-cj), o.left_j, o.j, o.right_j))
    return TracedPolynomial(value, trace)


class ScanEngine(CompletionEngine):
    """Pairwise-scan enumeration; counts the events the tests must cover."""

    def __init__(self, *args, **kwargs):
        self.events = collections.Counter()
        super().__init__(*args, **kwargs)

    def _pair_rows(self, v, unreduced):
        rows = _kernel_py.batch_overlaps(v, list(self._active.items()))
        maxdeg = self.limits.max_degree
        for _, li, ri, lj, rj, overlap in rows:
            if lj == rj == ():
                # an active lead inside v: v itself, unpadded, on the j side
                self.events["containment"] += 1
            elif len(overlap) - maxdeg in (0, 1):
                # a partner at the degree cut (kept) or one letter beyond it
                index = "suffix" if li == () else "prefix"
                fate = "kept" if len(overlap) == maxdeg else "skipped"
                self.events[f"{index}_cut_{fate}"] += 1
        return [(i, len(li), len(lj), len(overlap))
                for i, li, _, lj, _, overlap in rows]

    def _retirees(self, lead):
        retirees = _kernel_py.find_retirees(lead, self._active.items())
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
    while engine.process():
        pass
    alg = generators[0].alg
    basis = []
    for k in engine.active_indices():
        trace = engine.expand_steps([TraceStep(1, (), k, ())])
        basis.append(TracedPolynomial(
            Polynomial._make(alg, engine.elements[k].terms), tuple(trace)))
    return basis, engine.status()
