"""Labelled quivers: the compatibility oracle for operator statements.

Edges carry unique indeterminate labels; a monomial is the label of a path
when consecutive letters chain (read right to left, the way operators apply),
and a polynomial is compatible when all its monomials are path labels sharing
one source and one target.  Compatibility of assumptions and claims is what
lets a ring-level certificate speak about matrices and operators with
domains and codomains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .freealg import AlgebraError, FreeAlgebra, Polynomial, Word


class _Wildcard:
    """Signature of the empty word: (v, v) for every vertex at once."""

    def __repr__(self):
        return "WILDCARD"


WILDCARD = _Wildcard()


class LabelledQuiver:
    """Directed multigraph with injectively labelled edges.

    ``edges`` maps label iid -> (source, target); vertex names are strings.
    Immutable after construction.
    """

    def __init__(self, alg: FreeAlgebra, vertices: Iterable[str],
                 edges: Iterable[tuple]):
        self.alg = alg
        self.vertices = tuple(dict.fromkeys(vertices))  # preserve order
        vset = set(self.vertices)
        table: dict = {}
        for label, src, tgt in edges:
            iid = alg.indeterminate(label).iid if isinstance(label, str) else label
            if not 0 <= iid < len(alg):
                raise AlgebraError(f"edge label id {iid} is not declared")
            if iid in table:
                raise AlgebraError(
                    f"label {alg.by_id(iid).name!r} used on two edges; labels "
                    "must be unique")
            if src not in vset or tgt not in vset:
                raise AlgebraError(f"edge {alg.by_id(iid).name}: {src} -> {tgt} "
                                   "references an undeclared vertex")
            table[iid] = (src, tgt)
        self.edges = table

    def signature(self, label) -> tuple:
        iid = self.alg.indeterminate(label).iid if isinstance(label, str) else label
        try:
            return self.edges[iid]
        except KeyError:
            raise AlgebraError(
                f"no edge labelled {self.alg.by_id(iid).name!r}") from None

    def __repr__(self):
        lines = [f"vertices {' '.join(self.vertices)}"]
        for iid, (s, t) in self.edges.items():
            lines.append(f"{self.alg.by_id(iid).name}: {s} -> {t}")
        return "\n".join(lines)


def path_signature(w: Word, q: LabelledQuiver):
    """(source, target) of the unique path labelled ``w``; None if no path.

    Letters compose right to left: the rightmost factor applies first.  The
    empty word is a path from any vertex to itself, reported as WILDCARD.
    """
    if not w:
        return WILDCARD
    edges = q.edges
    sig = None
    for x in reversed(w):
        edge = edges.get(x)
        if edge is None or sig is not None and edge[0] != sig[1]:
            return None
        sig = edge if sig is None else (sig[0], edge[1])
    return sig


@dataclass(frozen=True)
class Compatibility:
    ok: bool
    signature: object = None  # (source, target), WILDCARD, or None
    witness: tuple = ()       # offending monomial(s)
    reason: str = ""

    def __bool__(self):
        return self.ok


def compatible(p: Polynomial, q: LabelledQuiver) -> Compatibility:
    """Check that all monomials of ``p`` are path labels with one signature.

    Wildcards (constant terms) unify with any diagonal signature.  On failure
    the witness holds the first unpathable monomial, or the first pair of
    monomials with conflicting signatures.
    """
    alg = p.alg
    sig = WILDCARD
    sig_word = None
    for w in p.monomials():
        s = path_signature(w, q)
        if s is None:
            return Compatibility(False, None, (w,),
                                 f"monomial {alg.render_word(w)} is not the "
                                 "label of a path")
        if s is WILDCARD:
            continue
        if sig is WILDCARD:
            sig, sig_word = s, w
        elif s != sig:
            return Compatibility(False, None, (sig_word, w),
                                 f"monomials {alg.render_word(sig_word)} and "
                                 f"{alg.render_word(w)} have different "
                                 f"signatures {sig} vs {s}")
    if sig is not WILDCARD and () in p._terms and sig[0] != sig[1]:
        return Compatibility(False, None, ((),),
                             "constant monomial requires source = target, "
                             f"got {sig}")
    return Compatibility(True, sig)


# ---------------------------------------------------------------------------
# Signature inference
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def infer_signatures(polys: Sequence[Polynomial], alg: FreeAlgebra,
                     pinned: Optional[dict] = None) -> Optional[LabelledQuiver]:
    """Most general quiver making all polynomials compatible.

    Vertices are the classes of the endpoint slots ``("s", iid)`` and
    ``("t", iid)`` under the chaining and same-source/same-target
    constraints; adjoint partners are constrained to run reversed.  The
    vertices are listed in order of their first slot, letters taken in order
    of first occurrence, and the k-th is named ``v<k>`` unless a pin names
    it; a ``v<k>`` that is pinned, or already named, moves on to the next
    free ``v<k + 1>``, ``v<k + 2>``, ...  ``pinned`` may map iids to
    (source, target) vertex names, which join the classes as ``("v", name)``
    slots; the result is None exactly when two distinct pinned vertices are
    forced to merge (without pins, a quiver always exists, possibly
    collapsed).
    """
    uf = _UnionFind()
    occurring = dict.fromkeys(x for p in polys for w in p._terms for x in w)
    # adjoint edges run reversed
    for x in occurring:
        partner = alg.adjoint_id(x)
        if partner is not None and partner in occurring:
            uf.union(("s", x), ("t", partner))
            uf.union(("t", x), ("s", partner))
    for p in polys:
        poly_src = poly_tgt = None
        for w in p._terms:
            if not w:
                continue
            # chain inner endpoints (rightmost letter applies first)
            for a, b in zip(w, w[1:]):  # a left of b: source(a) = target(b)
                uf.union(("s", a), ("t", b))
            if poly_src is None:
                poly_src, poly_tgt = ("s", w[-1]), ("t", w[0])
            else:
                uf.union(poly_src, ("s", w[-1]))
                uf.union(poly_tgt, ("t", w[0]))
        if poly_src is not None and () in p._terms:
            uf.union(poly_src, poly_tgt)
    # pinned names: merge the named vertex into the class
    pinned = pinned or {}
    for iid, (src, tgt) in pinned.items():
        uf.union(("s", iid), ("v", src))
        uf.union(("t", iid), ("v", tgt))
    # two distinct pinned names in one class -> contradiction
    names_of_class: dict = {}
    for src, tgt in pinned.values():
        for name in (src, tgt):
            root = uf.find(("v", name))
            if names_of_class.setdefault(root, name) != name:
                return None
    # canonical vertex names, ordered by first slot appearance; a generated
    # name skips the pinned names and those generated before it
    taken = set(names_of_class.values())
    labels: dict = {}
    for x in occurring:
        for s in (("s", x), ("t", x)):
            root = uf.find(s)
            if root in labels:
                continue
            name = names_of_class.get(root)
            if name is None:
                k = len(labels) + 1
                while f"v{k}" in taken:
                    k += 1
                name = f"v{k}"
                taken.add(name)
            labels[root] = name
    edges = [(x, labels[uf.find(("s", x))], labels[uf.find(("t", x))])
             for x in occurring]
    return LabelledQuiver(alg, list(labels.values()), edges)


@dataclass
class ProblemCheck:
    ok: bool
    failures: list  # (name, Polynomial, Compatibility)
    adjoint_violations: list  # (label name, partner name)

    def __bool__(self):
        return self.ok


def check_problem(assumptions: Sequence[Polynomial],
                  claims: Sequence[Polynomial],
                  q: LabelledQuiver,
                  assumption_names: Optional[Sequence[str]] = None,
                  claim_names: Optional[Sequence[str]] = None) -> ProblemCheck:
    """Compatibility gate for a whole problem.

    Every assumption and claim must be compatible with ``q`` and adjoint-
    paired edges must run reversed; only then may a ring-level certificate be
    promoted to a statement about operators with these domains/codomains.
    """
    failures = []
    anames = list(assumption_names or
                  [f"F{i + 1}" for i in range(len(assumptions))])
    cnames = list(claim_names or [f"claim{i + 1}" for i in range(len(claims))])
    for name, p in list(zip(anames, assumptions)) + list(zip(cnames, claims)):
        comp = compatible(p, q)
        if not comp:
            failures.append((name, p, comp))
    adjoint_violations = []
    alg = q.alg
    for iid, (src, tgt) in q.edges.items():
        partner = alg.adjoint_id(iid)
        if partner is not None and partner in q.edges:
            if q.edges[partner] != (tgt, src):
                adjoint_violations.append(
                    (alg.by_id(iid).name, alg.by_id(partner).name))
    return ProblemCheck(not failures and not adjoint_violations,
                        failures, adjoint_violations)
