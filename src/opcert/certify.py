"""Ideal-membership certification and independent certificate checking.

``certify`` hands its claims to ``CompletionEngine.run``, which reduces them
while it builds the assumption ideal, and emits cofactor certificates.  ``verify_certificate``
re-expands a certificate using nothing but ring arithmetic from ``freealg`` —
it shares no machinery with reduction or completion, so a verified
certificate stands on its own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .freealg import (AlgebraError, DegLexOrder, FreeAlgebra, Polynomial,
                      add_terms)
from .rewrite import (BUDGET_EXHAUSTED, COMPLETE, CompletionEngine,
                      CompletionLimits)

CERT_FORMAT = "opcert-certificate/1"

CERTIFIED = "certified"


@dataclass(frozen=True)
class Summand:
    """One block ``left * assumption[index] * right`` of a certificate."""
    left: Polynomial
    index: int
    right: Polynomial


@dataclass(frozen=True)
class Certificate:
    """Two-sided cofactor representation of ``claim`` over ``assumptions``.

    Invariant (checked by ``verify_certificate``):
    ``sum(left * assumptions[index] * right) == claim``.  ``integral`` is True
    iff every cofactor coefficient is an integer, in which case the identity
    holds over any ring, not just over the rationals.  A used assumption
    with a nonzero constant term is valid only in a ``ring_level_only``
    certificate, which must not be transferred to operators.
    """

    claim: Polynomial
    assumptions: tuple
    assumption_names: tuple
    summands: tuple
    integral: bool
    ring_level_only: bool = False

    @property
    def used_indices(self) -> set:
        return {s.index for s in self.summands}

    @property
    def term_count(self) -> int:
        """Total number of elementary cofactor terms (certificate size)."""
        return sum(len(s.left) * len(s.right) for s in self.summands)


def scan_integral(summands: Sequence[Summand]) -> bool:
    return all(c.denominator == 1 for s in summands
               for p in (s.left, s.right) for c in p._terms.values())


def make_certificate(claim: Polynomial, assumptions: Sequence[Polynomial],
                     names: Sequence[str], summands: Sequence[Summand]) -> Certificate:
    return Certificate(claim, tuple(assumptions), tuple(names),
                       tuple(summands), scan_integral(summands))


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    reason: str = ""
    discrepancy: Optional[tuple] = None  # a word witnessing the mismatch

    def __bool__(self):
        return self.valid


def verify_certificate(cert: Certificate) -> VerificationResult:
    """Expand the cofactor sum and compare with the claim.

    Pure ring arithmetic; reports the order-largest discrepancy monomial on
    failure.  The integral flag is part of the certificate contract and is
    re-derived here as well.  A used assumption must have a zero constant
    term unless the certificate is ``ring_level_only``.
    """
    alg = cert.claim.alg
    for s in cert.summands:
        if not 0 <= s.index < len(cert.assumptions):
            return VerificationResult(False, f"summand index {s.index} out of range")
    if not cert.ring_level_only:
        for i in sorted(cert.used_indices):
            if cert.assumptions[i].constant_term:
                return VerificationResult(
                    False, f"assumption {cert.assumption_names[i]} has a "
                    "nonzero constant term and the certificate is not "
                    "marked ring_level_only")
    diff: dict = {}  # expansion minus claim, summed in place
    for s in cert.summands:
        terms = cert.assumptions[s.index]._terms
        for l, cl in s.left._terms.items():
            for r, cr in s.right._terms.items():
                add_terms(diff, terms.items(), cl * cr, l, r)
    add_terms(diff, cert.claim._terms.items(), -1)
    if diff:
        order = alg.default_order()
        worst = max(diff, key=order.key)
        return VerificationResult(
            False,
            f"expansion differs from claim at monomial {alg.render_word(worst)} "
            f"(coefficient {diff[worst]})",
            worst)
    if cert.integral != scan_integral(cert.summands):
        return VerificationResult(False, "integral flag does not match cofactors")
    return VerificationResult(True)


def minimize_certificate(cert: Certificate) -> Certificate:
    """Drop zero summands and merge summands sharing a cofactor side.

    Runs to a fixpoint on ``(left terms, index, right terms)`` triples; the
    expanded sum is unchanged, so validity is preserved.  Idempotent by
    construction.
    """
    alg = cert.claim.alg
    key = alg.default_order().key
    blocks = [(s.left._terms, s.index, s.right._terms)
              for s in cert.summands if s.left and s.right]
    while True:
        before = len(blocks)
        # sign-normalize the right cofactors so mergeable blocks line up;
        # only the sign moves (anything else could break integrality)
        blocks = [({w: -c for w, c in left.items()}, i,
                   {w: -c for w, c in right.items()})
                  if right[max(right, key=key)] < 0 else (left, i, right)
                  for left, i, right in blocks]
        blocks = _merge(blocks, 0)
        blocks = _merge(blocks, 2)
        if len(blocks) == before:
            break
    summands = [Summand(Polynomial._make(alg, left), i,
                        Polynomial._make(alg, right))
                for left, i, right in blocks]
    # merging only sums and negates coefficients: integral stays integral
    return replace(cert, summands=tuple(summands),
                   integral=cert.integral or scan_integral(summands))


def _merge(blocks: list, side: int) -> list:
    """Sum the other cofactors of the blocks with equal index and equal
    ``side`` cofactor (0 left, 2 right), in order of first occurrence, and
    drop the blocks whose sum is zero.  A block is kept as it is until a
    second one merges into it; only then are it and its ``other`` dict
    copied, so the input dicts stay untouched."""
    other = 2 - side
    merged: dict = {}
    for block in blocks:
        key = (block[1], frozenset(block[side].items()))
        acc = merged.get(key)
        if acc is None:
            merged[key] = block
            continue
        if type(acc) is tuple:
            acc = merged[key] = list(acc)
            acc[other] = dict(acc[other])
        add_terms(acc[other], block[other].items())
    return [tuple(b) for b in merged.values() if b[other]]


# ---------------------------------------------------------------------------
# The solver front door
# ---------------------------------------------------------------------------

class TermBoundExceeded(Exception):
    """A claim's trace is longer than ``certify``'s ``term_bounds`` allow."""


@dataclass
class ClaimResult:
    name: str
    claim: Polynomial
    status: str  # CERTIFIED or BUDGET_EXHAUSTED
    certificate: Optional[Certificate] = None
    remainder: Optional[Polynomial] = None  # irreducible part on failure

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


@dataclass
class CertifyStats:
    basis_size: int = 0
    obstructions_processed: int = 0
    elapsed: float = 0.0
    completion_status: str = COMPLETE
    # the completion limit that tripped, if one did (``CompletionLimits``
    # field name)
    tripped_limit: Optional[str] = None


@dataclass
class CertifyReport:
    results: list
    stats: CertifyStats


def _quads_to_summands(alg: FreeAlgebra, quads: Sequence[tuple],
                       order: DegLexOrder) -> list:
    """Summands adding up to ``-sum(quads)``: a claim reduced to zero by
    ``normal_form`` satisfies 0 = claim + sum(steps).  The quads are
    distinct (left, index, right) triples, as ``expand_steps`` gives them."""
    grouped: dict = {}
    for c, l, i, r in quads:
        grouped.setdefault((i, l), {})[r] = -c
    return [Summand(Polynomial._make(alg, {l: 1}), i,
                    Polynomial._make(alg, grouped[(i, l)]))
            for i, l in sorted(grouped, key=lambda k: (k[0], order.key(k[1])))]


def certify(assumptions: Sequence[Polynomial], claims: Sequence[Polynomial],
            order: Optional[DegLexOrder] = None,
            limits: Optional[CompletionLimits] = None, *,
            assumption_names: Optional[Sequence[str]] = None,
            claim_names: Optional[Sequence[str]] = None,
            require_zero_constant: bool = True,
            term_bounds: Optional[dict] = None) -> CertifyReport:
    """Prove each claim a member of the two-sided ideal of the assumptions.

    Every emitted certificate is minimized (``minimize_certificate``) and
    has passed ``verify_certificate``; a claim that cannot be certified
    within the budgets gets status ``budget_exhausted`` together with its
    irreducible remainder as a diagnostic.  Assumptions must
    have zero constant term: that hypothesis is what lets a certificate
    transfer to operators with domains and codomains.  Pass
    ``require_zero_constant=False`` for ring-level-only runs, which then must
    not be promoted to statements about such operators; a certificate that
    uses an assumption with a constant term is marked ``ring_level_only``.
    ``term_bounds`` (claim name -> most terms) stops at the first claim whose
    expanded trace is longer, with ``TermBoundExceeded``.
    """
    assumptions = list(assumptions)
    claims = list(claims)
    names = list(assumption_names) if assumption_names is not None else \
        [f"F{i + 1}" for i in range(len(assumptions))]
    cnames = list(claim_names) if claim_names is not None else \
        [f"claim{i + 1}" for i in range(len(claims))]
    if len(names) != len(assumptions) or len(cnames) != len(claims):
        raise ValueError("name lists must match assumption/claim lists")
    if require_zero_constant:
        for g, name in zip(assumptions, names):
            if g.constant_term:
                raise AlgebraError(
                    f"assumption {name} has a nonzero constant term; "
                    "transferring certificates to operators requires "
                    "assumptions without constant terms")
    if claims:
        alg = claims[0].alg
    elif assumptions:
        alg = assumptions[0].alg
    else:
        return CertifyReport([], CertifyStats())
    order = order or alg.default_order()
    limits = limits or CompletionLimits()

    start = time.monotonic()
    engine = CompletionEngine(list(enumerate(assumptions)), order, limits)

    pending = [(engine.encode(c._terms), []) for c in claims]
    completion_status = engine.run(pending)

    results = []
    for name, claim, (terms, steps) in zip(cnames, claims, pending):
        if terms:
            remainder = alg.poly(engine.decode(terms))
            results.append(ClaimResult(name, claim, BUDGET_EXHAUSTED,
                                       remainder=remainder))
            continue
        quads = engine.expand_steps(steps)
        # a term per quad: merging distinct (l, i, r) triples cancels none
        if term_bounds and len(quads) > term_bounds.get(name, len(quads)):
            raise TermBoundExceeded(name)
        summands = _quads_to_summands(alg, quads, order)
        cert = minimize_certificate(
            make_certificate(claim, assumptions, names, summands))
        if any(assumptions[i].constant_term for i in cert.used_indices):
            cert = replace(cert, ring_level_only=True)
        check = verify_certificate(cert)
        if not check:
            raise RuntimeError(
                f"internal error: solver produced an invalid certificate "
                f"for {name}: {check.reason}")
        results.append(ClaimResult(name, claim, CERTIFIED, certificate=cert))

    stats = CertifyStats(
        basis_size=len(engine.active_indices()),
        obstructions_processed=engine.stats.obstructions_processed,
        elapsed=time.monotonic() - start,
        completion_status=completion_status,
        tripped_limit=engine.tripped_limit)
    return CertifyReport(results, stats)


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------

def _ops_table(alg: FreeAlgebra) -> list:
    out = []
    for ind in alg:
        adjoint = None if ind.adjoint is None else alg.by_id(ind.adjoint).name
        out.append({"name": ind.name, "adjoint": adjoint})
    return out


_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", list: "list"}


def _field(obj: dict, key: str, kind: type):
    """``obj[key]`` if its JSON type is ``kind`` (so no boolean passes as int)."""
    if type(obj.get(key)) is not kind:
        raise AlgebraError(f"field {key!r} must be of type {_JSON_TYPES[kind]}")
    return obj[key]


def _objects(obj: dict, key: str) -> list:
    if any(type(item) is not dict for item in _field(obj, key, list)):
        raise AlgebraError(f"field {key!r} must be a list of objects")
    return obj[key]


def algebra_from_ops(ops: Sequence[dict]) -> FreeAlgebra:
    alg = FreeAlgebra()
    for entry in ops:
        name = _field(entry, "name", str)
        adjoint = None if entry.get("adjoint") is None \
            else _field(entry, "adjoint", str)
        if name in alg._by_name:  # declared already, as a partner or twice
            ind = alg.indeterminate(name)
            partner = None if ind.adjoint is None \
                else alg.by_id(ind.adjoint).name
            if adjoint != partner:
                raise AlgebraError(
                    f"ops entry {name!r}: adjoint {adjoint!r} contradicts "
                    f"the earlier declaration (adjoint {partner!r})")
            continue
        if adjoint is None:
            alg.add(name)
        elif adjoint == name:
            alg.add_self_adjoint(name)
        else:
            alg.add_pair(name, adjoint)
    return alg


def certificate_to_dict(cert: Certificate) -> dict:
    alg = cert.claim.alg
    data = {
        "format": CERT_FORMAT,
        "ops": _ops_table(alg),
        "claim": alg.render(cert.claim),
        "assumptions": [{"name": n, "expr": alg.render(p)}
                        for n, p in zip(cert.assumption_names, cert.assumptions)],
        "summands": [{"left": alg.render(s.left),
                      "index": s.index,
                      "assumption": cert.assumption_names[s.index],
                      "right": alg.render(s.right)}
                     for s in cert.summands],
        "integral": cert.integral,
    }
    if cert.ring_level_only:  # absent otherwise: older files keep their bytes
        data["ring_level_only"] = True
    return data


def certificate_from_dict(data: dict) -> Certificate:
    """Rebuild a certificate from its JSON form; any malformed shape raises
    ``AlgebraError`` naming the field."""
    if not isinstance(data, dict):
        raise AlgebraError("not a certificate file (JSON is not an object)")
    if data.get("format") != CERT_FORMAT:
        raise AlgebraError(f"not a certificate file (format {data.get('format')!r})")
    alg = algebra_from_ops(_objects(data, "ops"))
    entries = _objects(data, "assumptions")
    assumptions = tuple(alg.parse(_field(a, "expr", str)) for a in entries)
    names = tuple(_field(a, "name", str) for a in entries)
    claim = alg.parse(_field(data, "claim", str))
    summands = tuple(_summand_from_dict(alg, names, k, s)
                     for k, s in enumerate(_objects(data, "summands")))
    ring_level_only = "ring_level_only" in data and \
        _field(data, "ring_level_only", bool)
    return Certificate(claim, assumptions, names, summands,
                       _field(data, "integral", bool), ring_level_only)


def _summand_from_dict(alg: FreeAlgebra, names: tuple, k: int,
                       entry: dict) -> Summand:
    """Summand ``k``; its optional ``"assumption"`` label must name the
    assumption its index points to.  An index out of range is left to
    ``verify_certificate``."""
    left = alg.parse(_field(entry, "left", str))
    index = _field(entry, "index", int)
    if "assumption" in entry:
        label = _field(entry, "assumption", str)
        if 0 <= index < len(names) and label != names[index]:
            raise AlgebraError(
                f"summand {k} names assumption {label!r}, but its index "
                f"{index} is assumption {names[index]!r}")
    return Summand(left, index, alg.parse(_field(entry, "right", str)))


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_certificate(path) -> Certificate:
    """Read a certificate file; malformed content raises ``AlgebraError``
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return certificate_from_dict(json.load(fh))
    except (ValueError, RecursionError) as exc:  # AlgebraError; bad UTF-8, JSON
        raise AlgebraError(f"{path}: {exc}") from None
