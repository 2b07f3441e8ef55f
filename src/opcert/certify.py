"""Ideal-membership certification and independent certificate checking.

``certify`` builds the assumption ideal with the bounded completion engine,
reduces each claim, and emits cofactor certificates.  ``verify_certificate``
re-expands a certificate using nothing but ring arithmetic from ``freealg`` —
it shares no machinery with reduction or completion, so a verified
certificate stands on its own.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .freealg import (AlgebraError, DegLexOrder, FreeAlgebra, Polynomial,
                      add_terms)
from .rewrite import (BUDGET_EXHAUSTED, COMPLETE, STOPPED_EARLY,
                      CompletionEngine, CompletionLimits, TraceStep)

CERT_FORMAT = "opcert-certificate/1"

CERTIFIED = "certified"


@dataclass(frozen=True)
class Summand:
    """One block ``left * assumption[index] * right`` of a certificate."""
    left: Polynomial
    index: int
    right: Polynomial


def _poly_is_integral(p: Polynomial) -> bool:
    return all(c.denominator == 1 for c in p._terms.values())


@dataclass(frozen=True)
class Certificate:
    """Two-sided cofactor representation of ``claim`` over ``assumptions``.

    Invariant (checked by ``verify_certificate``):
    ``sum(left * assumptions[index] * right) == claim``.  ``integral`` is True
    iff every cofactor coefficient is an integer, in which case the identity
    holds over any ring, not just over the rationals.
    """

    claim: Polynomial
    assumptions: tuple
    assumption_names: tuple
    summands: tuple
    integral: bool

    @property
    def used_indices(self) -> set:
        return {s.index for s in self.summands}

    @property
    def term_count(self) -> int:
        """Total number of elementary cofactor terms (certificate size)."""
        return sum(len(s.left) * len(s.right) for s in self.summands)


def scan_integral(summands: Sequence[Summand]) -> bool:
    return all(_poly_is_integral(s.left) and _poly_is_integral(s.right)
               for s in summands)


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
    re-derived here as well.
    """
    alg = cert.claim.alg
    diff: dict = {}  # expansion minus claim, summed in place
    for s in cert.summands:
        if not 0 <= s.index < len(cert.assumptions):
            return VerificationResult(False, f"summand index {s.index} out of range")
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

    Runs to a fixpoint; the expanded sum is unchanged, so validity is
    preserved.  Idempotent by construction.
    """
    summands = [s for s in cert.summands if s.left and s.right]
    while True:
        before = len(summands)
        # sign-normalize the right cofactors so mergeable blocks line up;
        # only the sign moves (anything else could break integrality)
        order = cert.claim.alg.default_order()
        summands = [Summand(-1 * s.left, s.index, -1 * s.right)
                    if s.right.lead_coeff(order) < 0 else s
                    for s in summands]
        by_left: dict = {}
        for s in summands:
            key = (s.index, s.left)
            by_left[key] = by_left.get(key, s.right.alg.zero()) + s.right
        summands = [Summand(left, i, right)
                    for (i, left), right in by_left.items() if right]
        by_right: dict = {}
        for s in summands:
            key = (s.index, s.right)
            by_right[key] = by_right.get(key, s.left.alg.zero()) + s.left
        summands = [Summand(left, i, right)
                    for (i, right), left in by_right.items() if left]
        if len(summands) == before:
            break
    return Certificate(cert.claim, cert.assumptions, cert.assumption_names,
                       tuple(summands), scan_integral(summands))


# ---------------------------------------------------------------------------
# The solver front door
# ---------------------------------------------------------------------------

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


@dataclass
class CertifyReport:
    results: list
    stats: CertifyStats
    used_assumption_indices: set = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return all(r.certified for r in self.results)

    def result(self, name: str) -> ClaimResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _quads_to_summands(alg: FreeAlgebra, quads: Sequence[TraceStep],
                       order: DegLexOrder) -> list:
    """Summands adding up to ``-sum(quads)``: a claim reduced to zero by
    ``normal_form`` satisfies 0 = claim + sum(steps)."""
    grouped: dict = {}
    for c, l, i, r in quads:
        add_terms(grouped.setdefault((i, l), {}), ((r, c),), -1)
    return [Summand(alg.monomial(l), i, alg.poly(grouped[(i, l)]))
            for i, l in sorted(grouped, key=lambda k: (k[0], order.key(k[1])))]


def certify(assumptions: Sequence[Polynomial], claims: Sequence[Polynomial],
            order: Optional[DegLexOrder] = None,
            limits: Optional[CompletionLimits] = None, *,
            assumption_names: Optional[Sequence[str]] = None,
            claim_names: Optional[Sequence[str]] = None,
            require_zero_constant: bool = True) -> CertifyReport:
    """Prove each claim a member of the two-sided ideal of the assumptions.

    Every emitted certificate is minimized (``minimize_certificate``) and
    has passed ``verify_certificate``; a claim that cannot be certified
    within the budgets gets status ``budget_exhausted`` together with its
    irreducible remainder as a diagnostic.  Assumptions must
    have zero constant term: that hypothesis is what lets a certificate
    transfer to operators with domains and codomains.  Pass
    ``require_zero_constant=False`` for ring-level-only runs, which then must
    not be promoted to statements about such operators.
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
        return CertifyReport([], CertifyStats(), set())
    order = order or alg.default_order()
    limits = limits or CompletionLimits()

    start = time.monotonic()
    engine = CompletionEngine(list(enumerate(assumptions)), order, limits)

    states = [{"name": n, "claim": c, "terms": dict(c._terms), "steps": [],
               "done": False} for n, c in zip(cnames, claims)]

    def attempt(state) -> None:
        if engine.normal_form(state["terms"], state["steps"]) \
                and not state["terms"]:
            state["done"] = True

    # First pass against the raw generators: direct reductions keep the
    # cofactor attribution on the assumptions as stated (and are cheap).
    for st in states:
        attempt(st)
    if not all(st["done"] for st in states):
        engine.interreduce()
        while True:
            for st in states:
                if not st["done"]:
                    attempt(st)
            if all(st["done"] for st in states):
                break
            if not engine.process():
                break
        for st in states:  # final pass against the last basis state
            if not st["done"]:
                attempt(st)

    results = []
    used: set = set()
    for st in states:
        if st["done"]:
            quads = engine.expand_steps(st["steps"])
            summands = _quads_to_summands(alg, quads, order)
            cert = minimize_certificate(
                make_certificate(st["claim"], assumptions, names, summands))
            check = verify_certificate(cert)
            if not check:
                raise RuntimeError(
                    f"internal error: solver produced an invalid certificate "
                    f"for {st['name']}: {check.reason}")
            used |= cert.used_indices
            results.append(ClaimResult(st["name"], st["claim"], CERTIFIED,
                                       certificate=cert))
        else:
            results.append(ClaimResult(
                st["name"], st["claim"], BUDGET_EXHAUSTED,
                remainder=alg.poly(st["terms"])))

    completion_status = engine.status()
    if completion_status == BUDGET_EXHAUSTED and \
            all(r.certified for r in results):
        completion_status = STOPPED_EARLY
    stats = CertifyStats(
        basis_size=len(engine.active_indices()),
        obstructions_processed=engine.stats.obstructions_processed,
        elapsed=time.monotonic() - start,
        completion_status=completion_status)
    return CertifyReport(results, stats, used)


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
    return {
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
    summands = tuple(Summand(alg.parse(_field(s, "left", str)),
                             _field(s, "index", int),
                             alg.parse(_field(s, "right", str)))
                     for s in _objects(data, "summands"))
    return Certificate(claim, assumptions, names, summands,
                       _field(data, "integral", bool))


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
