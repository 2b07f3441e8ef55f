"""From operator statements to polynomial certification problems.

Property macros (the four defining equations of a Moore-Penrose inverse,
selected Penrose subsets, identity-element axioms, range-inclusion
factorizations, Hermitian and EP conditions), the involution closure of an
assumption set, quasi-identity workflow steps (star-cancellability), and the
problem file format tying them together.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Container, Iterable, Optional, Sequence

from .certify import Certificate, TermBoundExceeded, certify
from .freealg import (AdjointError, AlgebraError, DegLexOrder, FreeAlgebra,
                      LineError, ParseError, Polynomial, _adjoint_terms,
                      _times, add_terms, clip, normalize_coeff, read_text)
from .quiver import LabelledQuiver, ProblemCheck, check_problem, infer_signatures
from .rewrite import CompletionLimits


class WorkflowError(AlgebraError):
    """A quasi-identity step is malformed or has no candidate conclusion."""


class WorkflowLimitError(WorkflowError):
    """Candidates of a quasi-identity step were tried, and no witness
    certified within the completion limits."""


# ---------------------------------------------------------------------------
# Property macros
# ---------------------------------------------------------------------------

def penrose_equation(x: Polynomial, y: Polynomial, k: int) -> Polynomial:
    """k-th Penrose equation as a polynomial (k in 1..4): x·y·x − x,
    y·x·y − y, (x·y)* − x·y or (y·x)* − y·x, built on term dicts with the
    terms in the order the operator expressions give them."""
    if k not in (1, 2, 3, 4):
        raise ValueError("Penrose equations are numbered 1..4")
    x._require_same(y)
    a, b = (x._terms, y._terms) if k in (1, 3) else (y._terms, x._terms)
    ab = _times(a, b)
    if k < 3:  # a·b·a − a
        terms = _times(ab, a)
        add_terms(terms, a.items(), -1)
    else:      # (a·b)* − a·b
        terms = _adjoint_terms(x.alg, ab)
        add_terms(terms, ab.items(), -1)
    return Polynomial._make(x.alg, terms)


def ij_equations(x: Polynomial, y: Polynomial, subset: Iterable[int]) -> list:
    """The selected subset of Penrose equations (a {i,...,j}-inverse).

    The subset ``(1, 2, 3, 4)`` gives the Moore-Penrose inverse.  ``x`` may
    be a product (polynomial), e.g. a triple abc; equations 3 and 4 need
    every letter of x and y to carry an adjoint partner.
    """
    ks = sorted(set(subset))
    if not ks:
        raise AlgebraError("the equation subset must be nonempty")
    if not all(k in (1, 2, 3, 4) for k in ks):
        raise AlgebraError("Penrose equation selectors must lie in {1,2,3,4}")
    return [penrose_equation(x, y, k) for k in ks]


def identity_axioms(unit: Polynomial, neighbors: Sequence[tuple]) -> list:
    """Absorption axioms for an explicit identity element.

    ``neighbors`` holds (operator, side) pairs; side "right" means the unit
    i sits right of the operator (x·i = x), "left" the mirror.  The idempotency
    i·i - i is always included.  The unit is an ordinary indeterminate, never
    the empty word.
    """
    out = []
    for x, side in neighbors:
        if side == "right":
            out.append(x * unit - x)
        elif side == "left":
            out.append(unit * x - x)
        else:
            raise AlgebraError(f"neighbor side must be left or right, got {side!r}")
    out.append(unit * unit - unit)
    return out


def douglas_factorization(alg: FreeAlgebra, lhs: Polynomial, rhs: Polynomial,
                          witness_name: Optional[str] = None,
                          taken: Container[str] = ()):
    """Encode Ran(lhs) within Ran(rhs) as lhs = rhs.w with a fresh witness.

    Returns ``(witness, lhs - rhs*w)``; the witness indeterminate is created
    together with a fresh adjoint partner.  An automatic witness name avoids
    ``taken`` (a problem's defs) as well as the declared names.
    """
    name = witness_name or fresh_name(alg, taken=taken)
    w, _ = alg.add_pair(name)
    return w, lhs - rhs * alg.monomial((w.iid,))


def hermitian_condition(x: Polynomial) -> Polynomial:
    return x.adjoint() - x


def ep_condition(alg: FreeAlgebra, x: Polynomial,
                 taken: Container[str] = ()) -> list:
    """xR = x*R via two factorization witnesses: x = x*.s and x* = x.t."""
    xs = x.adjoint()
    s, p1 = douglas_factorization(alg, x, xs, taken=taken)
    t, p2 = douglas_factorization(alg, xs, x, taken=taken)
    return [(s, p1), (t, p2)]


def fresh_name(alg: FreeAlgebra, taken: Container[str] = ()) -> str:
    """The first ``"w" + k`` that, with its partner ``"w" + k + "*"``, names
    neither an indeterminate of ``alg`` nor anything in ``taken``."""
    k = 1
    while any(n in alg._by_name or n in taken for n in (f"w{k}", f"w{k}*")):
        k += 1
    return f"w{k}"


def _scalar_class(p: Polynomial) -> frozenset:
    """The terms of ``p`` divided by the coefficient of its largest word in
    plain tuple order: one key for all nonzero multiples of ``p``."""
    terms = p._terms
    lc = terms[max(terms)]
    if lc == 1:
        return frozenset(terms.items())
    if lc == -1:
        return frozenset((w, -c) for w, c in terms.items())
    return frozenset((w, normalize_coeff(Fraction(c) / lc))
                     for w, c in terms.items())


def _missing_adjoints(seen: set, new: Sequence[Polynomial]) -> list:
    """``(k, new[k].adjoint())`` for each adjoint that is no scalar multiple
    of a polynomial in ``seen`` or ``new`` nor of one met earlier; none for
    a partnerless letter.  ``seen`` holds ``_scalar_class`` keys, and those
    of ``new`` and of the adjoints returned are added to it."""
    seen.update(_scalar_class(p) for p in new if p)
    out = []
    for k, p in enumerate(new):
        if p.is_zero:
            continue
        try:
            q = p.adjoint()
        except AdjointError:
            continue
        key = _scalar_class(q)
        if key not in seen:
            seen.add(key)
            out.append((k, q))
    return out


# ---------------------------------------------------------------------------
# Quasi-identity workflow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CancellabilityStep:
    """Apply left/right star-cancellability of ``element`` (a monomial).

    right: z.e.e* = 0 implies z.e = 0; left is the mirror image.  The
    conclusion z.e is derived from the claims by ``apply_cancellability``.
    """

    side: str  # "left" | "right"
    element: Polynomial

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise WorkflowError(
                f"side must be left or right, got {self.side!r}")
        if len(self.element) != 1:
            raise WorkflowError(
                "cancellability element must be a single monomial")
        self.element.adjoint()  # AdjointError for a letter without a partner


def _cancellation_candidates(claims: Sequence[tuple]):
    """Each nonzero claim, then its adjoint ``name*`` if it has one."""
    for name, c in claims:
        if c.is_zero:
            continue
        yield name, c
        try:
            yield name + "*", c.adjoint()
        except AdjointError:
            pass


def apply_cancellability(step: CancellabilityStep,
                         assumptions: Sequence[Polynomial],
                         claims: Sequence[tuple],
                         order: Optional[DegLexOrder] = None,
                         limits: Optional[CompletionLimits] = None, *,
                         assumption_names: Optional[Sequence[str]] = None):
    """Derive the step's conclusion from the ``(name, polynomial)`` claims.

    Each candidate (a claim, then its adjoint) whose terms all carry the
    element's word at the step's end is a conclusion z.e (e.z on the left);
    its witness z.e.e* (e*.e.z) is certified in the current ideal.  Returns
    ``(source_name, conclusion, witness_certificate)`` for the first that
    certifies.  No assumption is added when none does: with no candidate of
    the step's shape it raises WorkflowError, else WorkflowLimitError naming,
    per candidate, the limit that stopped its completion, the explicit
    ``max_degree`` that completion ran to, or, without one, that the
    completion drained.
    """
    (eword,) = step.element._terms
    estar = step.element.adjoint()
    limits = limits or CompletionLimits()
    right = step.side == "right"
    tried = []
    for name, c in _cancellation_candidates(claims):
        if not all((w[len(w) - len(eword):] if right else w[:len(eword)])
                   == eword for w in c._terms):
            continue
        report = certify(list(assumptions),
                         [c * estar if right else estar * c], order, limits,
                         assumption_names=assumption_names,
                         claim_names=["witness"])
        res = report.results[0]
        if res.certified:
            return name, c, res.certificate
        tripped = report.stats.tripped_limit
        if tripped:
            why = f"completion stopped by {tripped}"
        elif limits.max_degree is None:
            why = "completion drained without certifying it"
        else:
            why = ("completion ran to its degree bound, "
                   f"max_degree {limits.max_degree}")
        tried.append(f"{name}: {why}")
    failure = (f"no claim gives a certified {step.side} cancellability "
               f"witness for {step.element.alg.render(step.element)}")
    if tried:
        raise WorkflowLimitError(
            f"{failure} within the completion limits ({'; '.join(tried)})")
    raise WorkflowError(f"{failure} (candidates tried: none has its shape)")


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class ProblemOptions:
    limits: CompletionLimits = field(default_factory=CompletionLimits)
    ranking: Optional[list] = None  # list of names for the order


@dataclass
class Problem:
    """A declared certification problem (operators, statements, workflow)."""

    algebra: FreeAlgebra
    defs: dict
    assumptions: list   # (name, Polynomial)
    claims: list        # (name, Polynomial)
    quiver: Optional[LabelledQuiver] = None  # None: inferred by translate
    workflow: list = field(default_factory=list)
    options: ProblemOptions = field(default_factory=ProblemOptions)

    def order(self) -> DegLexOrder:
        if self.options.ranking:
            return DegLexOrder.from_names(self.algebra, self.options.ranking)
        return self.algebra.default_order()


@dataclass
class WorkflowReport:
    step: CancellabilityStep
    conclusion_name: str
    certificate: Certificate
    source: str  # the claim, or claim adjoint ``name*``, concluded


@dataclass
class Translation:
    """translate() output: the polynomial-level problem, ready to certify."""

    algebra: FreeAlgebra
    assumption_names: list
    assumptions: list
    claim_names: list
    claims: list
    quiver: LabelledQuiver
    quiver_check: ProblemCheck
    workflow_reports: list
    order: DegLexOrder
    options: ProblemOptions


def translate(problem: Problem) -> Translation:
    """Expand a problem into assumption/claim polynomials plus the quiver.

    Applies the involution closure, runs workflow steps in order (each step
    adjoins a claim whose witness is certified against the current
    assumption set, monotonically enlarging the ideal), and infers or
    validates the quiver.
    """
    alg = problem.algebra
    order = problem.order()
    opts = problem.options
    names = [n for n, _ in problem.assumptions]
    polys = [p for _, p in problem.assumptions]

    seen: set = set()  # the scalar classes of polys

    def close_from(first):
        # append the adjoints of polys[first:] not yet present
        for k, q in _missing_adjoints(seen, polys[first:]):
            names.append(names[first + k] + "*")
            polys.append(q)

    close_from(0)
    reports = []
    for k, step in enumerate(problem.workflow, start=1):
        source, conclusion, cert = apply_cancellability(
            step, polys, problem.claims, order, opts.limits,
            assumption_names=names)
        base = f"step{k}"
        names.append(base)
        polys.append(conclusion)
        close_from(len(polys) - 1)
        reports.append(WorkflowReport(step, base, cert, source))
    claims = [p for _, p in problem.claims]
    claim_names = [n for n, _ in problem.claims]
    quiver = problem.quiver
    if quiver is None:
        quiver = infer_signatures(polys + claims, alg)
    qcheck = check_problem(polys, claims, quiver,
                           assumption_names=names, claim_names=claim_names)
    return Translation(alg, names, polys, claim_names, claims, quiver, qcheck,
                       reports, order, opts)


def certify_claims(trans: Translation, term_bounds: Optional[dict] = None):
    """``certify`` the claims of a translation; returns the CertifyReport."""
    return certify(trans.assumptions, trans.claims, trans.order,
                   trans.options.limits,
                   assumption_names=trans.assumption_names,
                   claim_names=trans.claim_names, term_bounds=term_bounds)


def run_problem(problem: Problem):
    """translate + certify_claims; returns (Translation, CertifyReport)."""
    trans = translate(problem)
    return trans, certify_claims(trans)


def ranking_names(trans: Translation) -> list:
    """Every letter of ``trans``, lowest rank first: a full ``order``
    option for the ranking it ran under."""
    names = trans.algebra.names
    ranking = trans.order.ranking
    return names if ranking is None else \
        [n for _, n in sorted(zip(ranking, names))]


def seeded_rankings(problem: Problem, orders: int) -> list:
    """Candidates 1..orders of ``search_rankings``: candidate k is the
    declared letters, in declaration order, shuffled by random.Random(k)."""
    out = []
    for k in range(1, orders + 1):
        names = list(problem.algebra.names)
        random.Random(k).shuffle(names)
        out.append(names)
    return out


def _term_counts(report) -> dict:
    return {r.name: r.certificate.term_count
            for r in report.results if r.certified}


def search_rankings(problem: Problem, orders: int,
                    trans: Optional[Translation] = None):
    """run_problem under the problem's own ranking (candidate 0, whose
    translation may be passed in as ``trans``) and the ``orders`` seeded
    rankings of ``seeded_rankings``; returns ``(k, Translation,
    CertifyReport)`` of the winner.

    Candidate k qualifies if it certifies every claim that candidate 0
    certifies, each with no more terms; the fewest terms in total over
    those claims win, ties going to the lower k.  A seeded candidate under
    which a workflow step fails is skipped, and so is one whose trace of a
    claim is longer than candidate 0's certificate of it.  Each run keeps
    the problem's limits.
    """
    if trans is None:
        trans = translate(problem)
    best = (0, trans, certify_claims(trans))
    bound = _term_counts(best[2])
    best_total = sum(bound.values())
    for k, ranking in enumerate(seeded_rankings(problem, orders), start=1):
        candidate = replace(problem, options=replace(problem.options,
                                                     ranking=ranking))
        try:
            trans_k = translate(candidate)
            report_k = certify_claims(trans_k, bound)
        except (WorkflowError, TermBoundExceeded):  # WorkflowLimitError too
            continue
        counts = _term_counts(report_k)
        if all(name in counts and counts[name] <= n
               for name, n in bound.items()):
            total = sum(counts[name] for name in bound)
            if total < best_total:
                best, best_total = (k, trans_k, report_k), total
    return best


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_SECTIONS = ("ops", "defs", "quiver", "assume", "workflow", "claim", "options")
_SUBSET_RE = re.compile(r"\{([0-9,\s]*)\}")


ProblemFileError = LineError  # every problem-file error names its line


def _split_top_level(text: str) -> list:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def load_problem(path) -> Problem:
    return parse_problem(read_text(path))


def parse_problem(text: str) -> Problem:
    """Parse the sectioned problem format (see README for the grammar).

    The line helpers raise ``AlgebraError``; the one handler here turns it
    into a ``ProblemFileError`` naming the line, echoed input cut short.
    Defs, operators and witnesses share one namespace.  A name may be used
    before the line that declares it, so quiver edges and the ``order``
    option are checked after the last line, each still reported at its own
    line.  A signature is stated only in the ``[quiver]`` section; without
    one, ``translate`` infers the most general quiver.
    """
    alg = FreeAlgebra()
    problem = Problem(alg, {}, [], [])
    section = None
    vertices: list = []
    edges: list = []  # (label, source, target)
    edge_lines: list = []
    order_line = 0
    saw_quiver = False
    auto_names = {"assume": 0, "claim": 0}
    taken: set = set()  # the statement names so far, assumptions and claims
    line_no = 0
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise AlgebraError(f"unknown section [{section}]")
                saw_quiver = saw_quiver or section == "quiver"
                continue
            if section is None:
                raise AlgebraError("content before any [section]")
            if section == "ops":
                _parse_op_line(alg, line)
            elif section == "defs":
                name, _, body = map(str.strip, line.partition("="))
                if not _is_name(name) or not body:
                    raise AlgebraError("defs lines read: name = expression")
                if name in alg._by_name or name in problem.defs:
                    raise AlgebraError(f"name {name!r} already taken")
                problem.defs[name] = _expr(problem, body)
            elif section == "quiver" and (  # a label may begin "vertices"
                    m := re.match(r"(.+?):(.+?)->(.+)", line)):
                edges.append(tuple(g.strip() for g in m.groups()))
                edge_lines.append(line_no)
            elif section == "quiver" and line.split()[0] == "vertices":
                vertices.extend(line.split()[1:])
            elif section == "quiver":
                raise AlgebraError("quiver edges read: label : source -> "
                                   "target; vertices lines: vertices NAME ...")
            elif section in ("assume", "claim"):
                _parse_statement_line(problem, section, line, auto_names,
                                      taken)
            elif section == "workflow":
                _parse_workflow_line(problem, line)
            elif section == "options":
                _parse_option_line(problem, line)
                if line.split()[0] == "order":
                    order_line = line_no
            clash = problem.defs.keys() & alg._by_name.keys()
            if clash:
                raise AlgebraError(f"name {min(clash)!r} already taken")
        if saw_quiver:
            # each prefix of the edge list is checked, so a bad edge is
            # reported at its own line
            for k, line_no in enumerate(edge_lines, start=1):
                LabelledQuiver(alg, vertices, edges[:k])
            problem.quiver = LabelledQuiver(alg, vertices, edges)
        if order_line:
            line_no = order_line
            problem.order()  # every ranked name must be declared
    except AlgebraError as exc:
        message = clip(str(exc), 120)
        if isinstance(exc, ParseError) and exc.text:
            message += f" in {clip(exc.text)!r}"
        raise ProblemFileError(message, line_no) from None
    return problem


def _is_name(s: str) -> bool:
    return bool(s) and " " not in s and "=" not in s


def _expr(problem: Problem, text: str) -> Polynomial:
    return problem.algebra.parse(text, defs=problem.defs)


def _parse_op_line(alg: FreeAlgebra, line: str) -> None:
    """Declare the line's operator, with its adjoint partner if it has one."""
    words = line.split()
    if len(words) == 1:
        alg.add(words[0])
    elif len(words) == 2 and words[1] == "selfadjoint":
        alg.add_self_adjoint(words[0])
    elif len(words) == 2 and words[1] == "adjoint":
        alg.add_pair(words[0])
    elif len(words) == 3 and words[1] == "adjoint":
        alg.add_pair(words[0], words[2])
    else:
        raise AlgebraError(
            "ops lines read: name [adjoint [partner] | selfadjoint]; "
            "signatures go in the [quiver] section")


_MACROS = ("mp", "inv", "id", "douglas", "hermitian", "ep")


def _parse_statement_line(problem, section, line, auto_names, taken):
    """Append the line's statements to its section's list.  ``taken``
    holds the names of the statements before it; theirs are added."""
    name = None
    body = line
    eq = line.find("=")
    if eq > 0:
        candidate = line[:eq].strip()
        if _is_name(candidate) and not any(
                candidate.startswith(m + "(") for m in _MACROS):
            # ``a·b = b·a`` or ``m = a·b`` is an equation, not a label
            if re.search("[-·*+−()]", candidate) or candidate in \
                    problem.algebra._by_name.keys() | problem.defs.keys():
                raise AlgebraError(f"label {candidate!r} is an expression; "
                                   "write an equation as lhs − rhs")
            name, body = candidate, line[eq + 1:].strip()
    m = re.match(r"([a-z]+)\((.*)\)\s*$", body)
    if m and m.group(1) in _MACROS:
        produced = _expand_macro(problem, m.group(1), m.group(2))
        if name is not None:
            produced = [(f"{name}.{k + 1}" if len(produced) > 1 else name, p)
                        for k, (_, p) in enumerate(produced)]
    else:
        if name is None:
            auto_names[section] += 1
            prefix = "f" if section == "assume" else "claim"
            name = f"{prefix}{auto_names[section]}"
        produced = [(name, _expr(problem, body))]
    target = problem.assumptions if section == "assume" else problem.claims
    for n, p in produced:
        if n in taken:
            raise AlgebraError(f"duplicate statement name {n!r}")
        taken.add(n)
        target.append((n, p))


def _expand_macro(problem, macro, args):
    alg = problem.algebra
    if macro in ("mp", "inv"):
        parts = _split_top_level(args)
        if macro == "mp":  # the {1,2,3,4}-inverse, labelled mp(x,y).k
            if len(parts) != 2:
                raise AlgebraError("mp takes two arguments")
            parts.append("{1,2,3,4}")
        if len(parts) != 3:
            raise AlgebraError("inv takes (x, y, {i,...,j})")
        sub = _SUBSET_RE.fullmatch(parts[2].replace(" ", ""))
        if not sub:
            raise AlgebraError("inv subset reads {1,3}")
        try:
            ks = [int(s) for s in sub.group(1).split(",") if s]
        except ValueError:  # more digits than Python converts from a string
            raise AlgebraError("inv subset entry too long") from None
        x, y = _expr(problem, parts[0]), _expr(problem, parts[1])
        label = f"{macro}({parts[0]},{parts[1]})"
        return [(f"{label}.{k}", p)
                for k, p in zip(sorted(set(ks)), ij_equations(x, y, ks))]
    if macro == "id":
        head, _, tail = args.partition(";")
        unit = _expr(problem, head.strip())
        neighbors = []
        for item in _split_top_level(tail):
            if not item:
                continue
            nm, _, side = item.partition(":")
            neighbors.append((_expr(problem, nm.strip()), side.strip()))
        label = f"id({head.strip()})"
        return [(f"{label}.{k}", p) for k, p in
                enumerate(identity_axioms(unit, neighbors), start=1)]
    if macro == "douglas":
        witness = None
        parts = _split_top_level(args)
        if len(parts) == 2:
            wm = re.match(r"witness\s+(\S+)$", parts[1])
            if not wm:
                raise AlgebraError(
                    "douglas reads douglas(lhs ⊆ rhs[, witness name])")
            witness = wm.group(1)
        elif len(parts) != 1:
            raise AlgebraError("douglas takes one inclusion")
        rel = parts[0]
        for sym, flip in (("⊆", False), ("<=", False),
                          ("⊇", True), (">=", True)):
            if sym in rel:
                lhs_s, rhs_s = rel.split(sym, 1)
                break
        else:
            raise AlgebraError("douglas needs ⊆/⊇ (or <=/>=)")
        lhs, rhs = _expr(problem, lhs_s.strip()), _expr(problem, rhs_s.strip())
        if flip:
            lhs, rhs = rhs, lhs
        w, p = douglas_factorization(alg, lhs, rhs, witness, problem.defs)
        return [(f"douglas({w.name})", p)]
    if macro == "hermitian":
        x = _expr(problem, args.strip())
        return [(f"hermitian({args.strip()})", hermitian_condition(x))]
    if macro == "ep":
        x = _expr(problem, args.strip())
        out = []
        for w, p in ep_condition(alg, x, problem.defs):
            out.append((f"ep({args.strip()},{w.name})", p))
        return out
    raise AlgebraError(f"unknown macro {macro}")


def _parse_workflow_line(problem, line):
    m = re.match(r"cancel\s+(left|right)\s+(.+)$", line)
    if not m:
        raise AlgebraError("workflow lines read: cancel left|right ELEM")
    problem.workflow.append(
        CancellabilityStep(m.group(1), _expr(problem, m.group(2))))


# ``CompletionLimits`` field -> type of its problem-file value
_LIMIT_OPTIONS = {"max_iterations": int, "max_basis_size": int,
                  "time_budget": float}


def _parse_option_line(problem, line):
    opts = problem.options
    key, *rest = line.split()
    if key == "order":
        if not rest:
            raise AlgebraError("option 'order' names no indeterminate")
        opts.ranking = rest
    elif key not in _LIMIT_OPTIONS:
        raise AlgebraError(f"unknown option {key!r}")
    elif not rest:
        raise AlgebraError(f"bad value for option {key!r}")
    else:
        try:  # CompletionLimits rejects a value that is not positive
            opts.limits = replace(opts.limits,
                                  **{key: _LIMIT_OPTIONS[key](rest[0])})
        except ValueError:
            raise AlgebraError(f"bad value for option {key!r}") from None
