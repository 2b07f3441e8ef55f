"""Statement macros, involution closure, cancellability workflow, problems."""

import pytest

from opcert.certify import TermBoundExceeded
from opcert.freealg import AdjointError, AlgebraError, FreeAlgebra
from opcert.rewrite import CompletionLimits
from opcert import statements
from opcert.statements import (CancellabilityStep, ProblemFileError,
                               WorkflowError, WorkflowLimitError,
                               _missing_adjoints,
                               apply_cancellability, certify_claims,
                               douglas_factorization,
                               ep_condition, hermitian_condition,
                               identity_axioms, ij_equations, parse_problem,
                               translate)
from conftest import FIXTURES


def involution_closure(polys):
    """Input polynomials plus their adjoints, deduplicated up to sign and
    scalar multiple (symmetry equations are their own negatives), by the
    helper ``translate`` closes its assumptions with."""
    polys = list(polys)
    return polys + [q for _, q in _missing_adjoints(set(), polys)]


@pytest.fixture
def mp_algebra():
    A = FreeAlgebra()
    A.add_pair("a")
    A.add_pair("a†")
    return A


# -- macros -------------------------------------------------------------------

def test_mp_equations_exact(mp_algebra):
    A = mp_algebra
    eqs = ij_equations(A.parse("a"), A.parse("a†"), (1, 2, 3, 4))
    assert eqs == [
        A.parse("a·a†·a − a"),
        A.parse("a†·a·a† − a†"),
        A.parse("a†*·a* − a·a†"),
        A.parse("a*·a†* − a†·a"),
    ]


def test_mp_equations_accept_products():
    A = FreeAlgebra()
    for n in ("a", "b", "c", "m~"):
        A.add_pair(n)
    m = A.parse("a·b·c")
    eqs = ij_equations(m, A.parse("m~"), (1, 2, 3, 4))
    assert eqs[0] == A.parse("a·b·c·m~·a·b·c − a·b·c")


def test_mp_equations_self_adjoint_slot():
    A = FreeAlgebra()
    x = A.add_self_adjoint("x")
    A.add_pair("y")
    eqs = ij_equations(A.parse("x"), A.parse("y"), (1, 2, 3, 4))
    # (xy)* − xy with x* = x
    assert eqs[2] == A.parse("y*·x − x·y")


def test_penrose_equation_matches_operator_form():
    """The term-dict construction gives the polynomial, terms in the same
    order, of the operator expressions it replaces, cancellation included;
    only equations 3 and 4 need adjoints."""
    A = FreeAlgebra()
    A.add_pair("a")
    A.add_pair("b")
    A.add("u")
    operator_forms = {1: lambda x, y: x * y * x - x,
                      2: lambda x, y: y * x * y - y,
                      3: lambda x, y: (x * y).adjoint() - x * y,
                      4: lambda x, y: (y * x).adjoint() - y * x}
    pairs = [("a·b + 2·a − 1/2", "b* − a*·a + 3"), ("a", "a*"),
             ("1", "1"), ("a·a* + a*·a", "b − b*")]
    for xs, ys in pairs:
        x, y = A.parse(xs), A.parse(ys)
        for k, form in operator_forms.items():
            got, want = statements.penrose_equation(x, y, k), form(x, y)
            assert list(got._terms.items()) == list(want._terms.items())
    x, y = A.parse("a·u"), A.parse("b")
    assert statements.penrose_equation(x, y, 1) == x * y * x - x
    for k in (3, 4):
        with pytest.raises(AdjointError):
            statements.penrose_equation(x, y, k)
    with pytest.raises(ValueError):
        statements.penrose_equation(x, y, 5)
    with pytest.raises(AlgebraError):
        statements.penrose_equation(x, FreeAlgebra().one(), 1)


def test_ij_equations_subsets(mp_algebra):
    A = mp_algebra
    a, g = A.parse("a"), A.parse("a†")
    assert ij_equations(a, g, {1}) == [A.parse("a·a†·a − a")]
    assert len(ij_equations(a, g, {1, 2, 3})) == 3
    # the selectors are a set: order and repeats do not matter
    assert ij_equations(a, g, [4, 2, 2, 3, 1]) == \
        ij_equations(a, g, (1, 2, 3, 4))
    with pytest.raises(AlgebraError):
        ij_equations(a, g, set())
    with pytest.raises(AlgebraError):
        ij_equations(a, g, {5})


def test_identity_axioms_werner(werner_algebra):
    A = werner_algebra
    out = identity_axioms(A.parse("i"), [
        (A.parse("a"), "right"), (A.parse("a⁻"), "left"),
        (A.parse("b"), "left"), (A.parse("b⁻"), "right")])
    assert out == [A.parse("a·i − a"), A.parse("i·a⁻ − a⁻"),
                   A.parse("i·b − b"), A.parse("b⁻·i − b⁻"),
                   A.parse("i·i − i")]


def test_identity_axioms_empty_neighbors(werner_algebra):
    A = werner_algebra
    assert identity_axioms(A.parse("i"), []) == [A.parse("i·i − i")]


def test_identity_axioms_closure_adds_adjoints():
    A = FreeAlgebra()
    A.add_pair("a")
    A.add_self_adjoint("j")
    out = identity_axioms(A.parse("j"), [(A.parse("a"), "right")])
    closed = involution_closure(out)
    assert A.parse("j·a* − a*") in closed


def test_douglas_factorization_creates_fresh_pair():
    A = FreeAlgebra()
    A.add_pair("x")
    A.add_pair("y")
    before = len(A)
    w, poly = douglas_factorization(A, A.parse("x"), A.parse("y"))
    assert len(A) == before + 2  # witness and its adjoint
    assert A.adjoint_id(w.iid) is not None
    assert poly == A.parse("x") - A.parse("y") * A.monomial((w.iid,))


def test_hermitian_condition(paired_algebra):
    A = paired_algebra
    x = A.parse("a·b")
    assert hermitian_condition(x) == A.parse("b*·a* − a·b")
    # syntactically self-adjoint expressions vanish
    assert hermitian_condition(A.parse("a·a*")).is_zero


def test_ep_condition_two_witnesses(paired_algebra):
    A = paired_algebra
    out = ep_condition(A, A.parse("a"))
    assert len(out) == 2
    (s, p1), (t, p2) = out
    assert s.iid != t.iid
    assert p1 == A.parse("a") - A.parse("a*") * A.monomial((s.iid,))
    assert p2 == A.parse("a*") - A.parse("a") * A.monomial((t.iid,))


def test_involution_closure(paired_algebra):
    A = paired_algebra
    f = A.parse("a·a*·a − a")
    sym = A.parse("(a·b)* − a·b")
    closed = involution_closure([f, sym])
    # f gains its adjoint; sym is its own negative and is not duplicated
    assert closed == [f, sym, f.adjoint()]
    assert involution_closure(closed) == closed  # idempotent
    assert involution_closure([]) == []


def test_fresh_witness_naming_is_deterministic():
    def build():
        A = FreeAlgebra()
        A.add_pair("x")
        w1, p1 = douglas_factorization(A, A.parse("x"), A.parse("x"))
        w2, p2 = douglas_factorization(A, A.parse("x"), A.parse("x"))
        return A, (w1, p1), (w2, p2)

    A1, (w1a, p1a), (w2a, p2a) = build()
    A2, (w1b, p1b), (w2b, p2b) = build()
    assert (w1a.name, w2a.name) == (w1b.name, w2b.name) == ("w1", "w2")
    # alpha-stability: the two runs create structurally identical output
    assert p1a.terms() == p1b.terms()
    assert p2a.terms() == p2b.terms()


# -- cancellability ---------------------------------------------------------------

@pytest.fixture
def cancel_algebra():
    A = FreeAlgebra()
    for n in ("m", "z"):
        A.add_pair(n)
    A.add("u")  # no adjoint partner
    return A


def test_cancellation_step_checks_its_element(cancel_algebra):
    A = cancel_algebra
    CancellabilityStep("left", A.parse("2·m"))  # a coefficient is allowed
    with pytest.raises(WorkflowError, match="single monomial"):
        CancellabilityStep("right", A.parse("m + z"))
    with pytest.raises(WorkflowError, match="single monomial"):
        CancellabilityStep("right", A.parse("0"))
    with pytest.raises(WorkflowError, match="left or right"):
        CancellabilityStep("up", A.parse("m"))
    with pytest.raises(AdjointError):
        CancellabilityStep("right", A.parse("m·u"))


def test_apply_cancellability_success(cancel_algebra):
    A = cancel_algebra
    # right: z·m·m* = 0 gives z·m = 0
    step = CancellabilityStep("right", A.parse("m"))
    source, conclusion, cert = apply_cancellability(
        step, [A.parse("z·m·m*")], [("g", A.parse("z·m"))])
    assert (source, conclusion) == ("g", A.parse("z·m"))
    assert cert.claim == A.parse("z·m·m*")
    # left, with a coefficient on the element: 2·m*·m·z = 0 gives m·z = 0
    step = CancellabilityStep("left", A.parse("2·m"))
    source, conclusion, cert = apply_cancellability(
        step, [A.parse("m*·m·z")], [("g", A.parse("m·z"))])
    assert (source, conclusion) == ("g", A.parse("m·z"))
    assert cert.claim == A.parse("2·m*·m·z")
    # a claim's adjoint: m*·z* does not end with m, its adjoint z·m does
    step = CancellabilityStep("right", A.parse("m"))
    source, conclusion, _ = apply_cancellability(
        step, [A.parse("z·m·m*")], [("g", A.parse("m*·z*"))])
    assert (source, conclusion) == ("g*", A.parse("z·m"))


def test_cancellation_skips_zero_and_partnerless_claims(cancel_algebra):
    # a zero claim would trivially pass the shape filter and certify; a
    # claim with the partnerless u is offered without its adjoint
    A = cancel_algebra
    step = CancellabilityStep("right", A.parse("m"))
    claims = [("zero", A.parse("0")), ("h", A.parse("u")),
              ("g", A.parse("z·m"))]
    source, _, _ = apply_cancellability(step, [A.parse("z·m·m*")], claims)
    assert source == "g"
    with pytest.raises(WorkflowError, match="none has its shape"):
        apply_cancellability(step, [A.parse("z·m·m*")], claims[:2])


def test_apply_cancellability_failure_adds_nothing(cancel_algebra):
    A = cancel_algebra
    step = CancellabilityStep("right", A.parse("m"))
    assumptions = [A.parse("m·m* − m")]
    # a tried candidate makes the failure a limit's: each candidate names
    # the limit that stopped its completion, or the degree bound it reached
    claims = [("g", A.parse("z·m")), ("h", A.parse("m*·z*"))]
    with pytest.raises(WorkflowLimitError) as err:
        apply_cancellability(step, assumptions, claims,
                             limits=CompletionLimits(max_degree=6,
                                                     time_budget=5))
    assert str(err.value) == (
        "no claim gives a certified right cancellability witness for m "
        "within the completion limits (g: completion ran to its degree "
        "bound, max_degree 6; h*: completion ran to its degree bound, "
        "max_degree 6)")
    assert assumptions == [A.parse("m·m* − m")]
    # without a cap, a completion that no limit stopped has drained
    with pytest.raises(WorkflowLimitError) as err:
        apply_cancellability(step, assumptions, claims,
                             limits=CompletionLimits(time_budget=5))
    assert str(err.value).endswith(
        "(g: completion drained without certifying it; h*: completion "
        "drained without certifying it)")
    with pytest.raises(WorkflowLimitError, match=r"\(g: completion stopped "
                                                 r"by max_iterations; h\*: "):
        apply_cancellability(step, [A.parse("m·m·m − m")], claims,
                             limits=CompletionLimits(max_iterations=1))
    # z·m − m·z has a term without m's word at the end: it is no candidate,
    # though its would-be witness lies in the ideal
    assumptions = [A.parse("z·m·m* − m·z·m*")]
    with pytest.raises(WorkflowError, match="none has its shape") as err:
        apply_cancellability(step, assumptions,
                             [("g", A.parse("z·m − m·z"))])
    assert not isinstance(err.value, WorkflowLimitError)


# -- problems and translate ---------------------------------------------------------

def test_translate_empty_problem():
    prob = parse_problem("[ops]\nx\n")
    trans = translate(prob)
    assert trans.assumptions == [] and trans.claims == []


def test_translate_werner_fixture():
    prob = parse_problem((FIXTURES / "werner.prob").read_text(encoding="utf-8"))
    trans = translate(prob)
    assert len(trans.algebra) == 5
    assert len(trans.assumptions) == 8
    assert trans.quiver is not None and len(trans.quiver.vertices) == 3
    assert trans.quiver_check.ok


def test_translate_hartwig_counts():
    prob = parse_problem(
        (FIXTURES / "hartwig_v_to_i.prob").read_text(encoding="utf-8"))
    trans = translate(prob)
    assert len(trans.algebra) == 22
    assert len(trans.assumptions) == 34
    assert len(trans.quiver.vertices) == 4
    assert len(trans.quiver.edges) == 22
    assert trans.quiver_check.ok


def test_translate_runs_workflow_and_grows_ideal():
    prob = parse_problem(
        (FIXTURES / "thm2_3_v_to_i.prob").read_text(encoding="utf-8"))
    trans = translate(prob)
    assert len(trans.workflow_reports) == 1
    report = trans.workflow_reports[0]
    assert report.certificate.integral
    assert report.source == "mp(m,m~).1"
    names = set(trans.assumption_names)
    assert "step1" in names and "step1*" in names


def test_translate_always_closes_under_the_involution():
    # no [options]: an assumption whose letters all have partners gains its
    # adjoint, one with the partnerless u gains none and raises nothing, a
    # self-adjoint one is not repeated, and a workflow conclusion gains its
    # adjoint too
    trans = translate(parse_problem(
        "[ops]\nm adjoint\nz adjoint\nu\n"
        "[assume]\nf = m·m* − m\nh = u·m − m\nk = z·m·m*\n"
        "s = m·m* − m*·m\n"
        "[workflow]\ncancel right m\n[claim]\ng = z·m\n"))
    A = trans.algebra
    assert trans.assumption_names == \
        ["f", "h", "k", "s", "f*", "k*", "step1", "step1*"]
    assert trans.assumptions[4:] == [
        A.parse("m·m* − m*"), A.parse("m·m*·z*"), A.parse("z·m"),
        A.parse("m*·z*")]
    assert [r.source for r in trans.workflow_reports] == ["g"]


def test_problem_parse_errors_carry_line_numbers():
    with pytest.raises(ProblemFileError) as err:
        parse_problem("[ops]\na\n[assume]\nf = a·nope\n")
    assert err.value.line_no == 4
    with pytest.raises(ProblemFileError):
        parse_problem("[nope]\n")
    with pytest.raises(ProblemFileError):
        parse_problem("x = 3\n")  # content before any section
    with pytest.raises(ProblemFileError) as err2:
        parse_problem("[ops]\na\n[options]\nmax_iterations zero\n")
    assert "max_iterations" in str(err2.value)
    # the long form of a workflow line is gone; a step's element is checked
    # when the line is read
    for line, message in (
            ("cancel right m witness m·m* conclude m", "unknown name 'witness'"),
            ("cancel right m + z", "single monomial"),
            ("cancel right u", "has no adjoint"),
            ("cancel m", "workflow lines read")):
        with pytest.raises(ProblemFileError, match=message) as err:
            parse_problem(
                f"[ops]\nm adjoint\nz adjoint\nu\n[workflow]\n{line}\n")
        assert err.value.line_no == 6


@pytest.mark.parametrize("option", [
    "max_iterations 0", "max_iterations -1", "time_budget nan",
    "max_basis_size",
    # the degree cap is no problem option: ``--max-degree`` sets one for an
    # experiment
    "max_degree 0", "max_degree", "max_degree 16",
    # nor is the involution closure: ``translate`` always applies it
    "closure on", "closure off",
    # nor a constant term: ``certify`` refuses every assumption with one
    "allow_constant_terms on"])
def test_bad_option_value_names_its_line(option):
    with pytest.raises(ProblemFileError) as err:
        parse_problem(f"[ops]\na\n[options]\norder a\n{option}\n")
    assert err.value.line_no == 5
    assert str(err.value).startswith("line 5: ")
    key = option.split()[0]
    assert key in str(err.value)
    if key in ("max_degree", "closure", "allow_constant_terms"):
        assert f"unknown option '{key}'" in str(err.value)


def test_problem_duplicate_and_clashing_names():
    with pytest.raises(ProblemFileError):
        parse_problem("[ops]\na\na\n")
    with pytest.raises(ProblemFileError):
        parse_problem("[ops]\na\n[defs]\na = a\n")
    with pytest.raises(ProblemFileError):
        parse_problem("[ops]\na\n[assume]\nf = a\nf = a + a\n")


def test_auto_named_witness_skips_a_def_of_that_name():
    # the claim means the def w1, so douglas's fresh witness becomes w2
    text = ("[ops]\na adjoint\nb adjoint\n[defs]\n{name} = a·a*\n"
            "[assume]\ndouglas(a ⊆ b{witness})\nep(a)\n"
            "[claim]\ng = {name} − a·a*\n")
    problem = parse_problem(text.format(name="w1", witness=""))
    assert [n for n, _ in problem.assumptions] == \
        ["douglas(w2)", "ep(a,w3)", "ep(a,w4)"]
    problem = parse_problem(text.format(name="v1", witness=""))
    assert [n for n, _ in problem.assumptions] == \
        ["douglas(w1)", "ep(a,w2)", "ep(a,w3)"]
    # a witness named explicitly is taken as written
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text.format(name="w1", witness=", witness w1"))
    assert err.value.line_no == 7
    assert str(err.value) == "line 7: name 'w1' already taken"


def test_operator_declared_after_a_def_of_its_name_is_rejected():
    text = ("[ops]\na\n[defs]\nx = a·a\n[ops]\nx\n"
            "[claim]\ng = x − a·a\n")
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text)
    assert err.value.line_no == 6
    assert str(err.value) == "line 6: name 'x' already taken"


_QUIVER_TEXT = ("[quiver]\nvertices v1 v2\na : v1 -> v2\nb : v2 -> v1\n"
                "[ops]\na\nb\n[claim]\ng = a·b\n")


@pytest.mark.parametrize("edit,line_no,message", [
    (("a : v1 -> v2", "a : v1 -> v9"), 3, "undeclared vertex"),
    (("b : v2 -> v1", "c : v2 -> v1"), 4, "unknown indeterminate 'c'"),
    (("b : v2 -> v1", "a : v2 -> v1"), 4, "used on two edges"),
    (("b : v2 -> v1", "b - v2 -> v1"), 4, "quiver edges read"),
])
def test_quiver_errors_name_the_edge_line(edit, line_no, message):
    with pytest.raises(ProblemFileError) as err:
        parse_problem(_QUIVER_TEXT.replace(*edit))
    assert err.value.line_no == line_no
    assert message in str(err.value)


def test_vertices_keyword_is_a_whole_word():
    with pytest.raises(ProblemFileError) as err:
        parse_problem("[ops]\na\n[quiver]\nverticesfoo v1 v2\n"
                      "a : v1 -> v2\n")
    assert str(err.value).startswith("line 4: quiver edges read: ")
    quiver = parse_problem("[ops]\nverticesx\n[quiver]\nvertices v1 v2\n"
                           "verticesx : v1 -> v2\n").quiver
    assert quiver.vertices == ("v1", "v2")
    assert quiver.signature("verticesx") == ("v1", "v2")


def test_quiver_may_precede_the_ops_it_labels():
    quiver = parse_problem(_QUIVER_TEXT).quiver
    assert quiver.signature("a") == ("v1", "v2")
    assert quiver.signature("b") == ("v2", "v1")


def test_echoed_expression_is_cut_short():
    long_expr = "a·" * 500 + "nope"
    with pytest.raises(ProblemFileError) as err:
        parse_problem(f"[ops]\na\n[assume]\nf = {long_expr}\n")
    message = str(err.value)
    assert message.startswith("line 4: unknown name 'nope' (at offset 1000) "
                              "in 'a·a·a·")
    assert message.endswith("…'") and len(message) < 200
    with pytest.raises(ProblemFileError) as err:
        parse_problem("[ops]\na\n[assume]\nf = " + "(" * 5000 + "a\n")
    assert str(err.value).startswith(
        "line 4: expression nested too deeply in '(((")
    assert len(str(err.value)) < 200


def test_problem_options_and_order():
    prob = parse_problem(
        "[ops]\nb\na\n[assume]\nf = a·b − b·a\n[claim]\ng = a·b\n"
        "[options]\nmax_iterations 7\ntime_budget 9\norder a b\n")
    assert prob.options.limits.max_iterations == 7
    assert prob.options.limits.max_degree is None
    assert prob.options.limits.time_budget == 9
    order = prob.order()
    a, b = prob.algebra.word("a")[0], prob.algebra.word("b")[0]
    assert order.ranking[a] < order.ranking[b]


def test_order_naming_an_undeclared_operator_names_its_line():
    text = "[options]\norder a zz\n[ops]\na\n[claim]\ng = a\n"
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text)
    assert str(err.value) == "line 2: unknown indeterminate 'zz'"
    # the order may rank operators declared below it
    parse_problem(text.replace(" zz", "")).order()


def test_order_naming_an_operator_twice_names_its_line():
    text = "[ops]\na\nb\n[claim]\ng = a\n[options]\norder b a b\n"
    with pytest.raises(ProblemFileError) as err:
        parse_problem(text)
    assert str(err.value) == "line 7: order ranks 'b' twice"
    order = parse_problem(text.replace(" a b", " a")).order()
    assert order.ranking == (1, 0)  # b ranked first


@pytest.mark.parametrize("line", ["order", "order  # no names"])
def test_order_without_names_names_its_line(line):
    # a bare ``order`` line once meant the declaration ranking
    with pytest.raises(ProblemFileError) as err:
        parse_problem(f"[ops]\na\n[claim]\ng = a\n[options]\n{line}\n")
    assert str(err.value) == "line 6: option 'order' names no indeterminate"


def _term_counts(report):
    return [r.certificate.term_count for r in report.results]


def _unbounded_search(monkeypatch, problem):
    """``search_rankings`` with every candidate certified in full (no term
    bounds); returns its result and each candidate's term counts, in
    order."""
    runs = []

    def recorded(trans, term_bounds=None):
        report = certify_claims(trans)
        runs.append(_term_counts(report))
        return report

    with monkeypatch.context() as m:
        m.setattr(statements, "certify_claims", recorded)
        return statements.search_rankings(problem, 32), runs


def test_ranking_search_grows_no_claim(monkeypatch):
    # the first of thm2_5's seeded rankings with the fewest total terms
    # grows claim 4 from 70 to 72 terms; a later one, with the same total,
    # grows none and wins
    problem = statements.load_problem(FIXTURES / "thm2_5.prob")
    (k, trans, report), (own, *runs) = _unbounded_search(monkeypatch, problem)
    assert own == [18, 101, 74, 70] and len(runs) == 32
    shortest = runs.index(min(runs, key=sum)) + 1
    assert runs[shortest - 1] == [16, 86, 68, 72] and shortest < k
    assert _term_counts(report) == runs[k - 1] == [16, 86, 72, 68]
    assert statements.ranking_names(trans) == \
        statements.seeded_rankings(problem, k)[-1]


def test_ranking_search_stops_a_candidate_at_its_bound(monkeypatch):
    # under term bounds, the candidate that grows thm2_5's claim 4 stops
    # after its trace expansion, and the same candidate wins as without
    problem = statements.load_problem(FIXTURES / "thm2_5.prob")
    (k0, _, report0), (_, *runs) = _unbounded_search(monkeypatch, problem)
    stopped = []

    def recorded(trans, term_bounds=None):
        try:
            return certify_claims(trans, term_bounds)
        except TermBoundExceeded as exc:
            stopped.append((statements.ranking_names(trans), exc.args[0]))
            raise

    monkeypatch.setattr(statements, "certify_claims", recorded)
    k, _, report = statements.search_rankings(problem, 32)
    assert (k, _term_counts(report)) == (k0, _term_counts(report0))
    shortest = runs.index(min(runs, key=sum)) + 1
    rankings = statements.seeded_rankings(problem, 32)
    assert (rankings[shortest - 1], "mp(m,m~).4") in stopped
    # only candidates that cannot qualify stop: each has a claim over its
    # bound in the unbounded run
    assert len(stopped) == sum(
        any(n > m for n, m in zip(counts, [18, 101, 74, 70]))
        for counts in runs)


@pytest.mark.parametrize("subset", ["{1,2,3}junk", "{1}{2}"])
def test_inv_subset_is_the_whole_third_argument(subset):
    with pytest.raises(ProblemFileError) as err:
        parse_problem(f"[ops]\na\nb\n[assume]\ninv(a, b, {subset})\n")
    assert str(err.value) == "line 5: inv subset reads {1,3}"
