"""Free-algebra arithmetic, parsing, the involution, and the deglex order."""

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from opcert.certify import algebra_from_ops, certificate_to_dict
from opcert.freealg import (AdjointError, AlgebraError, DegLexOrder,
                            FreeAlgebra, ParseError, add_terms)
from opcert.statements import parse_problem, run_problem
from parse_oracle import oracle_parse


# -- parsing ----------------------------------------------------------------

def test_parse_inner_inverse_identity(werner_algebra):
    A = werner_algebra
    p = A.parse("a·a⁻·a − a")
    assert p.terms() == {A.word("a", "a⁻", "a"): 1, A.word("a"): -1}


def test_parse_zero(werner_algebra):
    assert werner_algebra.parse("0").is_zero


def test_parse_product_adjoint():
    A = FreeAlgebra()
    A.add_pair("a", "a'")
    A.add_pair("b", "b'")
    p = A.parse("(a·b)*")
    assert p.terms() == {A.word("b'", "a'"): 1}


def test_parse_rationals_and_juxtaposition(werner_algebra):
    A = werner_algebra
    assert A.parse("1/2·a + 2a") == A.parse("5/2 a")
    assert A.parse("2(a + b) − a") == A.parse("a + 2·b")


def test_parse_unknown_name(werner_algebra):
    with pytest.raises(ParseError) as err:
        werner_algebra.parse("a·nope")
    assert "nope" in str(err.value)


def test_parse_adjoint_unpaired(werner_algebra):
    with pytest.raises(ParseError) as err:
        werner_algebra.parse("a*")
    assert "'a' has no adjoint" in str(err.value)


def test_parse_reports_offset(werner_algebra):
    with pytest.raises(ParseError) as err:
        werner_algebra.parse("a + )")
    assert err.value.position == 4


def test_parse_deep_nesting_is_a_parse_error(werner_algebra):
    with pytest.raises(ParseError):
        werner_algebra.parse("(" * 5000 + "a" + ")" * 5000)
    assert werner_algebra.parse("(" * 50 + "a" + ")" * 50) == \
        werner_algebra.parse("a")


@pytest.mark.parametrize("text", ["a·²", "2²", "a ³"])
def test_parse_non_ascii_digit_is_a_parse_error(werner_algebra, text):
    # str.isdigit accepts superscripts, which int() then rejects
    with pytest.raises(ParseError):
        werner_algebra.parse(text)


# -- the parser against the reference parser ---------------------------------

_PA = FreeAlgebra()
_PA.add_pair("a")             # partner "a*", read as a then a star
_PA.add_pair("b", "b†")
_PA.add_self_adjoint("s")
_PA.add("u")                  # no partner: a star on it is an error
_PA.add("u⁻")
_PDEFS = {"D": _PA.parse("a·u − 1/2 s")}


def _agrees_with_oracle(alg, text, defs=None):
    """``alg.parse`` gives the reference value, or its exact ParseError; the
    render-form reader gives None or that value.  Both store an integral
    coefficient as an int."""
    read = alg._read_rendered(text)
    try:
        want = oracle_parse(alg, text, defs)
    except ParseError as exc:
        assert read is None
        with pytest.raises(ParseError) as err:
            alg.parse(text, defs)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
        return None
    got = alg.parse(text, defs).terms()
    assert got == want.terms()
    assert all(type(c) is int for c in got.values() if c.denominator == 1)
    assert read is None or (read == got and all(
        type(c) is int for c in read.values() if c.denominator == 1))
    return got


@pytest.mark.parametrize("text, value", [
    ("b *", "b†"),
    ("a**", "a"),
    ("(a·b)*", "b†·a*"),
    ("2 a·D·b*", "2 a·a·u·b† − a·s·b†"),
    ("1/2·a + 1/2 a", "a"),
])
def test_parse_fixed_cases(text, value):
    assert _agrees_with_oracle(_PA, text, _PDEFS) == _PA.parse(value).terms()


@pytest.mark.parametrize("text, message, position", [
    ("a·b·nope", "unknown name 'nope'", 4),
    ("a·b u *", "indeterminate 'u' has no adjoint", 6),
    ("a·D* b", "indeterminate 'u' has no adjoint", 3),
    ("b·ab", "unknown name 'ab'", 2),
    ("a··b", "unexpected '·'", 2),
    ("3/ a", "expected nonzero integer denominator", 3),
    ("(a b", "unexpected end of expression", 4),
])
def test_parse_errors_in_letter_runs(text, message, position):
    with pytest.raises(ParseError) as err:
        _PA.parse(text, _PDEFS)
    assert (str(err.value), err.value.position) == \
        (f"{message} (at offset {position})", position)
    _agrees_with_oracle(_PA, text, _PDEFS)


@pytest.mark.parametrize("text", ["x·y*", "x*·x"])
def test_add_pair_refuses_a_starred_partner_other_than_name_star(text):
    # render would write x's partner "y*", which the grammar reads as y, *
    A = FreeAlgebra()
    for partner in ("y*", "x**", "*x", "y*z"):
        with pytest.raises(AlgebraError) as err:
            A.add_pair("x", partner)
        assert str(err.value) == (f"adjoint partner {partner!r} of 'x': a "
                                  "partner name may hold '*' only as 'x*'")
    assert len(A) == 0
    A.add_pair("x", "x*")
    A.add_pair("a†", "a†*")
    assert A.names == ["x", "x*", "a†", "a†*"]
    _agrees_with_oracle(A, text)
    _agrees_with_oracle(A, A.render(A.parse("x*·x·a†*")))


# repeats weight the draw towards texts that parse
_NAME_TEXT = st.sampled_from(["a", "a", "b", "b", "b†", "s", "s", "u", "u⁻",
                              "x", "D", "nope"])
_NUMBER_TEXT = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 6)).map("{0[0]}/{0[1]}".format))
_STARS_TEXT = st.lists(st.sampled_from(["*", " *", "\t*"]), max_size=2).map("".join)
_TIMES_TEXT = st.sampled_from(["·", "·", " ", " · ", "", "·\n"])
_PLUS_TEXT = st.sampled_from([" + ", " - ", " − ", "+", "-", "−"])


@st.composite
def _expression_texts(draw, depth=2):
    out = [draw(st.sampled_from(["", "-", "+ ", "− "]))]
    for t in range(draw(st.integers(1, 3))):
        if t:
            out.append(draw(_PLUS_TEXT))
        for f in range(draw(st.integers(1, 4))):
            if f:
                out.append(draw(_TIMES_TEXT))
            kind = draw(st.integers(0, 4 if depth else 3))
            if kind <= 2:
                out.append(draw(_NAME_TEXT))
            elif kind == 3:
                out.append(draw(_NUMBER_TEXT))
            else:
                out.append(f"({draw(_expression_texts(depth - 1))})")
            out.append(draw(_STARS_TEXT))
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(_expression_texts(), st.booleans())
def test_parse_matches_oracle_on_generated_texts(text, with_defs):
    _agrees_with_oracle(_PA, text, _PDEFS if with_defs else None)


def _fixture_expressions():
    """(algebra, defs, text) for the expressions of two fixture files."""
    cert = json.loads((FIXTURES / "werner_paper.cert").read_text("utf-8"))
    alg = algebra_from_ops(cert["ops"])
    out = [(alg, None, cert["claim"])]
    out += [(alg, None, a["expr"]) for a in cert["assumptions"]]
    out += [(alg, None, s[side]) for s in cert["summands"]
            for side in ("left", "right")]
    text = (FIXTURES / "thm2_8_iii_to_i.prob").read_text("utf-8")
    problem = parse_problem(text)
    bodies = [line.split("=", 1)[1] for line in text.splitlines()
              if "=" in line and not line.startswith("#")]
    bodies += ["a*·a·p·q", "q·p·c·c*", "(m† − c†·b†·a†)*·a†*·a*"]
    out += [(problem.algebra, problem.defs, b) for b in bodies]
    return out


_FIXTURE_EXPRESSIONS = _fixture_expressions()
_EDIT_TEXT = st.sampled_from(list("()+-−*·/ 0123\tabcmpq†⁻") + ["a·", "*·", "(("])


def _mutate(draw, text):
    """``text`` after one to three random insertions and deletions."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.integers(0, 2))
        if edit == 0:
            text = text[:i] + draw(_EDIT_TEXT) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[draw(st.integers(i, len(text))):]
    return text


@st.composite
def _mutated_fixture_texts(draw):
    alg, defs, text = draw(st.sampled_from(_FIXTURE_EXPRESSIONS))
    return alg, defs, _mutate(draw, text)


def test_parse_matches_oracle_on_fixture_expressions():
    for alg, defs, text in _FIXTURE_EXPRESSIONS:
        assert _agrees_with_oracle(alg, text, defs) is not None, text


@settings(max_examples=400, deadline=None)
@given(_mutated_fixture_texts(), st.booleans())
def test_parse_matches_oracle_on_mutated_fixture_texts(case, with_defs):
    alg, defs, text = case
    _agrees_with_oracle(alg, text, defs if with_defs else None)


# -- the render-form reader ------------------------------------------------

_HUGE = "9" * 5_000  # beyond Python's limit on converting a string to int


@pytest.mark.parametrize("text, value", [
    ("0", {}), ("-0", None), ("1", {(): 1}), ("-1", {(): -1}),
    ("007·a", None), ("2²", None), ("²·a", None),
    ("1" + "0" * 100 + "·a", {(0,): 10 ** 100}),
    ("-3·a*·b + " + "1" * 101, {(1, 2): -3, (): int("1" * 101)}),
    (_HUGE + "·a", None), ("a - " + _HUGE, None),
    ("a + a", None), ("a - a", None), ("a -b", None), ("- a", None),
    ("+a", None), ("a·", None), ("1/2·a", {(0,): Fraction(1, 2)}),
    ("a − b", None), ("a  + b", None), ("a + (b)", None), ("a**", None),
    ("", None),
    ("-3/2", {(): Fraction(-3, 2)}),
    ("a - 1/3·b", {(0,): 1, (2,): Fraction(-1, 3)}),
    ("2/4·a", {(0,): Fraction(1, 2)}), ("4/2·a", {(0,): 2}),
    ("1/0·a", None), ("01/2·a", None), ("1/02·a", None), ("1/2/3·a", None),
    ("1/·a", None), ("/2·a", None), ("0/2·a", None), ("1/2²·a", None),
    (_HUGE + "/2·a", None), ("1/" + _HUGE + "·a", None),
    ("a - 3/" + _HUGE, None),
])
def test_render_form_reader_fixed_cases(text, value):
    assert _PA._read_rendered(text) == value
    _agrees_with_oracle(_PA, text)


@functools.lru_cache(maxsize=None)
def _large_certificate_texts():
    """The algebra and rendered expressions of ``thm2_8_iii_to_i``'s
    certificate under the declaration ranking (4,236 terms; the fixture's
    own ranking gives a shorter one)."""
    problem = parse_problem(
        (FIXTURES / "thm2_8_iii_to_i.prob").read_text("utf-8"))
    problem.options.ranking = None
    _, report = run_problem(problem)
    cert = next(r.certificate for r in report.results if r.certificate)
    assert cert.term_count == 4236  # the corpus keeps its size
    data = certificate_to_dict(cert)
    texts = [data["claim"]] + [a["expr"] for a in data["assumptions"]]
    texts += [s[side] for s in data["summands"] for side in ("left", "right")]
    return cert.claim.alg, texts


def test_render_form_reader_reads_a_large_certificate():
    alg, texts = _large_certificate_texts()
    for text in texts:
        assert alg._read_rendered(text) is not None, text
        _agrees_with_oracle(alg, text)


def test_render_form_reader_reads_a_large_certificate_scaled_by_a_third():
    alg, texts = _large_certificate_texts()
    for text in texts:
        text = alg.render(alg.parse(text).scaled(Fraction(1, 3)))
        assert alg._read_rendered(text) is not None, text
        _agrees_with_oracle(alg, text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_render_form_reader_matches_oracle_on_mutated_certificate(data):
    alg, texts = _large_certificate_texts()
    _agrees_with_oracle(
        alg, _mutate(data.draw, data.draw(st.sampled_from(texts))))


def test_duplicate_names_rejected():
    A = FreeAlgebra()
    A.add("x")
    with pytest.raises(AlgebraError):
        A.add("x")
    with pytest.raises(AlgebraError):
        A.add_pair("y", "x")


# -- ring operations ----------------------------------------------------------

def test_noncommutativity_witness(werner_algebra):
    A = werner_algebra
    a, b = A.parse("a"), A.parse("b")
    assert (a * b).terms() == {A.word("a", "b"): 1}
    assert (b * a).terms() == {A.word("b", "a"): 1}
    assert a * b != b * a


def test_mul_distributes(werner_algebra):
    A = werner_algebra
    p = A.parse("a·a⁻·a − a")
    # hand distribution: (aa⁻a − a)·b = aa⁻ab − ab
    assert p * A.parse("b") == A.parse("a·a⁻·a·b − a·b")


def test_mul_unit(werner_algebra):
    A = werner_algebra
    p = A.parse("a·b − 2·a")
    assert p * A.one() == p
    assert A.one() * p == p


def test_scalar_arithmetic(werner_algebra):
    A = werner_algebra
    p = A.parse("a − b")
    assert (p * Fraction(1, 2)).coefficient(A.word("a")) == Fraction(1, 2)
    assert (3 * p - p) == 2 * p
    assert (p - p).is_zero


def test_equal_polynomials_hash_equal(werner_algebra):
    A = werner_algebra
    a, b = A.parse("a"), A.parse("b")
    built = [a + b, b + a, 2 * a - a + b]
    assert all(p == built[0] for p in built)
    assert {hash(p) for p in built} == {hash(built[0])}
    assert set(built) == {built[0]}
    assert {p: i for i, p in enumerate(built)} == {built[0]: 2}
    # the same terms over another algebra are another polynomial
    other = FreeAlgebra()
    for name in A.names:
        other.add(name)
    twin = other.parse("a + b")
    assert twin._terms == built[0]._terms
    assert twin != built[0]
    assert len({twin, *built}) == 2


def test_product_stores_an_int_where_exact(werner_algebra):
    A = werner_algebra
    terms = (A.parse("1/2 a") * A.parse("2 b"))._terms
    assert terms == {A.word("a", "b"): 1}
    assert type(terms[A.word("a", "b")]) is int


def test_add_terms_contract():
    acc = {(0,): 1, (1,): Fraction(1, 2)}
    new = add_terms(acc, [((0,), -1), ((1,), Fraction(1, 2)), ((2,), 3),
                          ((3,), 1)])
    assert new == [(2,), (3,)]  # the newly entered words, in order
    assert acc == {(1,): 1, (2,): 3, (3,): 1}  # (0,) cancelled
    assert type(acc[(1,)]) is int  # 1/2 + 1/2
    assert add_terms(acc, [((1,), 1), ((2,), 1)], Fraction(-1, 3),
                     (5, 6), (7,)) == [(5, 6, 1, 7), (5, 6, 2, 7)]
    assert acc[(5, 6, 1, 7)] == Fraction(-1, 3)


def test_float_coefficients_rejected(werner_algebra):
    with pytest.raises(TypeError):
        werner_algebra.monomial((), 0.5)


# -- involution ---------------------------------------------------------------

def test_adjoint_reverses_products(paired_algebra):
    A = paired_algebra
    assert (A.parse("a") * A.parse("b")).adjoint() == A.parse("b*·a*")


def test_adjoint_of_mp_identity():
    A = FreeAlgebra()
    A.add_pair("a")
    A.add_pair("a†")
    p = A.parse("a·a†·a − a")
    assert p.adjoint() == A.parse("a*·a†*·a* − a*")


def test_adjoint_zero(paired_algebra):
    assert paired_algebra.zero().adjoint().is_zero


def test_adjoint_unpaired_raises(werner_algebra):
    with pytest.raises(AdjointError) as err:
        werner_algebra.parse("b·b⁻ + a").adjoint()
    assert "'b' has no adjoint" in str(err.value)


def test_self_adjoint():
    A = FreeAlgebra()
    A.add_self_adjoint("i")
    assert A.parse("i*") == A.parse("i")


# -- order ---------------------------------------------------------------------

def compare(order, u, v) -> int:
    """-1, 0 or 1 as u <, =, > v under ``order``."""
    ku, kv = order.key(u), order.key(v)
    return -1 if ku < kv else (0 if ku == kv else 1)


def test_compare_degree_dominates(werner_algebra):
    A = werner_algebra
    order = A.default_order()
    assert compare(order, A.word("a"), A.word("b", "b", "b")) == -1


def test_compare_lexicographic_tie(werner_algebra):
    A = werner_algebra
    order = A.default_order()
    assert compare(order, A.word("a", "b"), A.word("b", "a")) == -1
    assert compare(order, A.word("a"), A.word("a")) == 0


def test_custom_ranking(werner_algebra):
    A = werner_algebra
    order = DegLexOrder.from_names(A, ["b", "a"])
    assert compare(order, A.word("b"), A.word("a")) == -1
    with pytest.raises(AlgebraError, match="order ranks 'b' twice"):
        DegLexOrder.from_names(A, ["b", "a", "b"])


# -- rendering --------------------------------------------------------------------

def test_render_round_trip(werner_system):
    A, F, f = werner_system
    for p in F + [f, A.zero(), A.parse("1/2·a − 3")]:
        assert A.parse(A.render(p)) == p


def test_render_adjoint_names():
    A = FreeAlgebra()
    A.add_pair("a†")
    p = A.parse("a†*·a†")
    assert A.parse(A.render(p)) == p


# -- algebraic laws (randomized) ----------------------------------------------------

def _polys(alg, max_terms=4, max_len=3, integral=False):
    words = st.lists(st.integers(0, len(alg) - 1), max_size=max_len).map(tuple)
    coeffs = st.integers().filter(bool) if integral else st.one_of(
        st.integers(-3, 3).filter(bool),
        st.fractions(min_value=-2, max_value=2).filter(bool))
    return st.dictionaries(words, coeffs, max_size=max_terms).map(alg.poly)


_ALG = FreeAlgebra()
for _n in ("x", "y", "z"):
    _ALG.add_pair(_n)


@settings(max_examples=200, deadline=None)
@given(_polys(_ALG), _polys(_ALG), _polys(_ALG))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert (p - p).is_zero


@settings(max_examples=200, deadline=None)
@given(_polys(_ALG), _polys(_ALG))
def test_adjoint_is_an_anti_automorphism(p, q):
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()
    assert (p + q).adjoint() == p.adjoint() + q.adjoint()
    assert p.adjoint().adjoint() == p


_WORDS = st.lists(st.integers(0, 5), max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_WORDS, _WORDS, _WORDS, _WORDS)
def test_deglex_order_axioms(u, v, w, w2):
    order = _ALG.default_order()
    cmp_uv = compare(order, u, v)
    assert cmp_uv == -compare(order, v, u)
    assert (cmp_uv == 0) == (u == v)
    if cmp_uv == -1:
        # multiplicative: u < v implies wuw' < wvw'
        assert compare(order, w + u + w2, w + v + w2) == -1
    # degree dominates
    if len(u) < len(v):
        assert cmp_uv == -1


@settings(max_examples=200, deadline=None)
@given(_polys(_ALG))
def test_parse_render_identity(p):
    assert _ALG.parse(_ALG.render(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.one_of(_polys(_ALG, max_terms=6),
                 _polys(_ALG, max_terms=6, integral=True)))
def test_render_form_reader_inverts_render(p):
    # every render is read without the tokenizer
    terms = _ALG._read_rendered(_ALG.render(p))
    assert terms is not None
    assert terms == p._terms
    assert all(type(c) is int for c in terms.values() if c.denominator == 1)
