"""Labelled quivers: path signatures, compatibility, inference, problem gate."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from opcert.freealg import AlgebraError, FreeAlgebra
from opcert.quiver import (WILDCARD, LabelledQuiver, check_problem, compatible,
                           infer_signatures, path_signature)
from opcert.statements import load_problem, parse_problem, translate
from conftest import FIXTURES


@pytest.fixture
def werner_quiver(werner_algebra):
    A = werner_algebra
    return LabelledQuiver(A, ["v1", "v2", "v3"], [
        ("a", "v2", "v1"), ("a⁻", "v1", "v2"), ("i", "v2", "v2"),
        ("b", "v3", "v2"), ("b⁻", "v2", "v3")])


def test_label_injectivity_enforced(werner_algebra):
    A = werner_algebra
    with pytest.raises(AlgebraError):
        LabelledQuiver(A, ["u", "v"], [("a", "u", "v"), ("a", "v", "u")])


def test_edges_reference_declared_vertices(werner_algebra):
    with pytest.raises(AlgebraError):
        LabelledQuiver(werner_algebra, ["u"], [("a", "u", "w")])


# -- path signatures ------------------------------------------------------------

def test_path_signature_composes_right_to_left(werner_algebra, werner_quiver):
    A = werner_algebra
    assert path_signature(A.word("a⁻", "a"), werner_quiver) == ("v2", "v2")
    assert path_signature(A.word("a"), werner_quiver) == ("v2", "v1")


def test_path_signature_empty_word_is_wildcard(werner_quiver):
    assert path_signature((), werner_quiver) is WILDCARD


def test_path_signature_broken_chain(werner_algebra, werner_quiver):
    # b then a: a targets v1, b sources v3, inner endpoints do not meet
    assert path_signature(werner_algebra.word("b", "a"), werner_quiver) is None


def test_path_signature_respects_composition(werner_algebra, werner_quiver):
    A = werner_algebra
    u, v = A.word("a"), A.word("a⁻", "a")
    su, sv = path_signature(u, werner_quiver), path_signature(v, werner_quiver)
    assert sv[1] == su[0]  # inner endpoints meet
    assert path_signature(u + v, werner_quiver) == (sv[0], su[1])


# -- compatibility --------------------------------------------------------------

def test_compatible_assumption(werner_system, werner_quiver):
    A, F, f = werner_system
    comp = compatible(F[0], werner_quiver)
    assert comp.ok and comp.signature == ("v2", "v1")
    assert compatible(f, werner_quiver).signature == ("v3", "v1")


def test_incompatible_mixed_sources(werner_algebra, werner_quiver):
    comp = compatible(werner_algebra.parse("a + b"), werner_quiver)
    assert not comp.ok
    assert len(comp.witness) == 2


def test_zero_is_compatible_with_wildcard(werner_algebra, werner_quiver):
    comp = compatible(werner_algebra.zero(), werner_quiver)
    assert comp.ok and comp.signature is WILDCARD


def test_constant_requires_diagonal(werner_algebra, werner_quiver):
    comp = compatible(werner_algebra.parse("a⁻·a − 1"), werner_quiver)
    assert comp.ok and comp.signature == ("v2", "v2")
    assert not compatible(werner_algebra.parse("a − 1"), werner_quiver).ok


# -- inference --------------------------------------------------------------------

def same_partition(q1, q2, alg):
    """Quiver isomorphism on edge endpoints: slots are merged in q1 iff in q2."""
    slots = [(kind, ind.iid) for ind in alg for kind in "st"
             if ind.iid in q1.edges]

    def cls(q, slot):
        kind, iid = slot
        src, tgt = q.edges[iid]
        return src if kind == "s" else tgt

    for s1, s2 in itertools.combinations(slots, 2):
        if (cls(q1, s1) == cls(q1, s2)) != (cls(q2, s1) == cls(q2, s2)):
            return False
    return True


def test_infer_werner_three_vertices(werner_system, werner_quiver):
    A, F, f = werner_system
    inferred = infer_signatures(F + [f], A)
    assert len(inferred.vertices) == 3
    assert same_partition(inferred, werner_quiver, A)
    assert check_problem(F, [f], inferred).ok


def test_infer_collapse_to_one_vertex():
    B = FreeAlgebra()
    B.add("a")
    B.add("b")
    # oracle (union-find over endpoint constraints by hand): ab forces
    # s(a)=t(b); ba forces s(b)=t(a); a+b forces s(a)=s(b), t(a)=t(b);
    # chaining these merges all four slots, so the most general quiver
    # collapses to a single vertex rather than failing.
    q = infer_signatures([B.parse("a·b"), B.parse("b·a"), B.parse("a + b")], B)
    assert q is not None
    assert len(q.vertices) == 1


def test_infer_respects_pins_and_detects_contradiction():
    B = FreeAlgebra()
    a = B.add("a")
    b = B.add("b")
    polys = [B.parse("a + b")]
    q = infer_signatures(polys, B, pinned={a.iid: ("x", "y")})
    assert q is not None and q.signature("a") == ("x", "y")
    # a + b forces equal signatures; pinning them apart is contradictory
    q2 = infer_signatures(polys, B, pinned={a.iid: ("x", "y"),
                                            b.iid: ("x", "z")})
    assert q2 is None


@pytest.mark.parametrize("pin, edges", [
    # a's vertex v1 is the name the first free class would get
    ("v1", {"b": ("v2", "v3"), "c": ("v4", "v5"), "a": ("v1", "v1")}),
    # b's target skips the pinned v2, and c's source skips the v3 taken
    ("v2", {"b": ("v1", "v3"), "c": ("v4", "v5"), "a": ("v2", "v2")}),
])
def test_inferred_names_skip_pinned_and_generated_names(pin, edges):
    trans = translate(parse_problem(
        f"[ops]\na : {pin} -> {pin}\nb\nc\n[assume]\nb\nc\n[claim]\na\n"))
    q = trans.quiver
    assert {name: q.signature(name) for name in "bca"} == edges
    assert len(q.vertices) == 5


def test_infer_adjoint_edges_reversed(paired_algebra):
    A = paired_algebra
    q = infer_signatures([A.parse("a·b"), A.parse("a*·a − b·b*")], A)
    for name in ("a", "b"):
        src, tgt = q.signature(name)
        assert q.signature(name + "*") == (tgt, src)
    assert check_problem([A.parse("a·b")], [], q).ok


# sha256 of each bundled problem's translated quiver (its repr: vertex names
# and edges in order) and gate verdict; a change that renames vertices or
# reorders edges on purpose updates this file and says why
QUIVER_SHA256 = json.loads((Path(__file__).parent / "quiver_sha256.json")
                           .read_text(encoding="utf-8"))


def test_translated_quiver_of_every_fixture_is_unchanged():
    got = {}
    for prob in sorted(FIXTURES.glob("*.prob")):
        trans = translate(load_problem(prob))
        text = f"{trans.quiver!r}\nok {trans.quiver_check.ok}\n"
        got[prob.stem] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert got == QUIVER_SHA256


# -- the problem gate -----------------------------------------------------------------

def test_check_problem_werner_passes(werner_system, werner_quiver):
    A, F, f = werner_system
    report = check_problem(F, [f], werner_quiver,
                           assumption_names=[f"f{k}" for k in range(1, 9)])
    assert report.ok


def test_check_problem_missing_edge_names_witness(werner_system, werner_algebra):
    A, F, f = werner_system
    crippled = LabelledQuiver(A, ["v1", "v2", "v3"], [
        ("a", "v2", "v1"), ("a⁻", "v1", "v2"),
        ("b", "v3", "v2"), ("b⁻", "v2", "v3")])  # edge i removed
    report = check_problem(F, [f], crippled,
                           assumption_names=[f"f{k}" for k in range(1, 9)])
    assert not report.ok
    failed = {name for name, _, _ in report.failures}
    assert "f3" in failed
    comp = next(c for name, _, c in report.failures if name == "f3")
    assert comp.witness and any("i" == werner_algebra.by_id(x).name
                                for w in comp.witness for x in w)


def test_check_problem_adjoint_reversal_enforced(paired_algebra):
    A = paired_algebra
    bad = LabelledQuiver(A, ["u", "v"], [
        ("a", "u", "v"), ("a*", "u", "v")])  # should run v -> u
    report = check_problem([], [], bad)
    assert not report.ok
    assert ("a", "a*") in report.adjoint_violations
