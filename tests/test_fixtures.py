"""Every shipped problem fixture runs end to end."""

import dataclasses
import random

import pytest

import opcert
from opcert.certify import verify_certificate
from opcert.matcheck import RatMatrix, Realization, evaluate, mp_inverse
from opcert.quiver import LabelledQuiver
from opcert.rewrite import BUDGET_EXHAUSTED, COMPLETE, CompletionEngine
from opcert.statements import ij_equations, load_problem, run_problem
from opcert.freealg import FreeAlgebra

from conftest import FIXTURES, assert_certificate_file_unchanged
from test_matcheck import rand_matrix

CERTIFYING = [
    "werner",
    "hartwig_i_to_v",
    "thm2_3_v_to_i",
    "thm2_3_i_to_v",
    "thm2_4",
    "thm2_5",
    "thm2_6_iv_to_i",
    "thm2_6_i_to_iv",
    "thm2_8_i_to_ii",
    "thm2_8_ii_to_i",
    "thm2_8_iii_to_i",
]


@pytest.mark.parametrize("name", CERTIFYING)
def test_fixture_certifies(name, tmp_path):
    prob = load_problem(FIXTURES / f"{name}.prob")
    trans, report = run_problem(prob)
    assert trans.quiver_check is not None and trans.quiver_check.ok
    assert report.results, name
    for res in report.results:
        assert res.certified, f"{name}/{res.name}: {res.remainder}"
        assert verify_certificate(res.certificate).valid
        assert res.certificate.integral, f"{name}/{res.name}"
        assert_certificate_file_unchanged(
            res.certificate, f"{name}.{res.name}.cert", tmp_path)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.prob")),
                         ids=lambda p: p.stem)
def test_certificate_terms_are_the_expanded_trace(path, monkeypatch):
    # a certificate has one term per quad of its claim's expanded trace, as
    # the ranking search's term bounds assume: the quads are distinct
    # (l, i, r) triples, so no merge of summands cancels a term
    lengths = []

    class Recording(CompletionEngine):
        def expand_steps(self, steps):
            quads = super().expand_steps(steps)
            lengths.append(len(quads))
            return quads

    monkeypatch.setattr(opcert.certify, "CompletionEngine", Recording)
    trans, report = run_problem(load_problem(path))
    certs = [wf.certificate for wf in trans.workflow_reports] + \
        [res.certificate for res in report.results if res.certified]
    assert [cert.term_count for cert in certs] == lengths


@pytest.mark.parametrize("cap", [None, 16, 20, 24])
def test_degree_cap_changes_no_work(cap, tmp_path, recorded_engines):
    # the queue pops the lowest degree first and builds a degree's rows only
    # when it reaches them, so a cap above the degrees that thm2_5 reaches
    # changes neither its work, nor its certificates, nor its queue
    prob = load_problem(FIXTURES / "thm2_5.prob")
    prob.options.limits = dataclasses.replace(prob.options.limits,
                                              max_degree=cap)
    _, report = run_problem(prob)
    (engine,) = recorded_engines
    assert engine.stats.obstructions_processed == 931
    assert len(engine.queue) == 452
    for res in report.results:
        assert_certificate_file_unchanged(
            res.certificate, f"thm2_5.{res.name}.cert", tmp_path)


def test_nonmember_fixture_budget_exhausts():
    prob = load_problem(FIXTURES / "nonmember.prob")
    _, report = run_problem(prob)
    assert report.results[0].status == BUDGET_EXHAUSTED
    assert report.results[0].remainder == prob.algebra.parse("b·a")
    # the queue drained, so no limit stopped the search
    assert report.stats.completion_status == COMPLETE
    assert report.stats.tripped_limit is None


def test_mp_equations_vanish_on_true_inverse_matrices():
    """Cross-check between the statement macros and exact matrices: the four
    defining equations, realized with Y the true Moore-Penrose inverse of a
    random X, evaluate to zero."""
    alg = FreeAlgebra()
    alg.add_pair("x")
    alg.add_pair("y")
    eqs = ij_equations(alg.parse("x"), alg.parse("y"), (1, 2, 3, 4))
    rng = random.Random(42)
    quiver = LabelledQuiver(alg, ["v"], [
        ("x", "v", "v"), ("x*", "v", "v"), ("y", "v", "v"), ("y*", "v", "v")])
    for _ in range(30):
        n = rng.randint(1, 3)
        X = rand_matrix(rng, n, n)
        Y = mp_inverse(X)
        assign = {alg.word("x")[0]: X, alg.word("x*")[0]: X.T,
                  alg.word("y")[0]: Y, alg.word("y*")[0]: Y.T}
        r = Realization(quiver, {"v": n}, assign)
        for eq in eqs:
            assert evaluate(eq, r).is_zero
