"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every assertion here is exact (rational arithmetic); the stated wall-clock
budgets are asserted too.  Each criterion prints one pass line (visible with
pytest -s or in the captured output).
"""

import time

from opcert.certify import certify, load_certificate, verify_certificate
from opcert.matcheck import example1_check, example2_check
from opcert.quiver import LabelledQuiver, check_problem
from opcert.statements import load_problem, run_problem, translate

import test_properties
from conftest import FIXTURES, assert_certificate_file_unchanged


def _report(k, dt, desc):
    print(f"ACCEPTANCE {k} PASS ({dt:.3f}s): {desc}")


def test_criterion_1_werner_paper_certificate_validates():
    t0 = time.monotonic()
    cert = load_certificate(FIXTURES / "werner_paper.cert")
    result = verify_certificate(cert)
    dt = time.monotonic() - t0
    assert result.valid
    assert cert.integral
    assert dt < 0.1
    _report(1, dt, "transcribed cofactor representation checks as valid")


def test_criterion_2_werner_solver_certificate(werner_system):
    A, F, f = werner_system
    t0 = time.monotonic()
    report = certify(F, [f], assumption_names=[f"f{k}" for k in range(1, 9)],
                     claim_names=["werner"])
    dt = time.monotonic() - t0
    res = report.results[0]
    assert res.certified
    cert = res.certificate
    assert verify_certificate(cert).valid
    assert cert.integral
    assert cert.used_indices <= {0, 1, 2, 5}  # f1, f2, f3, f6 only
    assert dt < 1.0
    _report(2, dt, "solver certificate minimal over {f1, f2, f3, f6}")


def test_criterion_3_hartwig_v_to_i(tmp_path, recorded_engines):
    t0 = time.monotonic()
    prob = load_problem(FIXTURES / "hartwig_v_to_i.prob")
    trans = translate(prob)
    assert len(trans.algebra) == 22
    report = certify(trans.assumptions, trans.claims, trans.order,
                     prob.options.limits,
                     assumption_names=trans.assumption_names,
                     claim_names=trans.claim_names)
    dt = time.monotonic() - t0
    res = report.results[0]
    assert res.certified
    assert verify_certificate(res.certificate).valid
    assert res.certificate.integral
    assert dt < 300.0
    assert_certificate_file_unchanged(
        res.certificate, "hartwig_v_to_i.rol.cert", tmp_path)
    # the engine counters at the stop: only the rows up to the last degree
    # reached were built
    (engine,) = recorded_engines
    assert report.stats.completion_status == "stopped_early"
    assert report.stats.tripped_limit is None
    assert engine.stats.obstructions_processed == 35_697
    assert engine.stats.elements_added == 6_592
    assert len(engine.active_indices()) == 2_907
    assert len(engine.queue) == 76_024
    assert engine.retired == 3_669
    assert len(res.certificate.summands) == 178
    assert res.certificate.term_count == 670
    _report(3, dt, f"22 indeterminates; integral certificate with "
                   f"{res.certificate.term_count} terms; engine counters "
                   f"pinned")


def test_criterion_4_hartwig_i_to_v():
    t0 = time.monotonic()
    prob = load_problem(FIXTURES / "hartwig_i_to_v.prob")
    trans, report = run_problem(prob)
    dt = time.monotonic() - t0
    assert len(report.results) == 5
    for res in report.results:
        assert res.certified, res.name
        assert verify_certificate(res.certificate).valid
        assert res.certificate.integral
    assert dt < 300.0
    _report(4, dt, "idempotency and all four substituted factorization "
                   "identities certified, all integral")


def test_criterion_5_thm2_3_v_to_i_workflow():
    t0 = time.monotonic()
    prob = load_problem(FIXTURES / "thm2_3_v_to_i.prob")
    trans, report = run_problem(prob)
    dt = time.monotonic() - t0
    assert len(trans.workflow_reports) == 1
    wit = trans.workflow_reports[0].certificate
    assert verify_certificate(wit).valid  # the witness membership certificate
    assert len(report.results) == 4       # the four defining equations
    for res in report.results:
        assert res.certified, res.name
        assert verify_certificate(res.certificate).valid
    assert dt < 300.0
    _report(5, dt, "cancellability witness certified; all four defining "
                   "equations certified after adjoining the conclusion")


def test_criterion_6_thm2_3_i_to_v_cancellability_claim():
    t0 = time.monotonic()
    prob = load_problem(FIXTURES / "thm2_3_i_to_v.prob")
    trans, report = run_problem(prob)
    dt = time.monotonic() - t0
    (res,) = [r for r in report.results if r.name == "cancel"]
    assert res.certified
    assert verify_certificate(res.certificate).valid
    assert dt < 60.0
    _report(6, dt, "z·m certified from z·m·m* with a fresh z")


def test_criterion_7_example_2_1_matrix_suite():
    t0 = time.monotonic()
    rep = example1_check()
    dt = time.monotonic() - t0
    assert rep.ok, [lbl for lbl, ok in rep.checks if not ok]
    assert dt < 1.0
    _report(7, dt, "stated inverses, PQ = 0, inclusions, and the failing "
                   "law, both configurations, all exact")


def test_criterion_8_example_2_2_matrix_suite():
    t0 = time.monotonic()
    rep = example2_check()
    dt = time.monotonic() - t0
    assert rep.ok, [lbl for lbl, ok in rep.checks if not ok]
    assert dt < 1.0
    _report(8, dt, "conditions (ii)-(v) hold numerically while (i) fails")


def test_criterion_9_quiver_suite(werner_system):
    t0 = time.monotonic()
    # Werner on its 3-vertex quiver
    prob_w = load_problem(FIXTURES / "werner.prob")
    trans_w = translate(prob_w)
    assert len(trans_w.quiver.vertices) == 3
    assert trans_w.quiver_check.ok
    # Hartwig on its 4-vertex quiver, one edge per indeterminate
    prob_h = load_problem(FIXTURES / "hartwig_v_to_i.prob")
    trans_h = translate(prob_h)
    assert len(trans_h.quiver.vertices) == 4
    assert len(trans_h.quiver.edges) == len(trans_h.algebra)
    assert trans_h.quiver_check.ok
    # mutated quiver: removing edge i must fail naming f3 with a witness
    A, F, f = werner_system
    crippled = LabelledQuiver(A, ["v1", "v2", "v3"], [
        ("a", "v2", "v1"), ("a⁻", "v1", "v2"),
        ("b", "v3", "v2"), ("b⁻", "v2", "v3")])
    bad = check_problem(F, [f], crippled,
                        assumption_names=[f"f{k}" for k in range(1, 9)])
    dt = time.monotonic() - t0
    assert not bad.ok
    f3_failure = next(c for name, _, c in bad.failures if name == "f3")
    assert f3_failure.witness
    assert dt < 1.0
    _report(9, dt, "Werner and Hartwig quivers pass; mutated quiver fails "
                   "with a named witness monomial")


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    test_properties.test_trace_identity_of_reduce()
    test_properties.test_solver_outputs_always_verify()
    test_properties.test_adjoint_involution_laws()
    test_properties.test_deglex_axioms()
    test_properties.test_random_ideal_members_certify()
    test_properties.test_realization_soundness_werner()
    test_properties.test_realization_soundness_hartwig()
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(10, dt, "all randomized suites (200+ cases each) hold exactly")
