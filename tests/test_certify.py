"""Certification, independent verification, minimization, and cert files."""

import json
import random
from dataclasses import replace

import pytest

from opcert.certify import (Summand, certificate_from_dict, certificate_to_dict,
                            certify, load_certificate, make_certificate,
                            minimize_certificate, save_certificate,
                            verify_certificate)
from opcert.freealg import AlgebraError, DegLexOrder, FreeAlgebra
from opcert.rewrite import (BUDGET_EXHAUSTED, COMPLETE, STOPPED_EARLY,
                            CompletionLimits)


FNAMES = [f"f{k}" for k in range(1, 9)]


def test_werner_certify_minimal_set(werner_system):
    A, F, f = werner_system
    report = certify(F, [f], assumption_names=FNAMES, claim_names=["werner"])
    res = report.results[0]
    assert res.certified
    cert = res.certificate
    assert cert.integral
    assert cert.used_indices <= {0, 1, 2, 5}
    assert verify_certificate(cert).valid


def test_transcribed_hand_certificate_verbatim(werner_system):
    A, F, f = werner_system
    one, a, b = A.one(), A.gen("a"), A.gen("b")
    cert = make_certificate(f, F, FNAMES, [
        Summand(one, 0, b),
        Summand(a, 1, one),
        Summand(-1 * a, 2, b),
        Summand(a * b * A.gen("b⁻") - a, 5, one),
    ])
    assert verify_certificate(cert).valid
    assert cert.integral


def test_sign_flip_reports_discrepancy(werner_system):
    A, F, f = werner_system
    one, a, b = A.one(), A.gen("a"), A.gen("b")
    cert = make_certificate(f, F, FNAMES, [
        Summand(one, 0, b),
        Summand(a, 1, one),
        Summand(a, 2, b),  # flipped sign
        Summand(a * b * A.gen("b⁻") - a, 5, one),
    ])
    result = verify_certificate(cert)
    assert not result.valid
    assert result.discrepancy is not None
    assert "a·b" in result.reason


def test_empty_certificate_for_zero_claim(werner_system):
    A, F, _ = werner_system
    report = certify(F, [A.zero()], assumption_names=FNAMES)
    cert = report.results[0].certificate
    assert cert is not None and cert.summands == ()
    assert verify_certificate(cert).valid


def test_index_out_of_range_invalid(werner_system):
    A, F, f = werner_system
    cert = make_certificate(f, F, FNAMES, [Summand(A.one(), 42, A.one())])
    assert not verify_certificate(cert).valid


def test_integral_flag_checked(werner_system):
    A, F, _ = werner_system
    g = F[0]
    cert = make_certificate(g, F, FNAMES, [Summand(A.one(), 0, A.one())])
    tampered = type(cert)(cert.claim, cert.assumptions, cert.assumption_names,
                          cert.summands, False)
    assert not verify_certificate(tampered).valid


def test_minimize_drops_zero_and_merges(werner_system):
    A, F, f = werner_system
    one, a, b = A.one(), A.gen("a"), A.gen("b")
    cert = make_certificate(f, F, FNAMES, [
        Summand(A.zero(), 4, one),              # zero summand goes away
        Summand(one, 0, b),
        Summand(a, 1, one),
        Summand(-1 * a, 2, b),
        Summand(a * b * A.gen("b⁻"), 5, one),   # merges with the next
        Summand(a, 5, -1 * one),
    ])
    assert verify_certificate(cert).valid
    small = minimize_certificate(cert)
    assert verify_certificate(small).valid
    assert len(small.summands) == 4
    assert small.used_indices == {0, 1, 2, 5}
    assert minimize_certificate(small) == small  # idempotent


def test_minimize_merge_to_integral_cofactor_sets_integral_flag(werner_system):
    A, F, _ = werner_system
    one = A.one()
    cert = make_certificate(F[0], F, FNAMES, [
        Summand(A.parse("1/2 + a"), 0, one),
        Summand(A.parse("1/2 − a"), 0, one),   # the lefts add up to 1
    ])
    assert cert.integral is False
    small = minimize_certificate(cert)
    assert [(s.left, s.right) for s in small.summands] == [(one, one)]
    assert small.integral is True
    assert verify_certificate(small).valid


def test_report_used_indices_and_stats(werner_system):
    A, F, f = werner_system
    report = certify(F, [f], assumption_names=FNAMES)
    assert all(r.certified for r in report.results)
    cert = report.results[0].certificate
    assert {s.index for s in cert.summands} == cert.used_indices
    assert report.stats.basis_size > 0
    assert cert.term_count >= len(cert.summands)


def test_constant_term_assumption_rejected(werner_algebra):
    A = werner_algebra
    with pytest.raises(AlgebraError) as err:
        certify([A.parse("a·b − 1")], [A.parse("a")])
    assert "constant" in str(err.value)


def test_constant_assumption_after_nonconstant_one():
    # ring level: the constant lead retires the earlier lead a·b
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    report = certify([A.parse("a·b − a"), A.parse("1")], [A.parse("b")],
                     require_zero_constant=False)
    res = report.results[0]
    assert res.certified
    assert verify_certificate(res.certificate).valid


def test_negative_control_budget_exhausted():
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    report = certify([A.parse("a·b − 1")], [A.parse("b·a − 1")],
                     limits=CompletionLimits(max_degree=6, time_budget=5),
                     require_zero_constant=False)
    res = report.results[0]
    assert res.status == BUDGET_EXHAUSTED
    assert res.certificate is None
    assert res.remainder == A.parse("b·a − 1")


@pytest.mark.parametrize("claim, status", [
    ("a·b·a − b", STOPPED_EARLY),    # certified, obstructions left queued
    ("a", BUDGET_EXHAUSTED),         # max_iterations struck first
])
def test_completion_status_says_why_completion_stopped(claim, status):
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    report = certify([A.parse("a·b·a − b"), A.parse("b·a·b − a")],
                     [A.parse(claim)],
                     limits=CompletionLimits(max_degree=20, max_iterations=3,
                                             time_budget=60))
    assert report.stats.completion_status == status


@pytest.mark.parametrize("limit", ["max_iterations", "max_basis_size"])
def test_stats_name_the_tripped_limit(limit):
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    limits = replace(CompletionLimits(max_degree=20, time_budget=60),
                     **{limit: 3})
    report = certify([A.parse("a·b·a − b"), A.parse("b·a·b − a")],
                     [A.parse("a")], limits=limits)
    assert report.stats.completion_status == BUDGET_EXHAUSTED
    assert report.stats.tripped_limit == limit
    # the queue drains: the claim fails with no limit tripped
    drained = certify([A.parse("a·b − 1")], [A.parse("b·a − 1")],
                      require_zero_constant=False)
    assert drained.stats.completion_status == COMPLETE
    assert drained.stats.tripped_limit is None


def test_certify_without_claims_runs_no_completion():
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    report = certify([A.parse("a·b·a − b")], [])
    assert report.results == []
    assert report.stats.obstructions_processed == 0
    # the self-overlap of a·b·a is queued and never processed
    assert report.stats.completion_status == STOPPED_EARLY


def test_completion_status_complete_when_queue_drains():
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    report = certify([A.parse("a·b")], [A.parse("b·a")])
    assert not all(r.certified for r in report.results)
    assert report.stats.completion_status == COMPLETE


def test_certify_with_ranks_past_one_byte():
    # 300 letters under a permuted ranking: the engine's words hold
    # characters past the one-byte range
    A = FreeAlgebra()
    for k in range(300):
        A.add(f"x{k}")
    ranking = list(range(300))
    random.Random(7).shuffle(ranking)
    order = DegLexOrder(tuple(ranking))
    by_rank = {rank: f"x{iid}" for iid, rank in enumerate(ranking)}
    p, q, r, t = (by_rank[rank] for rank in (299, 256, 255, 3))
    gens = [A.parse(f"{p}·{q} − {q}"), A.parse(f"{q}·{p} − {r}·{p}")]
    member = A.parse(f"{t}·{p}·{q}·{r} − {t}·{q}·{r}") + \
        A.parse(f"{q}·{p}·{p} − {r}·{p}·{p}")
    # the overlap p·q·p gives p·r·p − r·p, which neither generator's lead
    # divides: completion must find it
    overlap = A.parse(f"{p}·{r}·{p} − {r}·{p}")
    stranger = A.parse(f"{r}·{t}·{r}")
    report = certify(gens, [member, overlap, stranger], order,
                     CompletionLimits(max_degree=6, time_budget=60))
    first, second, third = report.results
    for res in (first, second):
        assert res.certified
        assert verify_certificate(res.certificate).valid
    assert third.status == BUDGET_EXHAUSTED
    assert third.remainder == stranger


def test_claims_may_carry_constant_terms(werner_system):
    A, F, _ = werner_system
    # claim with constant term is fine; it simply cannot be a member here
    report = certify(F, [A.parse("a·a⁻ − 1")], assumption_names=FNAMES,
                     limits=CompletionLimits(max_degree=8, time_budget=10))
    assert report.results[0].status == BUDGET_EXHAUSTED


def test_randomized_members_always_certify(werner_algebra):
    A = werner_algebra
    rng = random.Random(11)
    names = A.names

    def rand_word(max_len=3):
        return tuple(rng.randrange(len(names))
                     for _ in range(rng.randrange(max_len + 1)))

    def rand_poly(terms=2):
        d = {}
        for _ in range(terms):
            d[rand_word()] = rng.choice([-2, -1, 1, 2])
        p = A.poly(d)
        return p if p else A.gen("a")

    for trial in range(40):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            g = rand_poly()
            g = g - A.monomial((), g.constant_term)  # soundness hypothesis
            if g:
                gens.append(g)
        if not gens:
            continue
        member = A.zero()
        for g in gens:
            member = member + A.monomial(rand_word(), rng.choice([-2, -1, 1, 2])) \
                * g * A.monomial(rand_word())
        report = certify(gens, [member],
                         limits=CompletionLimits(max_degree=10,
                                                 max_iterations=4000,
                                                 time_budget=20))
        res = report.results[0]
        assert res.certified, f"trial {trial}: {res.remainder}"
        assert verify_certificate(res.certificate).valid


def test_certificate_json_round_trip(werner_system, tmp_path):
    A, F, f = werner_system
    report = certify(F, [f], assumption_names=FNAMES, claim_names=["werner"])
    cert = report.results[0].certificate
    path = tmp_path / "werner.cert"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert verify_certificate(loaded).valid
    assert len(loaded.summands) == len(cert.summands)
    assert loaded.integral == cert.integral
    # dict form is stable under a round trip as well
    assert certificate_to_dict(certificate_from_dict(certificate_to_dict(cert))) \
        == certificate_to_dict(cert)


def test_certificate_file_schema(werner_system, tmp_path):
    A, F, f = werner_system
    report = certify(F, [f], assumption_names=FNAMES, claim_names=["werner"])
    path = tmp_path / "w.cert"
    save_certificate(report.results[0].certificate, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) >= {"format", "ops", "claim", "assumptions", "summands",
                         "integral"}
    for s in data["summands"]:
        assert set(s) == {"left", "index", "assumption", "right"}


def test_zero_assumptions_keep_index_space(werner_system):
    A, F, f = werner_system
    padded = [A.zero()] + F  # index 0 is dead weight
    report = certify(padded, [f],
                     assumption_names=["dead"] + [f"f{k}" for k in range(1, 9)])
    cert = report.results[0].certificate
    assert verify_certificate(cert).valid
    assert 0 not in cert.used_indices
    assert cert.used_indices <= {1, 2, 3, 6}


def test_fractional_cofactors_clear_integral_flag(werner_algebra):
    A = werner_algebra
    g = A.parse("2·a·b − 2·a")
    claim = A.parse("a·b − a")
    report = certify([g], [claim])
    cert = report.results[0].certificate
    assert verify_certificate(cert).valid
    assert cert.integral is False


def _constant_term_certificate():
    """The claim a·b − b·a "proven" from a·b − b·a + 1 and 1."""
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    one = A.one()
    return make_certificate(
        A.parse("a·b − b·a"), [A.parse("a·b − b·a + 1"), A.parse("1")],
        ["F1", "F2"], [Summand(one, 0, one), Summand(-1 * one, 1, one)])


def test_verify_rejects_used_constant_term_assumption():
    cert = _constant_term_certificate()
    result = verify_certificate(cert)
    assert not result.valid
    assert "F1 has a nonzero constant term" in result.reason
    # the same sum is valid as a ring-level-only statement
    assert verify_certificate(replace(cert, ring_level_only=True)).valid


def test_certify_marks_ring_level_only_certificates():
    A = FreeAlgebra()
    A.add("a")
    A.add("b")
    F = [A.parse("a·b − a"), A.parse("1")]
    constant = certify(F, [A.parse("b")], require_zero_constant=False) \
        .results[0].certificate
    assert constant.used_indices == {1} and constant.ring_level_only
    # a certificate without a constant-term assumption stays transferable
    plain = certify(F[:1], [A.parse("a·b·b − a")],
                    require_zero_constant=False).results[0].certificate
    assert plain.used_indices == {0} and not plain.ring_level_only
    assert "ring_level_only" not in certificate_to_dict(plain)
    data = certificate_to_dict(constant)
    assert data["ring_level_only"] is True
    loaded = certificate_from_dict(data)
    assert loaded.ring_level_only and verify_certificate(loaded).valid
    data.pop("ring_level_only")
    assert not verify_certificate(certificate_from_dict(data)).valid


@pytest.mark.parametrize("value", ["true", 1, None])
def test_ring_level_only_must_be_a_boolean(werner_system, value):
    A, F, f = werner_system
    report = certify(F, [f], assumption_names=FNAMES)
    data = certificate_to_dict(report.results[0].certificate)
    data["ring_level_only"] = value
    with pytest.raises(AlgebraError, match="ring_level_only"):
        certificate_from_dict(data)
