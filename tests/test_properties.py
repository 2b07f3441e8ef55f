"""Randomized property suites, 200+ seeded cases each.

Covers: the reduce trace identity, verifier acceptance of solver output,
the involution laws, deglex order axioms, certification of randomly built
ideal members, and realization soundness (exact matrix realizations that
zero the assumptions zero every certified claim).
"""

import random
from fractions import Fraction

from opcert.certify import certify, verify_certificate
from opcert.freealg import FreeAlgebra
from opcert.matcheck import evaluate
from opcert.rewrite import CompletionLimits, reduce
from opcert.statements import load_problem, translate

from conftest import FIXTURES
from test_freealg import compare
from test_matcheck import make_werner_realization, rand_matrix

N_CASES = 200


def _algebra():
    A = FreeAlgebra()
    for n in ("x", "y", "z"):
        A.add_pair(n)
    return A


def _rand_word(rng, n_letters, max_len=4):
    return tuple(rng.randrange(n_letters) for _ in range(rng.randrange(max_len + 1)))


def _rand_poly(rng, alg, max_terms=4, max_len=4, allow_zero=False):
    d = {}
    for _ in range(rng.randrange(0 if allow_zero else 1, max_terms + 1)):
        c = rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
        d[_rand_word(rng, len(alg), max_len)] = c
    return alg.poly(d)


def _expand(trace, sources, alg):
    acc = alg.zero()
    for c, l, i, r in trace:
        acc = acc + alg.monomial(l, c) * sources[i] * alg.monomial(r)
    return acc


def test_trace_identity_of_reduce():
    alg = _algebra()
    rng = random.Random(101)
    for _ in range(N_CASES):
        basis = [p for p in (_rand_poly(rng, alg, 3, 3) for _ in range(3)) if p]
        if not basis:
            continue
        p = _rand_poly(rng, alg, 4, 4, allow_zero=True)
        value, steps = reduce(p, basis)
        assert value + _expand(steps, basis, alg) == p


def test_solver_outputs_always_verify():
    alg = _algebra()
    rng = random.Random(202)
    limits = CompletionLimits(max_degree=6, max_iterations=300, time_budget=2)
    checked = 0
    for _ in range(N_CASES):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            g = _rand_poly(rng, alg, 3, 3)
            g = g - alg.monomial((), g.constant_term)
            if g:
                gens.append(g)
        if not gens:
            continue
        claim = _rand_poly(rng, alg, 3, 3, allow_zero=True)
        claim = claim - alg.monomial((), claim.constant_term)
        report = certify(gens, [claim], limits=limits)
        res = report.results[0]
        if res.certified:
            assert verify_certificate(res.certificate).valid
            checked += 1
    assert checked > 0


def test_adjoint_involution_laws():
    alg = _algebra()
    rng = random.Random(303)
    for _ in range(N_CASES):
        p = _rand_poly(rng, alg, allow_zero=True)
        q = _rand_poly(rng, alg, allow_zero=True)
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()
        assert (p + q).adjoint() == p.adjoint() + q.adjoint()
        assert p.adjoint().adjoint() == p


def test_deglex_axioms():
    alg = _algebra()
    order = alg.default_order()
    rng = random.Random(404)
    for _ in range(N_CASES):
        u = _rand_word(rng, len(alg))
        v = _rand_word(rng, len(alg))
        w, w2 = _rand_word(rng, len(alg), 2), _rand_word(rng, len(alg), 2)
        c = compare(order, u, v)
        assert c == -compare(order, v, u)
        assert (c == 0) == (u == v)
        if c == -1:
            assert compare(order, w + u + w2, w + v + w2) == -1
        if len(u) != len(v):
            assert c == (-1 if len(u) < len(v) else 1)


def test_random_ideal_members_certify():
    alg = _algebra()
    rng = random.Random(505)
    limits = CompletionLimits(max_degree=9, max_iterations=3000, time_budget=10)
    done = 0
    for _ in range(N_CASES):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            g = _rand_poly(rng, alg, 3, 3)
            g = g - alg.monomial((), g.constant_term)
            if g:
                gens.append(g)
        if not gens:
            continue
        member = alg.zero()
        for g in gens:
            member = member + (alg.monomial(_rand_word(rng, len(alg), 3),
                                            rng.choice([-2, -1, 1, 2]))
                               * g * alg.monomial(_rand_word(rng, len(alg), 3)))
        report = certify(gens, [member], limits=limits)
        res = report.results[0]
        assert res.certified, f"member not certified, remainder {res.remainder}"
        assert verify_certificate(res.certificate).valid
        done += 1
    assert done >= N_CASES // 2


def test_realization_soundness_werner():
    """Transfer check at desk scale: exact realizations zeroing the Werner
    assumptions zero the certified claim, over many random dimension picks."""
    prob = load_problem(FIXTURES / "werner.prob")
    trans = translate(prob)
    alg = trans.algebra
    claim = trans.claims[0]
    rng = random.Random(606)
    for _ in range(N_CASES):
        r = make_werner_realization(alg, rng)
        for g in trans.assumptions:
            assert evaluate(g, r).is_zero
        assert evaluate(claim, r).is_zero


def _rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n, n, -2, 2)
        if m.rank == n:
            return m


def test_realization_soundness_hartwig():
    """Invertible instances satisfy every Hartwig assumption exactly; the
    certified claim must evaluate to zero as well."""
    prob = load_problem(FIXTURES / "hartwig_v_to_i.prob")
    trans = translate(prob)
    alg = trans.algebra
    rng = random.Random(707)
    for _ in range(25):
        n = rng.randint(1, 3)
        A, B, C = (_rand_invertible(rng, n) for _ in range(3))
        Ai, Bi, Ci = A.inverse(), B.inverse(), C.inverse()
        M = A * B * C
        base = {"a": A, "b": B, "c": C,
                "a†": Ai, "b†": Bi, "c†": Ci, "m†": M.inverse(),
                "u1": B * C * C.T * B.T * A.T * Ai.T,
                "u2": Bi.T * Ci.T * Ci * Bi * Ai * A,
                "v1": B.T * A.T * A * B * C * Ci,
                "v2": Bi * Ai * Ai.T * Bi.T * Ci.T * C.T}
        assign = {}
        for name, mat in base.items():
            iid = alg.indeterminate(name).iid
            assign[iid] = mat
            assign[alg.adjoint_id(iid)] = mat.T
        dims = {v: n for v in trans.quiver.vertices}
        from opcert.matcheck import Realization
        r = Realization(trans.quiver, dims, assign)
        for g, name in zip(trans.assumptions, trans.assumption_names):
            assert evaluate(g, r).is_zero, f"assumption {name} not zeroed"
        for claim in trans.claims:
            assert evaluate(claim, r).is_zero
