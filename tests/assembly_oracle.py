"""Reference certificate assembly: bottom-up trace expansion and
``Polynomial``-level minimization.

``CompletionEngine.expand_steps`` expands top-down, passing contexts from
each element to older ones, and ``minimize_certificate`` runs on term dicts.
``test_assembly`` checks both against the code here, which builds every
referenced element's full generator-level sum once and adds it at each
reference, groups quads through ``FreeAlgebra.monomial`` and
``FreeAlgebra.poly``, and merges summands keyed by ``Polynomial``.
"""

from opcert.certify import Certificate, Summand, scan_integral
from opcert.freealg import add_terms


def oracle_expand_steps(engine, steps) -> list:
    """``engine.expand_steps(steps)`` as the bottom-up expansion computes it."""
    uses: dict = {}  # element -> steps left to expand that refer to it
    stack = [ref for _, _, ref, _ in steps if ref >= 0]
    while stack:
        k = stack.pop()
        uses[k] = uses.get(k, 0) + 1
        if uses[k] == 1:
            stack.extend(ref for _, _, ref, _ in engine.elements[k].steps
                         if ref >= 0)
    memo: dict = {}  # element -> its generator-level term dict

    def expand(steps) -> dict:
        acc: dict = {}
        for c, l, ref, r in steps:
            if ref < 0:
                items = (((ref,), 1),)
            else:  # drop an element's sum after its last use
                uses[ref] -= 1
                items = (memo[ref] if uses[ref] else memo.pop(ref)).items()
            add_terms(acc, items, c, l, r)
        return acc

    for k in sorted(uses):  # a step refers only to older elements
        memo[k] = expand(engine.elements[k].steps)
    quads = []
    for w, c in expand(steps).items():
        t = w.index(min(w))  # letters are >= 0
        quads.append((c, w[:t], ~w[t], w[t + 1:]))
    return quads


def oracle_quads_to_summands(alg, quads, order) -> list:
    """Summands adding up to ``-sum(quads)``, grouped by (index, left)."""
    grouped: dict = {}
    for c, l, i, r in quads:
        add_terms(grouped.setdefault((i, l), {}), ((r, c),), -1)
    return [Summand(alg.monomial(l), i, alg.poly(grouped[(i, l)]))
            for i, l in sorted(grouped, key=lambda k: (k[0], order.key(k[1])))]


def oracle_minimize_certificate(cert: Certificate) -> Certificate:
    """``minimize_certificate(cert)`` with every merge keyed by and summed
    as ``Polynomial``."""
    summands = [s for s in cert.summands if s.left and s.right]
    while True:
        before = len(summands)
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
                       tuple(summands), scan_integral(summands),
                       cert.ring_level_only)
