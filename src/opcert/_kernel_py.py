"""The lead-word scans of completion, in pure Python.

Words are tuples of ints.  ``self_overlaps`` lists the sizes of a lead's
self-overlaps and ``find_retirees`` confirms which candidate leads contain a
new lead (the completion engine draws the candidates from its two-letter
factor index).  ``batch_overlaps`` is the pairwise overlap/containment scan
of one lead against many; the engine finds the same rows through its lead
indexes, and the tests use this scan as their oracle.  The three stay a
module of their own because the benchmark's tracer patches them here;
reduction and term arithmetic live in ``rewrite`` and ``freealg.add_terms``.
"""


def self_overlaps(v):
    """Sizes ``0 < k < len(v)``, ascending, with ``v[-k:] == v[:k]``: the
    proper self-overlaps of a leading word, overlap word ``v + v[k:]``."""
    n = len(v)
    return [k for k in range(1, n) if v[n - k:] == v[:k]]


def batch_overlaps(v, others):
    """All nontrivial overlaps of ``v`` (role j) against ``others``.

    ``others`` is a sequence of (i, u) with distinct indices; returns rows
    (i, li, ri, lj, rj, overlap) such that li.u.ri == lj.v.rj == overlap,
    covering suffix/prefix overlaps in both orientations and factor
    containments (including equal words).
    """
    out = []
    nv = len(v)
    for i, u in others:
        nu = len(u)
        m = nu if nu < nv else nv
        for k in range(1, m):
            if u[nu - k:] == v[:k]:
                out.append((i, (), v[k:], u[:nu - k], (), u + v[k:]))
            if v[nv - k:] == u[:k]:
                out.append((i, v[:nv - k], (), (), u[k:], v + u[k:]))
        if nv < nu:
            for t in range(nu - nv + 1):
                if u[t:t + nv] == v:
                    out.append((i, (), (), u[:t], u[t + nv:], u))
        elif nu < nv:
            for t in range(nv - nu + 1):
                if v[t:t + nu] == u:
                    out.append((i, v[:t], v[t + nu:], (), (), v))
        elif u == v:
            out.append((i, (), (), (), (), v))
    return out


def find_retirees(lead, others):
    """Indices from (i, w) pairs whose word contains ``lead`` as a factor,
    in the pairs' order; an empty lead is a factor of every word."""
    n = len(lead)
    if not n:
        return [i for i, _ in others]
    out = []
    first = lead[0]
    for i, w in others:
        nw = len(w)
        if nw < n:
            continue
        for t in range(nw - n + 1):
            if w[t] == first and w[t:t + n] == lead:
                out.append(i)
                break
    return out
