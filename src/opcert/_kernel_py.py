"""The lead-word scans of completion, in pure Python.

Words are the completion engine's words, strings whose characters are the
letters' ranks (see ``rewrite``); ``self_overlaps`` and ``batch_overlaps``
also take tuple words.  ``self_overlaps`` lists the sizes of a lead's
self-overlaps and ``find_retirees`` confirms, by ``str`` substring search,
which candidate leads contain a new lead (the completion engine draws the
candidates from its two-letter factor index).  ``batch_overlaps`` is the
pairwise overlap/containment scan of one lead against many; the engine
finds the same rows through its lead indexes, and the tests use this scan
as their oracle.  The three stay a module of their own because the
benchmark's tracer patches them here; reduction and term arithmetic live in
``rewrite`` and ``freealg.add_terms``.
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
    e = v[:0]  # the empty word of v's type
    for i, u in others:
        nu = len(u)
        m = nu if nu < nv else nv
        for k in range(1, m):
            if u[nu - k:] == v[:k]:
                out.append((i, e, v[k:], u[:nu - k], e, u + v[k:]))
            if v[nv - k:] == u[:k]:
                out.append((i, v[:nv - k], e, e, u[k:], v + u[k:]))
        if nv < nu:
            for t in range(nu - nv + 1):
                if u[t:t + nv] == v:
                    out.append((i, e, e, u[:t], u[t + nv:], u))
        elif nu < nv:
            for t in range(nv - nu + 1):
                if v[t:t + nu] == u:
                    out.append((i, v[:t], v[t + nu:], e, e, v))
        elif u == v:
            out.append((i, e, e, e, e, v))
    return out


def find_retirees(lead, others):
    """Indices from (i, w) pairs whose engine word contains ``lead`` as a
    factor, in the pairs' order; an empty lead is a factor of every word."""
    return [i for i, w in others if lead in w]
