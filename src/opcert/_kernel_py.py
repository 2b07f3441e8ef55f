"""Pure-Python reduction kernels, the hot loops of ``rewrite``.

Words are tuples of ints, coefficient dictionaries map words to nonzero
int/Fraction values.

The entry points are the innermost operations of two-sided reduction and
completion: locating the best reducible factor under the fixed tie-break, the
fused "subtract a scaled two-sided multiple" update, a lead's self-overlaps
and the containment check that confirms which candidate leads a new lead
retires (the completion engine draws the candidates from its two-letter
factor index).  ``batch_overlaps`` is the pairwise overlap/containment scan
of one lead against many; the completion engine finds the same rows through
its lead indexes and is tested against this scan.
"""


def find_best_match(w, leadmap, lengths):
    """Locate the reduction site in ``w`` under the reduction tie-break.

    ``leadmap`` maps a leading word to ``(index, lead_coeff, rank_key)`` where
    ``rank_key`` is the letter-ranking tuple of that word; ``lengths`` holds
    the distinct lead lengths in descending order.  Among all occurrences of
    leading words inside ``w``, the order-largest lead wins, then the leftmost
    position; index ties were resolved when ``leadmap`` was built.

    Returns ``(pos, lead_word, index, lead_coeff)`` or ``None``.
    """
    n = len(w)
    for L in lengths:
        if L > n:
            continue
        best_rk = None
        best = None
        for pos in range(n - L + 1):
            hit = leadmap.get(w[pos:pos + L])
            if hit is not None:
                rk = hit[2]
                if best_rk is None or rk > best_rk:
                    best_rk = rk
                    best = (pos, w[pos:pos + L], hit[0], hit[1])
        if best is not None:
            return best
    return None


def submul(dst, items, c, left, right):
    """In place: ``dst -= c * left . g . right`` where ``items`` are g's terms.

    Returns the list of words that did not exist in ``dst`` before (callers
    feed them to the reduction heap).  Cancelled words are removed.
    """
    new_words = []
    for w, cw in items:
        key = left + w + right
        v = dst.get(key)
        if v is None:
            dst[key] = -c * cw
            new_words.append(key)
        else:
            v = v - c * cw
            if v:
                dst[key] = v
            else:
                del dst[key]
    return new_words


def self_overlaps(v):
    """Proper self-overlaps of a leading word: rows (li, ri, lj, rj, overlap)
    with the i-role on the left copy and the j-role on the right copy."""
    out = []
    n = len(v)
    for k in range(1, n):
        if v[n - k:] == v[:k]:
            out.append(((), v[k:], v[:n - k], (), v + v[k:]))
    return out


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
