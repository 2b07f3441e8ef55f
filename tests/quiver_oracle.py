"""Signature inference with one union per word, kept as an oracle.

``per_word_signatures`` states the chaining constraints of every word and
the same-source/same-target constraints of every word of a polynomial, as
often as they recur.  ``quiver.infer_signatures`` states each distinct
constraint once; both must give the same vertex classes, so the same
vertex names and edges.
"""

from opcert.quiver import LabelledQuiver, _UnionFind


def per_word_signatures(polys, alg) -> LabelledQuiver:
    uf = _UnionFind()
    occurring = dict.fromkeys(x for p in polys for w in p._terms for x in w)
    for x in occurring:
        partner = alg.adjoint_id(x)
        if partner is not None and partner in occurring:
            uf.union(("s", x), ("t", partner))
            uf.union(("t", x), ("s", partner))
    for p in polys:
        poly_src = poly_tgt = None
        for w in p._terms:
            if not w:
                continue
            for a, b in zip(w, w[1:]):  # a left of b: source(a) = target(b)
                uf.union(("s", a), ("t", b))
            if poly_src is None:
                poly_src, poly_tgt = ("s", w[-1]), ("t", w[0])
            else:
                uf.union(poly_src, ("s", w[-1]))
                uf.union(poly_tgt, ("t", w[0]))
        if poly_src is not None and () in p._terms:
            uf.union(poly_src, poly_tgt)
    labels: dict = {}
    for x in occurring:
        for s in (("s", x), ("t", x)):
            root = uf.find(s)
            if root not in labels:
                labels[root] = f"v{len(labels) + 1}"
    edges = [(x, labels[uf.find(("s", x))], labels[uf.find(("t", x))])
             for x in occurring]
    return LabelledQuiver(alg, list(labels.values()), edges)
