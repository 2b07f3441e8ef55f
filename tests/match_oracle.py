"""Brute-force oracles for the reducer's lead trie.

``best_match`` lists every lead factor of a word and applies the documented
tie-break; ``reduction_site`` reads the site the reducer's trie walk picks
from a one-word normal form; ``lead_factors`` lists every lead factor of a
word; ``trie_contents`` reads a trie back into its lead table and checks
that it is pruned.
"""


def best_match(table, w, key):
    """The reduction site in ``w`` by the leads of ``table`` (lead word ->
    index) as ``(pos, lead_length, index)``, or None: the longest lead
    factor, then the order-largest under ``key``, then the leftmost."""
    sites = [(n, key(w[pos:pos + n]), -pos)
             for n in range(len(w) + 1) for pos in range(len(w) - n + 1)
             if w[pos:pos + n] in table]
    if not sites:
        return None
    n, _, pos = max(sites)
    return -pos, n, table[w[-pos:n - pos]]


def lead_factors(table, w):
    """Every factor of ``w`` that ``table`` (lead word -> index) holds, as
    ``(pos, index)`` pairs: by position, then by lead length."""
    return [(pos, table[w[pos:pos + n]]) for pos in range(len(w) + 1)
            for n in range(len(w) - pos + 1) if w[pos:pos + n] in table]


def reduction_site(reducer, w):
    """The site at which ``reducer.normal_form`` rewrites the word ``w``, as
    ``(pos, lead_length, index)``, or None: the one step of the normal form
    of ``w`` by leads whose tails are empty."""
    steps = []
    terms = {w: 1}
    reducer.normal_form(terms, lambda idx: (), steps)
    if not steps:
        assert terms == {w: 1}
        return None
    ((c, left, idx, right),) = steps
    assert c == -1 and terms == {}
    return len(left), len(w) - len(left) - len(right), idx


def trie_contents(trie):
    """The leads of a reducer's lead trie, each lead word with its index.
    Asserts that no node below the root is empty, since an empty node would
    have been pruned, and that nodes hold letters and leads only."""
    leads = {}
    stack = [((), trie)]
    while stack:
        word, node = stack.pop()
        assert word == () or node, word
        for key, child in node.items():
            if key is None:
                leads[word] = child
            else:
                assert isinstance(key, int), key
                stack.append((word + (key,), child))
    return leads
