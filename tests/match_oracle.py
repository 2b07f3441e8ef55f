"""Brute-force oracles for the reducer's lead trie.

``best_match`` lists every lead factor of a word and applies the documented
tie-break; ``reduction_site`` reads the site the reducer's trie walk picks
from a one-word normal form; ``trie_contents`` reads a trie back into plain
tables and checks that it is pruned.
"""

from opcert.rewrite import _PREFIXED


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
    """``(leads, prefixed)`` of a reducer's lead trie: each lead word with
    its index, and each word with the prefix list on its node.  Asserts that
    no node below the root is empty: an empty node would have been
    pruned."""
    leads, prefixed = {}, {}
    stack = [((), trie)]
    while stack:
        word, node = stack.pop()
        assert word == () or node, word
        for key, child in node.items():
            if key is None:
                leads[word] = child
            elif key == _PREFIXED:
                prefixed[word] = child
            else:
                stack.append((word + (key,), child))
    return leads, prefixed
