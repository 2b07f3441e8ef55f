"""Brute-force oracles for the reducer's lead trie.

``best_match`` lists every lead factor of a word and applies the documented
tie-break; ``reduction_site`` reads the site the reducer's trie walk picks
from a one-word normal form; ``trie_contents`` reads a trie back into its
lead table and checks that it is pruned.  The reducer's words are engine
words (``rewrite.word_codec``); a site's position and length are the same
in the tuple word.
"""

import collections


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
    """The site at which ``reducer.normal_form`` rewrites the engine word
    ``w``, as ``(pos, lead_length, index)``, or None: the one step of the
    normal form of ``w`` by leads whose tails are empty."""
    steps = []
    terms = {w: 1}
    reducer.normal_form(terms, collections.defaultdict(tuple), steps)
    if not steps:
        assert terms == {w: 1}
        return None
    ((c, left, idx, right),) = steps
    assert c == -1 and terms == {}
    return len(left), len(w) - len(left) - len(right), idx


def trie_contents(trie):
    """The leads of a reducer's lead trie, each lead (an engine word) with
    its index.  Asserts that no node below the root is empty, since an empty
    node would have been pruned, and that nodes hold letters (one-character
    strings) and leads only."""
    leads = {}
    stack = [("", trie)]
    while stack:
        word, node = stack.pop()
        assert word == "" or node, word
        for key, child in node.items():
            if key is None:
                leads[word] = child
            else:
                assert isinstance(key, str) and len(key) == 1, key
                stack.append((word + key, child))
    return leads
