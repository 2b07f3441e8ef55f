"""opcert: certified proofs of operator identities.

Statements about operators (generalized inverses, reverse order laws, range
inclusions) are translated into noncommutative polynomials; claims are proven
by exhibiting a two-sided cofactor representation over the assumption ideal,
found with a bounded completion engine and checked by an independent
verifier.  Labelled quivers validate that statements are compatible with
operator domains and codomains, and exact rational matrices provide
counterexample checks.
"""

from . import certify, freealg, matcheck, quiver, rewrite, statements

__version__ = "1.0.0"
