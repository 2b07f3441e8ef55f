"""opcert: certified proofs of operator identities.

Statements about operators (generalized inverses, reverse order laws, range
inclusions) are translated into noncommutative polynomials; claims are proven
by exhibiting a two-sided cofactor representation over the assumption ideal,
found with a bounded completion engine and checked by an independent
verifier.  Labelled quivers validate that statements are compatible with
operator domains and codomains, and exact rational matrices provide
counterexample checks.
"""

from .freealg import (AdjointError, AlgebraError, DegLexOrder, FreeAlgebra,
                      Indeterminate, ParseError, Polynomial)
from .rewrite import (BUDGET_EXHAUSTED, COMPLETE, STOPPED_EARLY,
                      CompletionLimits, reduce)
from .certify import (Certificate, CertifyReport, ClaimResult, Summand,
                      VerificationResult, certify, load_certificate,
                      make_certificate, minimize_certificate, save_certificate,
                      verify_certificate)
from .quiver import (WILDCARD, Compatibility, LabelledQuiver, ProblemCheck,
                     check_problem, compatible, infer_signatures,
                     path_signature)
from .statements import (CancellabilityStep, Problem, ProblemFileError,
                         Translation, WorkflowError, apply_cancellability,
                         douglas_factorization, ep_condition,
                         hermitian_condition, identity_axioms, ij_equations,
                         load_problem, parse_problem, run_problem,
                         translate)
from .matcheck import (RatMatrix, Realization, evaluate, example1_check,
                       example2_check, mp_inverse, penrose_check)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
