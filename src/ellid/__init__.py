"""ellid: elliptic-number and q-series identity verification.

Building blocks: the modified Jacobi theta function and shifted factorials
(`theta`), elliptic numbers and weights with their specializations
(`elliptic`), exact Laurent-polynomial arithmetic in q (`qexact`), Euler's
telescoping lemma with the concrete u/v builders (`telescope`), the identity
catalog with degeneration edges (`identities`), and the randomized
verification harness with CLI (`harness`, `cli`).
"""

from .elliptic import (ABQ, AQ, BQ, FULL_ELLIPTIC, Q, EllipticParams,
                       Specialization, elliptic_factorial, elliptic_number,
                       elliptic_weight, make_context, quad_rel_residual)
from .harness import SampleConfig, SuiteReport, run_suite, sample_params
from .identities import (IdentityDescriptor, VerificationResult, catalog,
                         edges, eval_exact, evaluate, reduce_chain_check)
from .qexact import LaurentPoly, RationalFn, q_binomial, q_number
from .telescope import TelescopePair, builder, telescope_both_sides
from .theta import (GeometricGrid, Nome, ThetaConfig, shifted_factorial,
                    theta, theta_prod)

__version__ = "0.1.0"

__all__ = [
    "ABQ", "AQ", "BQ", "FULL_ELLIPTIC", "Q",
    "EllipticParams", "GeometricGrid", "IdentityDescriptor", "LaurentPoly",
    "Nome", "RationalFn", "SampleConfig", "Specialization", "SuiteReport",
    "TelescopePair", "ThetaConfig", "VerificationResult",
    "builder", "catalog", "edges", "elliptic_factorial", "elliptic_number",
    "elliptic_weight", "eval_exact", "evaluate", "make_context",
    "q_binomial", "q_number", "quad_rel_residual", "reduce_chain_check",
    "run_suite", "sample_params", "shifted_factorial", "telescope_both_sides",
    "theta", "theta_prod",
    "__version__",
]
