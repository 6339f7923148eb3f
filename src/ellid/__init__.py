"""ellid: elliptic-number and q-series identity verification.

Building blocks: the modified Jacobi theta function and shifted factorials
(`theta`, taking the nome p as a plain number), elliptic numbers and weights
with one context class per specialization (`elliptic`: `FullEllipticCtx`,
`ABQCtx`, `AQCtx`, `BQCtx`, `QCtx`, each built directly from its
parameters), exact Laurent-polynomial arithmetic in q (`qexact`), Euler's
telescoping lemma with the concrete u/v builders (`telescope`), the identity
catalog with degeneration edges (`identities`), and the randomized
verification harness with CLI (`harness`, `cli`).
"""

from .elliptic import (ABQCtx, AQCtx, BQCtx, FullEllipticCtx, QCtx,
                       quad_rel_residual)
from .harness import SampleConfig, SuiteReport, run_suite, sample_params
from .identities import (IdentityDescriptor, VerificationResult, catalog,
                         edges, eval_exact, evaluate, reduce_chain_check)
from .qexact import LaurentPoly, RationalFn, q_binomial, q_number
from .telescope import TelescopePair, builder, telescope_both_sides
from .theta import ThetaConfig, shifted_factorial, theta, theta_prod

__version__ = "0.1.0"

__all__ = [
    "ABQCtx", "AQCtx", "BQCtx", "FullEllipticCtx", "IdentityDescriptor",
    "LaurentPoly", "QCtx", "RationalFn", "SampleConfig", "SuiteReport",
    "TelescopePair", "ThetaConfig", "VerificationResult",
    "builder", "catalog", "edges", "eval_exact", "evaluate",
    "q_binomial", "q_number", "quad_rel_residual", "reduce_chain_check",
    "run_suite", "sample_params", "shifted_factorial", "telescope_both_sides",
    "theta", "theta_prod",
    "__version__",
]
