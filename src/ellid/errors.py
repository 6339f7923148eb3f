"""Exception hierarchy for the ellid package; every pole test raises DomainRejected."""


class EllidError(Exception):
    """Base class for all errors raised by this package."""


class ZeroArgument(EllidError):
    """Theta function called with argument 0."""


class TruncationNotConverged(EllidError):
    """Theta tail bound not met within theta.MAX_TERMS terms."""


class NonIntegerExponent(EllidError):
    """Exact q-mode requires integer exponents; a fractional one was produced."""


class OutOfRange(EllidError):
    """Index outside the valid range (e.g. binomial with k < 0 or k > n)."""


class UnknownTheorem(EllidError):
    """No telescoping builder registered under this name."""


class UnknownIdentity(EllidError):
    """Identity id not present in the catalog."""


class UnknownEdge(EllidError):
    """No degeneration edge registered for this (parent, child) pair."""


class DomainRejected(EllidError):
    """Parameter draw hits a pole / degenerate denominator of the identity.

    The one rejection signal (den, guard_factor, ExactQ.qn_den, the
    telescoping lemma); the harness redraws on it.  Carries a short
    description of the offending quantity.
    """


class ModeUnsupported(EllidError):
    """Identity does not support the requested verification mode."""


class ResamplingExhausted(EllidError):
    """No admissible parameter draw found within harness.MAX_RESAMPLES attempts."""
