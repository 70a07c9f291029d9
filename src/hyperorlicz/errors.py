"""Shared exception types and pinned numerical tolerances."""


class WindowOverflow(RuntimeError):
    """An exact result needs carrier points outside the truncation window.

    Raised instead of silently truncating, so probability masses are never
    corrupted. Callers either enlarge the window or skip the offending step
    and flag it.
    """


class NotCentral(ValueError):
    """An operation that needs a center element got a non-central one."""


class PreconditionFailed(RuntimeError):
    """A probe hypothesis failed; ``hypothesis`` names the failing condition."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__(f"{hypothesis}: {detail}" if detail else hypothesis)


class NonFiniteIntegrand(ArithmeticError):
    """The gauge integrand stays infinite for every finite scaling."""


class NonFiniteValue(ValueError):
    """A value that must be a finite float is not: a Haar weight beyond the
    float range, or a function value that overflowed."""


class ScenarioError(ValueError):
    """A scenario file failed validation."""


# Pinned tolerances, shared across modules.  Never tuned per call site.
EPS_PROB = 1e-12        # probability mass slack for convolution results
TOL_ATOM = 1e-12        # per-atom comparison slack (identity, adjoint, center)
TOL_ASSOC = 1e-10       # associativity residual, accumulated over triple sums
# The translation-invariance residual of the derived measure scales with its
# data: the two Haar integrals of f and of its translate may differ by at
# most INVARIANCE_ULPS units of roundoff (2^-53) times their number of terms
# times the sum of |f| h over both integrands.
INVARIANCE_ULPS = 4
RTOL_NORM = 1e-12       # relative tolerance of the gauge-norm bisection
