"""Exception types shared across the package.

Usage errors (bad arguments, inadmissible indices, dimension mismatches) are
plain ValueError; everything that can only be detected during evaluation gets
a subclass of BergkernError so the CLI can map it to exit code 1.
"""


class BergkernError(Exception):
    """Base class for evaluation-time failures."""


class BranchError(BergkernError):
    """Principal-branch precondition violated (base not in the right half-plane)."""


class ConvergenceError(BergkernError):
    """Series argument outside the convergence region, or truncation policy exhausted."""


class PoleError(BergkernError):
    """A lower hypergeometric parameter is a non-positive integer."""


class RegionError(BergkernError):
    """Closed-form evaluation requested outside its validity region, or
    whose value does not fit a double."""


class SingularityError(BergkernError):
    """A closed-form denominator is numerically zero."""


class SamplingError(BergkernError):
    """Rejection sampling exceeded its attempt budget."""


class QuadratureError(BergkernError):
    """The quadrature oracle has no norm to give: the norm underflows a double,
    or its theta integral needs a finer step than the finest tanh-sinh rule."""
