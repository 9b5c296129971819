"""Exception types raised across the package.

Every domain failure has its own class so callers can distinguish bad
inputs from exhausted searches; the latter all derive from SearchFailure,
which is what the CLI maps to exit code 1.
"""


class AgmdsError(Exception):
    """Base class for all package errors."""


class SearchFailure(AgmdsError):
    """A search or certificate ended without the object it looked for: not
    MDS, nothing found, or a budget used up.  The CLI exits 1 on these and
    2 on every other AgmdsError."""


# -- field construction and arithmetic ------------------------------------

class NotPrime(AgmdsError):
    """Characteristic is not a prime number."""


class Reducible(AgmdsError):
    """Supplied modulus polynomial factors over the prime field."""


class DegreeMismatch(AgmdsError):
    """Modulus length does not match the requested extension degree."""


class TooLarge(AgmdsError):
    """Order exceeds the exhaustive-computation cap."""


class DivisionByZero(AgmdsError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class CharNotTwo(AgmdsError):
    """Operation requires a field of characteristic 2."""


class MalformedText(AgmdsError):
    """Field, element, curve or point text does not parse."""


# -- curves ----------------------------------------------------------------

class Singular(AgmdsError):
    """Curve model has a singular point."""


class BadModel(AgmdsError):
    """Curve coefficients do not match the expected model shape."""


class PointNotOnCurve(AgmdsError):
    """Point does not satisfy the curve equation."""


class OutsideHasse(AgmdsError):
    """Requested point count violates the Hasse window."""


class NotAdmissible(AgmdsError):
    """Requested point count is excluded by the order classification."""


class NotPrimePower(AgmdsError):
    """Field order is not a prime power."""


class BudgetExhausted(SearchFailure):
    """Search ran out of its step budget without a hit."""


# -- function spaces and codes ----------------------------------------------

class InfinityEvaluation(AgmdsError):
    """Function evaluation requested at the point at infinity."""


class DegreeOutOfRange(AgmdsError):
    """Divisor degree outside the valid range for the code construction."""


class DuplicatePoints(AgmdsError):
    """Evaluation points are not pairwise distinct."""


class DuplicateEvaluationPoints(DuplicatePoints):
    """Evaluation elements for a polynomial code are not distinct."""


class RankDeficient(AgmdsError):
    """Generator matrix does not have full row rank."""


class BudgetExceeded(SearchFailure):
    """Exact check would exceed its elementary-step budget."""


class NotHalfRate(AgmdsError):
    """Self-dualization requires n = 2k."""


class NoFullWeightSolution(SearchFailure):
    """No all-coordinates-nonzero vector found in the solution space."""


class RangeViolation(AgmdsError):
    """Parameter outside its documented range."""


# -- recipes ----------------------------------------------------------------

class PreconditionFailed(AgmdsError):
    """A recipe precondition does not hold; the message names the clause."""


class NotMDS(SearchFailure):
    """Certification scan found a zero-sum subset / short-weight codeword."""


class NoAdmissibleCurve(SearchFailure):
    """No curve with the required order/structure was found."""


class SubgroupNotFound(SearchFailure):
    """No subgroup or generator with the required order exists."""


class NoAdmissibleBeta(SearchFailure):
    """No trace value satisfies the pipeline congruences."""


class NotFound(SearchFailure):
    """Randomized search ended without a hit; message carries the attempts."""


# -- persistence --------------------------------------------------------------

class IOFailure(AgmdsError):
    """Catalog file could not be read or written."""
