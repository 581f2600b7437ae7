"""Exception types shared across the kernel."""


class HomlieError(Exception):
    """Base class for all kernel errors."""


class DivisionByZero(HomlieError):
    """Division by the zero scalar or zero polynomial."""


class PoleAtPoint(HomlieError):
    """A denominator vanishes at the requested specialization point."""


class PoleAtSpecialization(PoleAtPoint):
    """Specializing a deformation coefficient hit a vanishing denominator."""


class NotDivisible(HomlieError):
    """Exact division failed; no cofactor exists in the ring."""


class NotInvertible(HomlieError):
    """The endomorphism t -> c*t^k is invertible only for k = +1 or -1."""


class NotAUnit(HomlieError):
    """The element is not a unit of the Laurent ring."""


class EqualMorphisms(HomlieError):
    """tau = sigma; use the sigma-sigma context instead."""


class InvalidGcd(HomlieError):
    """A supplied or computed gcd failed divisibility validation."""


class HypothesisViolated(HomlieError):
    """A commutation hypothesis failed on the verification corpus."""


class ConditionsFailed(HomlieError):
    """The forced-bracket commutation conditions do not hold."""


class NotWeakMorphism(HomlieError):
    """The map does not intertwine brackets on the window."""


class CocycleConditionFailed(HomlieError):
    """The 2-cocycle condition failed; no central extension built."""


class BadSize(HomlieError):
    """A window or pair count is not a positive integer, or a corpus is
    empty: the sweep would pass vacuously."""


class ExprSyntaxError(HomlieError):
    """Parse error with position and expectation information."""

    def __init__(self, position: int, expected: str, message: str | None = None):
        self.position = position
        self.expected = expected
        super().__init__(message or f"at position {position}: expected {expected}")
