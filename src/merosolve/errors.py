"""Typed error hierarchy with stable machine-readable codes.

Every error the package raises on purpose carries a ``code`` attribute that
the CLI surfaces verbatim, so scripts can dispatch on it without parsing
human prose.
"""

from __future__ import annotations


class MerosolveError(Exception):
    """Base class for all package errors."""

    code = "Error"


class DivisionByZeroError(MerosolveError):
    code = "DivisionByZero"


class IncompatibleExtensionsError(MerosolveError):
    """Arithmetic tried to combine values from Q(sqrt(q1)) and Q(sqrt(q2))."""

    code = "IncompatibleExtensions"

    def __init__(self, q1: int, q2: int):
        self.q1, self.q2 = q1, q2
        super().__init__(
            f"cannot combine values from Q(sqrt({q1})) and Q(sqrt({q2}))"
        )


class NestedExtensionError(MerosolveError):
    """A square root of a proper extension element that is not a square there."""

    code = "NestedExtension"


class UnsupportedExtensionError(MerosolveError):
    """A computation needed a second independent quadratic extension."""

    code = "Unsupported"

    def __init__(self, q1: int, q2: int):
        self.q1, self.q2 = q1, q2
        super().__init__(
            f"computation already lives in Q(sqrt({q1})) but needs sqrt with "
            f"discriminant {q2}; a second extension is not supported"
        )


class PoleAtPointError(MerosolveError):
    code = "PoleAtPoint"

    def __init__(self, point, order: int):
        self.point, self.order = point, order
        super().__init__(f"pole of order {order} at z = {point}")


class IrreducibleDenominatorError(MerosolveError):
    """A denominator factor does not split into linear factors over the field."""

    code = "IrreducibleDenominator"

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"denominator factor does not split over the field: {factor}")


class GammaIdenticallyZeroError(MerosolveError):
    code = "GammaIdenticallyZero"


class NearPoleError(MerosolveError):
    code = "NearPole"

    def __init__(self, z: complex, distance: float):
        self.z, self.distance = z, distance
        super().__init__(
            f"evaluation point {z} is within {distance:.3g} of a coefficient pole"
        )


class TranscendentalShiftError(MerosolveError):
    """Series about z0 would need exp(rate*z0), which is not a field constant."""

    code = "TranscendentalShift"


class PointInPhiError(MerosolveError):
    """Expansion point is a zero or pole of a nonzero coefficient."""

    code = "PointInPhi"

    def __init__(self, point):
        self.point = point
        super().__init__(f"z0 = {point} is a zero or pole of a coefficient")


class DomainViolationError(MerosolveError):
    """A parameter value falls outside its family's stated domain."""

    code = "DomainViolation"


class ExpressionSyntaxError(MerosolveError):
    code = "SyntaxError"

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ZeroDenominatorLiteralError(MerosolveError):
    code = "ZeroDenominatorLiteral"

    def __init__(self, position: int):
        self.position = position
        super().__init__(
            f"division by an expression that is identically zero (at position {position})"
        )
