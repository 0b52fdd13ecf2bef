"""Exact scalar arithmetic in Q and in a single quadratic extension Q(sqrt(q)).

A scalar is a + b*sqrt(q) with rational a, b and a square-free integer
discriminant q (q = 0 means the value is plain rational; q < 0 gives complex
constants).  At most one extension may be live in any computation; combining
values from different extensions raises IncompatibleExtensionsError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import (
    DivisionByZeroError,
    IncompatibleExtensionsError,
    NestedExtensionError,
    UnsupportedExtensionError,
)


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m square-free.  Returns (s, m); sign stays on m."""
    if n == 0:
        return 1, 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    r = isqrt(n)
    if r * r == n:
        return r, sign
    s, m, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= n
    return s, sign * m


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class FieldConstant:
    """Immutable exact constant a + b*sqrt(q)."""

    a: Fraction
    b: Fraction = Fraction(0)
    q: int = 0

    def __post_init__(self):
        a = _as_fraction(self.a)
        b = _as_fraction(self.b)
        q = self.q
        if not isinstance(q, int):
            raise TypeError("discriminant must be an integer")
        if b == 0 or q == 0:
            # b*sqrt(0) contributes nothing; pure rationals carry q = 0
            b, q = Fraction(0), 0
        else:
            s, m = square_free_decomposition(q)
            if m == 1:
                a, b, q = a + b * s, Fraction(0), 0
            elif m == 0:
                b, q = Fraction(0), 0
            else:
                b, q = b * s, m
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(x) -> FieldConstant:
        if isinstance(x, FieldConstant):
            return x
        return FieldConstant(_as_fraction(x))

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def is_positive_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1 and self.a >= 1

    def as_integer(self) -> int:
        if self.b != 0 or self.a.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return self.a.numerator

    # -- arithmetic -----------------------------------------------------------

    def _join(self, other: FieldConstant) -> int:
        if self.q == 0:
            return other.q
        if other.q == 0 or other.q == self.q:
            return self.q
        raise IncompatibleExtensionsError(self.q, other.q)

    def __add__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self._join(other)
        return FieldConstant(self.a + other.a, self.b + other.b, q)

    __radd__ = __add__

    def __sub__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> FieldConstant:
        return FieldConstant(-self.a, -self.b, self.q)

    def __mul__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self._join(other)
        a = self.a * other.a + self.b * other.b * q
        b = self.a * other.b + self.b * other.a
        return FieldConstant(a, b, q)

    __rmul__ = __mul__

    def inverse(self) -> FieldConstant:
        if self.is_zero:
            raise DivisionByZeroError("division by zero constant")
        n = self.a * self.a - self.b * self.b * self.q
        # n = 0 with q square-free and nonzero forces a = b = 0, handled above
        return FieldConstant(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> FieldConstant:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- ordering, embedding, display ------------------------------------------

    def sort_key(self) -> tuple:
        return (self.q, self.a, self.b)

    def embed(self) -> complex:
        """Numeric embedding into C (principal square root for q < 0)."""
        root = cmath.sqrt(complex(self.q))
        return complex(self.a) + float(self.b) * root if self.b else complex(self.a)

    def __str__(self) -> str:
        return format_constant(self)

    def __repr__(self) -> str:
        return f"FieldConstant({self})"


def _coerce(x):
    if isinstance(x, FieldConstant):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldConstant(_as_fraction(x))
    return NotImplemented


ZERO = FieldConstant(Fraction(0))
ONE = FieldConstant(Fraction(1))


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_constant(c: FieldConstant) -> str:
    """Canonical exact rendering: "3/2", "sqrt(2)", "1/2*sqrt(2)", "1 + sqrt(-1)"."""
    if c.b == 0:
        return _frac_str(c.a)
    if c.b == 1:
        root = f"sqrt({c.q})"
    elif c.b == -1:
        root = f"-sqrt({c.q})"
    else:
        root = f"{_frac_str(c.b)}*sqrt({c.q})"
    if c.a == 0:
        return root
    sign = "-" if root.startswith("-") else "+"
    return f"{_frac_str(c.a)} {sign} {root.lstrip('-')}"


@dataclass(frozen=True)
class ExtensionRequest:
    """Square root left Q: carries the square-free discriminant and the value."""

    q: int
    value: FieldConstant


def sqrt_constant(c: FieldConstant) -> FieldConstant | ExtensionRequest:
    """Exact square root of a field constant.

    Rational input: returns the nonnegative rational root when c is a perfect
    square, otherwise an ExtensionRequest carrying the square-free part so the
    caller can lift the computation into Q(sqrt(q')).  Input already in a
    proper extension: returns an in-field root when one exists, otherwise
    raises NestedExtensionError.
    """
    c = FieldConstant.of(c)
    if c.is_rational:
        if c.a == 0:
            return ZERO
        exact = rational_sqrt(c.a) if c.a > 0 else None
        if exact is not None:
            return FieldConstant(exact)
        # sqrt(n/d) = sqrt(n*d)/d
        nd = c.a.numerator * c.a.denominator
        s, m = square_free_decomposition(nd)
        value = FieldConstant(Fraction(0), Fraction(s, c.a.denominator), m)
        return ExtensionRequest(q=m, value=value)
    # Solve (x + y*sqrt(q))**2 = a + b*sqrt(q): x*x + q*y*y = a, 2*x*y = b.
    norm = c.a * c.a - c.q * c.b * c.b
    s1 = rational_sqrt(norm)
    if s1 is None:
        raise NestedExtensionError(
            f"{c} lies in Q(sqrt({c.q})) and is not a square there"
        )
    for t in ((c.a + s1) / 2, (c.a - s1) / 2):
        x = rational_sqrt(t) if t >= 0 else None
        if x is not None and x != 0:
            y = c.b / (2 * x)
            root = FieldConstant(x, y, c.q)
            if root.sort_key() < (-root).sort_key():
                root = -root
            return root
    raise NestedExtensionError(
        f"{c} lies in Q(sqrt({c.q})) and is not a square there"
    )


class ExtensionContext:
    """Tracks the single quadratic extension available to one computation."""

    def __init__(self, q: int | None = None):
        self.q = q

    def sqrt(self, c: FieldConstant) -> FieldConstant:
        """Square root lifted through the context's extension budget."""
        result = sqrt_constant(c)
        if isinstance(result, ExtensionRequest):
            if self.q is None or self.q == result.q:
                self.q = result.q
                return result.value
            raise UnsupportedExtensionError(self.q, result.q)
        return result

    def admit(self, c: FieldConstant) -> FieldConstant:
        """Record the extension a value already lives in; reject a second one."""
        if c.q != 0:
            if self.q is None:
                self.q = c.q
            elif self.q != c.q:
                raise UnsupportedExtensionError(self.q, c.q)
        return c
