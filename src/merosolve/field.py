"""Exact scalar arithmetic in Q and in a single quadratic extension Q(sqrt(q)).

A scalar is a + b*sqrt(q) with rational a, b and a square-free integer
discriminant q (q = 0 means the value is plain rational; q < 0 gives complex
constants).  At most one extension may be live in any computation; combining
values from different extensions raises IncompatibleExtensionsError.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    DivisionByZeroError,
    IncompatibleExtensionsError,
    LimitExceededError,
    NestedExtensionError,
    UnsupportedExtensionError,
)


# square_free_decomposition divides by the primes p up to this bound, and stops
# early once p**3 exceeds the cofactor; a cofactor with no prime factor below
# p is a square, square-free (at most two prime factors when it is below p**3
# or at most the bound cubed) or refused.  Every n up to 10**15 is decided
# exactly.
TRIAL_DIVISION_BOUND = 10**5


def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m square-free.  Returns (s, m); sign stays on m.

    Raises LimitExceededError when deciding it would need an integer
    factorisation past trial division (see TRIAL_DIVISION_BOUND).
    """
    if n == 0:
        return 1, 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    r = isqrt(n)
    if r * r == n:
        return r, sign
    s, m, p = 1, 1, 2
    while p * p * p <= n and p <= TRIAL_DIVISION_BOUND:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return s * r, sign * m
    if n > TRIAL_DIVISION_BOUND**3:
        raise LimitExceededError(
            f"the square-free part of a {n.bit_length()}-bit integer needs "
            f"factoring past trial division by the primes up to "
            f"{TRIAL_DIVISION_BOUND}"
        )
    # no prime below p divides n and n < p**3, or p is past the bound and
    # n <= TRIAL_DIVISION_BOUND**3: n is 1, a prime or two distinct primes
    return s, sign * m * n


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


_F0 = Fraction(0)


class FieldConstant:
    """Immutable exact constant a + b*sqrt(q).

    The public constructor canonicalises its input: it pulls square factors
    out of q and collapses b == 0 or a square q to a plain rational.
    Arithmetic results skip that work (see _trusted).
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a: Fraction, b: Fraction = _F0, q: int = 0):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if not isinstance(q, int):
            raise TypeError("discriminant must be an integer")
        if b == 0 or q == 0:
            # b*sqrt(0) contributes nothing; pure rationals carry q = 0
            b, q = Fraction(0), 0
        else:
            s, m = square_free_decomposition(q)
            if m == 1:
                a, b, q = a + b * s, Fraction(0), 0
            else:
                b, q = b * s, m
        _set_a(self, a)
        _set_b(self, b)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _trusted, (self.a, self.b, self.q)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.q) == (other.a, other.b, other.q)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(x) -> FieldConstant:
        if isinstance(x, FieldConstant):
            return x
        return _trusted(_as_fraction(x), _F0, 0)

    # -- predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        return not self.b

    def is_positive_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1 and self.a >= 1

    def as_integer(self) -> int:
        if self.b != 0 or self.a.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return self.a.numerator

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = common_discriminant((other,), self.q)
        return _trusted(self.a + other.a, self.b + other.b, q)

    __radd__ = __add__

    def __sub__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = common_discriminant((other,), self.q)
        return _trusted(self.a - other.a, self.b - other.b, q)

    def __rsub__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> FieldConstant:
        return _trusted(-self.a, -self.b, self.q)

    def conjugate(self) -> FieldConstant:
        """a - b*sqrt(q): the image under sqrt(q) -> -sqrt(q), which fixes Q."""
        return _trusted(self.a, -self.b, self.q) if self.b else self

    def __mul__(self, other) -> FieldConstant:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.b:  # a rational factor scales both parts
            if not self.b:
                return _trusted(self.a * other.a, _F0, 0)
            return _trusted(self.a * other.a, self.b * other.a, self.q)
        if not self.b:
            return _trusted(self.a * other.a, self.a * other.b, other.q)
        q = common_discriminant((other,), self.q)
        a = self.a * other.a + self.b * other.b * q
        b = self.a * other.b + self.b * other.a
        return _trusted(a, b, q)

    __rmul__ = __mul__

    def inverse(self) -> FieldConstant:
        if self.is_zero:
            raise DivisionByZeroError("division by zero constant")
        if not self.q:
            return _trusted(1 / self.a, _F0, 0)
        n = self.a * self.a - self.b * self.b * self.q
        # n = 0 with q square-free and nonzero forces a = b = 0, handled above
        return _trusted(self.a / n, -self.b / n, self.q)

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


_set_a = FieldConstant.a.__set__
_set_b = FieldConstant.b.__set__
_set_q = FieldConstant.q.__set__


def _trusted(a: Fraction, b: Fraction, q: int) -> FieldConstant:
    """a + b*sqrt(q) from parts that are canonical already; no square-free work.

    The caller guarantees that a and b are Fractions and that q is 0 or the
    square-free discriminant (not 1) of a canonical operand.  Sums, products,
    negations and inverses of canonical constants keep such a q, so the only
    normalisation left is that a vanishing b drops the extension (q = 0).
    """
    c = object.__new__(FieldConstant)
    _set_a(c, a)
    _set_b(c, b)
    _set_q(c, q if b else 0)
    return c


def _coerce(x):
    if isinstance(x, FieldConstant):
        return x
    if isinstance(x, (int, Fraction)):
        return _trusted(_as_fraction(x), _F0, 0)
    return NotImplemented


ZERO = FieldConstant(Fraction(0))
ONE = FieldConstant(Fraction(1))


# -- integer views: Z[sqrt(q)] over one common denominator ----------------------------


def common_discriminant(cs, q: int = 0) -> int:
    """The discriminant that q and cs share: 0 when all are rational.

    cs holds anything with a q (constants, polynomials).  This is the one rule
    for joining extensions: when two different ones meet it raises
    IncompatibleExtensionsError(first, second)."""
    for c in cs:
        if c.q and c.q != q:
            if q:
                raise IncompatibleExtensionsError(q, c.q)
            q = c.q
    return q


def integer_parts(cs, q: int) -> tuple[list[int], list[int], int]:
    """(A, B, den) with cs[i] = (A[i] + B[i]*sqrt(q))/den, den the lcm of the
    denominators; B is empty when q = 0.  q must be the discriminant of every
    irrational constant in cs (see common_discriminant)."""
    den = lcm(*(c.a.denominator for c in cs), *(c.b.denominator for c in cs))
    a = [c.a.numerator * (den // c.a.denominator) for c in cs]
    b = [c.b.numerator * (den // c.b.denominator) for c in cs] if q else []
    return a, b, den


def from_integers(u: int, v: int, den: int, q: int) -> FieldConstant:
    """The canonical constant (u + v*sqrt(q))/den, den != 0: one exact
    division (a gcd) per nonzero part."""
    return _trusted(Fraction(u, den), Fraction(v, den) if v else _F0, q)


def _int_str(n: int) -> str:
    """str(n), refused before str() meets Python's int-to-str digit limit
    (at least 640 digits, so shorter integers skip the check)."""
    limit = n.bit_length() > 2000 and sys.get_int_max_str_digits()
    if limit and abs(n) >= 10**limit:
        raise LimitExceededError(
            f"a {n.bit_length()}-bit integer exceeds the {limit}-digit printing limit"
        )
    return str(n)


def _frac_str(n: int, d: int) -> str:
    s = _int_str(n)
    return s if d == 1 else f"{s}/{_int_str(d)}"


def format_parts(an: int, ad: int, bn: int, bd: int, q: int) -> str:
    """The canonical text of an/ad + (bn/bd)*sqrt(q), each fraction in lowest
    terms over a positive denominator: "3/2", "sqrt(2)", "1/2*sqrt(2)",
    "1 + sqrt(-1)".  Every integer passes the printing guard of _int_str."""
    if not bn:
        return _frac_str(an, ad)
    q = _int_str(q)
    sign, bn = ("-", -bn) if bn < 0 else ("+", bn)
    root = f"sqrt({q})" if bn == bd == 1 else f"{_frac_str(bn, bd)}*sqrt({q})"
    if not an:
        return root if sign == "+" else f"-{root}"
    return f"{_frac_str(an, ad)} {sign} {root}"


def format_constant(c: FieldConstant) -> str:
    """Canonical exact rendering of c, see format_parts."""
    a, b = c.a, c.b
    return format_parts(a.numerator, a.denominator, b.numerator, b.denominator, c.q)


def sqrt_constant(c: FieldConstant) -> FieldConstant:
    """Exact square root of a field constant.

    Rational input: returns the nonnegative rational root when c is a perfect
    square, otherwise sqrt(n/d) = (s/d)*sqrt(m) in Q(sqrt(m)), m square-free;
    the root's q tells the caller which extension it needs.  Input already
    in a proper extension: returns an in-field root when one exists,
    otherwise raises NestedExtensionError.
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
        return _trusted(_F0, Fraction(s, c.a.denominator), m)
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
            root = _trusted(x, y, c.q)
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
        """Square root lifted through the context's extension budget.

        A rational c whose root is irrational opens the extension Q(sqrt(q));
        that must be the context's one extension, or UnsupportedExtensionError
        is raised.  A root of an element already in Q(sqrt(q)) stays there
        and uses no budget."""
        root = sqrt_constant(c)
        if c.is_rational and root.q != 0:
            if self.q is not None and self.q != root.q:
                raise UnsupportedExtensionError(self.q, root.q)
            self.q = root.q
        return root
