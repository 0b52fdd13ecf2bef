"""Exact expression parsing for rational functions, constants, and ExpSums.

A product of integer literals, z, their powers and quotients by nonzero
integers is a private monomial (n, d, k), n/d*z^k, reduced by one gcd per
product; a sum adds its monomials over the lcm of their denominators into one
canonical Poly.  Any other sub-expression is a Poly, a RatFunc once it divides
by a non-constant and an ExpSum once an exp(...) term appears: an operator
promotes the lower of its operands, monomial < Poly < RatFunc < ExpSum, and a
monomial is rational, so it moves no extension join, type, error or position.
parse_ratfunc and parse_constant never build an ExpSum and end in RatFunc.of,
and parse_expsum wraps a rational result once.  The expsum module is imported
by the functions that build an ExpSum, so parsing rational input never loads
it.

Grammar (whitespace insignificant)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-'? base ('^' nonneg-integer)?
    base    := 'z' | integer | '(' expr ')'
              | 'sqrt' '(' expr ')'          constant argument
              | 'exp' '(' expr ')'           argument must be a constant times z
              | name                          bound through the params mapping

The text is cut into (kind, text, pos) tuples once, and the evaluator reads
them in three frames per level: expr, term and factor, which takes a unary
minus, a base and its power in one frame.  A power of a monomial or a Poly
checks its caps on that one term or Poly.

'^' binds tighter than unary minus, so -z^2 parses as -(z^2).  Rational
literals like 1/2 arrive through exact division, which is equivalent.
Division by anything identically zero raises ZeroDenominatorLiteralError
with the position of the '/'.  Parentheses, sqrt( and exp( nest at most
MAX_NESTING_DEPTH levels deep; a deeper input raises LimitExceededError, as
does a power over MAX_EXPONENT, MAX_POWER_SIZE or MAX_POWER_BITS (see
_power) and an integer literal of more than MAX_LITERAL_DIGITS digits.
"""

from __future__ import annotations

import math

from .errors import ExpressionSyntaxError, LimitExceededError, ZeroDenominatorLiteralError
from .field import FieldConstant, sqrt_constant
from .ratfunc import Poly, RatFunc, _poly

# a level is three frames of recursive descent (five through sqrt( or exp():
# 100 levels stay well inside Python's default recursion limit of 1000
MAX_NESTING_DEPTH = 100
# b^n is refused before any multiply when n > MAX_EXPONENT or when its size
# bound, (terms it can have) * (its degree + 1), exceeds MAX_POWER_SIZE; with
# one-digit coefficients the slowest power at these caps, (exp(z) + 9)^149 or
# ((9*z + 8)/(7*z - 6))^149, parses in under 1 s on a 2-vCPU x86 machine
MAX_EXPONENT = 1000
MAX_POWER_SIZE = 150
# a longer integer literal is refused before int() converts it; a product of
# four literals at the cap still prints under Python's 4,300-digit int-to-str
# limit
MAX_LITERAL_DIGITS = 1000
# b^n is also refused when n times the bit length of b's largest coefficient
# part exceeds the bits of the largest literal, so a power is never longer
# than a literal at the cap: 2^1000 parses, 9999999^1000 does not
MAX_POWER_BITS = (10**MAX_LITERAL_DIGITS - 1).bit_length()
# expand refuses a truncation order or resonance cap above MAX_ORDER; the
# slowest one-digit input measured at the cap, expand --alpha
# (9*z^3+8)/(7*z^3-6) --beta (9*z^3-8)/(7*z^3+6) --gamma (9*z^3+7)/(8*z^3+9)
# --at 9/7 --order 64, runs in about 0.43 s on a 2-vCPU x86 machine, its two
# conjugate branches expanded once (its series take about 1.9 s at order 100,
# where its coefficients pass Python's 4,300-digit int-to-str limit)
MAX_ORDER = 64
# expand's --cap default; it lives here, not in series, so the flag's default
# loads no series code
RESONANCE_CAP_DEFAULT = 64
# the names base reads before the params mapping, which can therefore bind none
RESERVED_NAMES = ("z", "sqrt", "exp")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) per token: kind is 'int', 'name', the operator or
    parenthesis itself, or 'end' for the one closing token."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        elif c.isspace():
            i += 1
        elif c.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _expected(kind: str, token: tuple[str, str, int]) -> ExpressionSyntaxError:
    """The error for token standing where kind was expected."""
    what = f"'{token[1]}'" if token[0] != "end" else "end of input"
    return ExpressionSyntaxError(f"expected {kind} but found {what}", token[2])


class _Parser:
    """Recursive-descent evaluator producing exact values: a monomial
    (n, d, k) below parse, a Poly, a RatFunc or an ExpSum (see _promote)."""

    def __init__(self, text: str, allow_exp: bool, params: dict[str, FieldConstant] | None):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.allow_exp = allow_exp
        self.params = params or {}

    def parse(self) -> Poly | RatFunc | ExpSum:
        value = _value(self.expr())
        kind, text, pos = self.tokens[self.k]
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing '{text}'", pos)
        return value

    def expr(self) -> Poly | RatFunc | ExpSum | tuple:
        if self.depth > MAX_NESTING_DEPTH:
            raise LimitExceededError(
                f"expression nests deeper than {MAX_NESTING_DEPTH} levels "
                f"(at position {self.tokens[self.k][2]})"
            )
        self.depth += 1
        tokens = self.tokens
        value, monomials, op = None, [], "+"
        while True:
            term = self.term()
            if type(term) is tuple:
                monomials.append(term if op == "+" else (-term[0], term[1], term[2]))
            else:  # the monomials met so far join the sum as one Poly first
                value, monomials = _add(_add(value, _sum(monomials), "+"), term, op), []
            if (op := tokens[self.k][0]) != "+" and op != "-":
                break
            self.k += 1
        self.depth -= 1
        if value is None and len(monomials) == 1:
            return monomials[0]
        return _add(value, _sum(monomials), "+")

    def term(self) -> Poly | RatFunc | ExpSum | tuple:
        tokens = self.tokens
        value = self.factor()
        while (op := tokens[self.k])[0] == "*" or op[0] == "/":
            self.k += 1
            rhs = self.factor()
            both = type(value) is tuple and type(rhs) is tuple  # two monomials
            if both and (op[0] == "*" or rhs[0] and not rhs[2]):  # not by 0 or z^k
                (n, d, k), (m, e, j) = value, rhs if op[0] == "*" else (rhs[1], rhs[0], 0)
                n, d = n * m, d * e
                g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)  # one gcd: n/d reduced, d > 0
                value = n // g, d // g, k + j
            else:
                value, rhs = _promote(_value(value), _value(rhs))
                value = value * rhs if op[0] == "*" else self._divide(value, rhs, op[2])
        return value

    def factor(self) -> Poly | RatFunc | ExpSum | tuple:
        tokens = self.tokens
        kind, text, pos = tokens[self.k]
        negate = kind == "-"
        if negate:
            self.k += 1
            kind, text, pos = tokens[self.k]
        self.k += 1
        if kind == "int":
            if len(text) > MAX_LITERAL_DIGITS:
                raise LimitExceededError(
                    f"integer literal has more than {MAX_LITERAL_DIGITS} digits "
                    f"(at position {pos})"
                )
            value = (int(text), 1, 0)
        elif kind == "name":
            if text == "z":
                value = (1, 1, 1)
            elif text == "sqrt":
                value = self._sqrt(pos)
            elif text == "exp":
                value = self._exp(pos)
            elif text in self.params:
                value = Poly.const(self.params[text])
            else:
                raise ExpressionSyntaxError(f"unknown name '{text}'", pos)
        elif kind == "(":
            value = self.expr()
            self._close()
        else:
            raise _expected("a value", (kind, text, pos))
        if tokens[self.k][0] == "^":
            exponent = tokens[self.k + 1]
            if exponent[0] != "int":
                raise _expected("'int'", exponent)
            self.k += 2
            value = _power(value, exponent)
        if negate:
            value = (-value[0], value[1], value[2]) if type(value) is tuple else -value
        return value

    def _close(self) -> None:
        """Step over the ')' that ends a parenthesized argument."""
        token = self.tokens[self.k]
        if token[0] != ")":
            raise _expected("')'", token)
        self.k += 1

    # -- function bases ----------------------------------------------------------------

    def _argument(self) -> Poly | RatFunc | ExpSum:
        """The parenthesized expression after sqrt or exp."""
        token = self.tokens[self.k]
        if token[0] != "(":
            raise _expected("'('", token)
        self.k += 1
        value = _value(self.expr())
        self._close()
        return value

    def _sqrt(self, pos: int) -> Poly:
        part = _rational(self._argument())
        c = part.constant_value() if part is not None else None
        if c is None:
            raise ExpressionSyntaxError("sqrt argument must be a constant", pos)
        return Poly.const(sqrt_constant(c))

    def _exp(self, pos: int) -> ExpSum:
        if not self.allow_exp:
            raise ExpressionSyntaxError(
                "exp(...) is not allowed in a rational function", pos
            )
        rate = self._linear_rate(self._argument())
        if rate is None:
            raise ExpressionSyntaxError(
                "exp argument must be a constant multiple of z", pos
            )
        from .expsum import ExpSum

        return ExpSum.exponential(rate, 1)

    @staticmethod
    def _linear_rate(arg: Poly | RatFunc | ExpSum) -> FieldConstant | None:
        part = _rational(arg)  # a monic constant denominator is 1
        if part is None or part.den.degree or part.num.degree > 1 or not part.num[0].is_zero:
            return None
        return part.num[1]

    def _divide(self, lhs: Poly | RatFunc | ExpSum, rhs: Poly | RatFunc | ExpSum,
                pos: int) -> Poly | RatFunc | ExpSum:
        if rhs.is_zero:
            raise ZeroDenominatorLiteralError(pos)
        if isinstance(rhs, Poly):  # and so is lhs, see _promote
            return lhs.scale(rhs[0].inverse()) if rhs.degree == 0 else RatFunc(lhs, rhs)
        if isinstance(rhs, RatFunc):
            return lhs / rhs
        if len(rhs.terms) > 1:
            raise ExpressionSyntaxError(
                "cannot divide by a sum of exponential terms", pos
            )
        from .expsum import ExpSum

        rate, coeff = rhs.terms[0]
        return ExpSum(tuple((r - rate, c / coeff) for r, c in lhs.terms))


def _value(x: Poly | RatFunc | ExpSum | tuple) -> Poly | RatFunc | ExpSum:
    """x, with a monomial (n, d, k) as its Poly n/d*z^k."""
    return _poly([0] * x[2] + [x[0]], (), x[1], 0) if type(x) is tuple else x


def _sum(monomials: list[tuple]) -> Poly | None:
    """The monomials' sum as one Poly over their denominators' lcm, or None."""
    if not monomials:
        return None
    d = math.lcm(*(m[1] for m in monomials))
    a = [0] * (max(m[2] for m in monomials) + 1)
    for n, e, k in monomials:
        a[k] += n * (d // e)
    return _poly(a, (), d, 0)


def _add(value, term, op: str) -> Poly | RatFunc | ExpSum | None:
    """value + term or value - term, where None is an empty sum."""
    if value is None or term is None:
        return term if value is None else value
    value, term = _promote(value, term)
    return value + term if op == "+" else value - term


def _promote(x: Poly | RatFunc | ExpSum, y: Poly | RatFunc | ExpSum) -> tuple:
    """x and y as the higher-ranked type of the two, Poly < RatFunc < ExpSum."""
    if type(x) is type(y):
        return x, y
    if isinstance(x, (Poly, RatFunc)) and isinstance(y, (Poly, RatFunc)):
        return RatFunc.of(x), RatFunc.of(y)
    from .expsum import ExpSum

    return tuple(v if isinstance(v, ExpSum) else ExpSum.from_ratfunc(v) for v in (x, y))


def _rational(x: Poly | RatFunc | ExpSum) -> RatFunc | None:
    """x as a RatFunc, or None when it has a term with a nonzero rate."""
    if isinstance(x, (Poly, RatFunc)):
        return RatFunc.of(x)
    return None if x.has_nonzero_rate() else x.rate_zero_part()


def _bits(p: Poly) -> int:
    """The largest bit length of a reduced numerator, denominator or
    discriminant among the coefficients of p, each coefficient reduced
    on its own rather than read over p's common denominator."""
    bits = p.q.bit_length()
    for x in p.a + p.b:
        g = math.gcd(x, p.d)
        bits = max(bits, (x // g).bit_length(), (p.d // g).bit_length())
    return bits


def _power(value: Poly | RatFunc | ExpSum, token: tuple) -> Poly | RatFunc | ExpSum:
    """value^n for the exponent token.

    Refused with LimitExceededError before any multiply when n exceeds
    MAX_EXPONENT, when the size bound of the power exceeds MAX_POWER_SIZE (a
    power of a k-term sum has at most comb(n + k - 1, k - 1) terms, each of
    degree at most n times the highest numerator or denominator degree of
    value), or when n times the bit length of the largest numerator,
    denominator or discriminant among value's coefficients exceeds
    MAX_POWER_BITS.  A Poly is one term over the denominator 1, whose one
    bit does not count against a nonzero numerator's; a monomial gives the
    figures of its one-term Poly.
    """
    _, text, pos = token
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise LimitExceededError(f"exponent exceeds {MAX_EXPONENT} (at position {pos})")
    n = int(digits)
    if type(value) is tuple:  # the one-term Poly's figures, a zero one's 1 and 0
        c, d, k = value
        size, bits = (n * k + 1, max(c.bit_length(), d.bit_length())) if c else (1, 0)
    elif isinstance(value, Poly):
        size, bits = n * value.degree + 1 if value.a else 1, _bits(value)
    else:
        coeffs = ([value] * (not value.is_zero) if isinstance(value, RatFunc)
                  else [c for _, c in value.terms])
        k = len(coeffs)
        degree = max((max(c.num.degree, c.den.degree) for c in coeffs), default=0)
        size = math.comb(n + k - 1, k - 1) * (n * degree + 1) if k else 1
        bits = max((_bits(p) for c in coeffs for p in (c.num, c.den)), default=0)
    if size > MAX_POWER_SIZE:
        raise LimitExceededError(
            f"power of size {size} exceeds {MAX_POWER_SIZE} (at position {pos})"
        )
    if n * bits > MAX_POWER_BITS:
        raise LimitExceededError(
            f"power of {n} times {bits}-bit coefficients exceeds {MAX_POWER_BITS} bits "
            f"(at position {pos})"
        )
    if type(value) is tuple:  # c and d stay coprime
        return c ** n, d ** n, k * n
    if isinstance(value, Poly):
        return value.pow(n)
    if isinstance(value, RatFunc):
        return value ** n
    from .expsum import ExpSum

    if len(value.terms) == 1:
        rate, coeff = value.terms[0]
        return ExpSum.exponential(rate * n, coeff ** n)
    result = ExpSum.from_ratfunc(RatFunc.const(1))
    for _ in range(n):
        result = result * value
    return result


def parse_expsum(text: str, params: dict[str, FieldConstant] | None = None) -> ExpSum:
    """Parse a finite exponential sum such as '1/2*exp(2*z) - z + 3'."""
    from .expsum import ExpSum

    value = _Parser(text, allow_exp=True, params=params).parse()
    return value if isinstance(value, ExpSum) else ExpSum.from_ratfunc(value)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an exact rational function of z such as '(z^2+1)/(z-2)'."""
    return RatFunc.of(_Parser(text, allow_exp=False, params=None).parse())


def names_read(text: str) -> set[str]:
    """The names an expression reads: the texts of its name tokens."""
    return {name for kind, name, _ in _tokenize(text) if kind == "name"}


def is_name(text: str) -> bool:
    """True when text is exactly one name token of the grammar."""
    try:
        return names_read(text) == {text}
    except ExpressionSyntaxError:
        return False


def parse_constant(text: str) -> FieldConstant:
    """Parse an exact constant such as '-3/2' or '1/2*sqrt(-2)'."""
    c = parse_ratfunc(text).constant_value()
    if c is None:
        raise ExpressionSyntaxError("expected a constant expression", 0)
    return c
