"""Reference implementations of the polynomial and series kernels in plain
FieldConstant arithmetic, as they were written before merosolve moved them to
integer vectors: convolution, long division, Euclid's gcd, the Taylor shift,
Horner evaluation and the derivative on coefficient lists (low to high), the
Taylor division, the order-matching loop and the polynomial printer; the
Taylor shift once more as Horner's rule on whole Polys.

merosolve reads every fact at a point off one Taylor shift.  The point
evaluations it no longer carries live here, built on this file's own
horner, divmod_ and taylor_at: a rational function's value at a point
(eval_at) and its pole order there (pole_order_at), the excluded set, where
a coefficient vanishes or has a pole (in_excluded_set), the leading
balances at a point from those values (leading_candidates), and the side
condition alpha(z0) + beta'(z0) = 0 of the gamma = 0 balance, which
merosolve reads off the branch's resonance at r = 1 (side_condition).

Also here: the residuals of both equations as expanded ExpSum products
(eq3_residual checks a family of the transformed equation against the
original one); the case labels an input's signature selects; the exact
Laurent expansion of an exponential sum; partial fractions over a split
denominator, from its roots and the Taylor series at each; exp-integration
by parts at each pole; case C's allowed rates from the residue at each pole;
the square-free part of an integer by trial division with no bound; and the
expression parser as a token-object recursive descent.  Tests compare the
integer kernels, the root-free solves and the lean parser of merosolve
against them; nothing in the package imports this."""

from __future__ import annotations

import math
from fractions import Fraction

from merosolve.errors import (ExpressionSyntaxError, LimitExceededError, PointInPhiError,
                              ZeroDenominatorLiteralError)
from merosolve.expsum import ExpSum, ObstructionReport
from merosolve.field import (ONE, ZERO, ExtensionContext, FieldConstant, common_discriminant,
                             format_constant, sqrt_constant)
from merosolve.laurent import LaurentExpansion
from merosolve.parse import (MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING_DEPTH,
                             MAX_POWER_BITS, MAX_POWER_SIZE, _bits, _promote, _rational)
from merosolve.ratfunc import Poly, RatFunc, linear_roots, poly_gcd
from merosolve.series import LeadingCandidate


def strip(cs):
    """cs without trailing zeros, as a tuple."""
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def mul(x, y):
    """The coefficients of the product, by convolution."""
    if not x or not y:
        return ()
    out = [ZERO] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    return strip(out)


def divmod_(x, y):
    """(quotient, remainder) by schoolbook long division, y nonzero."""
    x, y = list(strip(x)), strip(y)
    d = len(y) - 1
    inv = y[-1].inverse()
    quo = [ZERO] * max(len(x) - d, 0)
    for i in range(len(x) - 1, d - 1, -1):
        c = x[i] * inv
        quo[i - d] = c
        for j in range(d + 1):
            x[i - d + j] = x[i - d + j] - c * y[j]
    return strip(quo), strip(x[:d])


def monic(x):
    x = strip(x)
    if not x:
        return x
    inv = x[-1].inverse()
    return tuple(c * inv for c in x)


def gcd(x, y):
    """Euclid's algorithm with monic remainders; the monic gcd (() for 0, 0)."""
    x, y = strip(x), strip(y)
    while y:
        x, y = y, divmod_(x, monic(y))[1]
    return monic(x)


def horner(x, z0):
    acc = ZERO
    for c in reversed(x):
        acc = acc * z0 + c
    return acc


def synthetic_shift(x, r):
    """The coefficients of p(z + r): repeated synthetic division by (z - r)."""
    cs, out = list(strip(x)), []
    while cs:
        acc, quo = cs[-1], [ZERO] * (len(cs) - 1)
        for i in range(len(cs) - 2, -1, -1):
            quo[i] = acc
            acc = cs[i] + r * acc
        out.append(acc)
        cs = quo
    return strip(out)


def shift(p, r):
    """The Poly p(z + r) by Horner's rule on whole Polys, one product and one
    sum per coefficient, as Poly.shift was written before it ran on vectors."""
    z_r, out = Poly((r, ONE)), Poly()
    for i in range(p.degree, -1, -1):
        out = out * z_r + Poly.const(p[i])
    return out


def derivative(x):
    return strip([c * i for i, c in enumerate(x)][1:])


def series_div(num, den, n):
    """First n coefficients of the power series num/den, den[0] != 0."""
    inv0 = den[0].inverse()
    num = list(num) + [ZERO] * (n - len(num))
    den = list(den) + [ZERO] * (n - len(den))
    out = [ZERO] * n
    for k in range(n):
        acc = num[k]
        for j in range(1, k + 1):
            if not den[j].is_zero:
                acc = acc - den[j] * out[k - j]
        out[k] = acc * inv0
    return out


def deflate(x, z0):
    """(m, x/(z - z0)**m), m the multiplicity of the root z0 of x, by long division."""
    m = 0
    while horner(x, z0).is_zero:
        x, m = divmod_(x, (-z0, ONE))[0], m + 1
    return m, x


def pole_order_at(f, z0):
    """The order of the pole of the RatFunc f at z0, 0 where f is regular."""
    return deflate(f.den.coeffs, z0)[0]


def eval_at(f, z0):
    """f(z0) by Horner's rule on numerator and denominator; DivisionByZeroError
    at a pole."""
    z0 = FieldConstant.of(z0)
    return horner(f.num.coeffs, z0) / horner(f.den.coeffs, z0)


def in_excluded_set(alpha, beta, gamma, z0):
    """True when z0 is a zero or pole of a coefficient that is not identically
    zero, each read by Horner's rule."""
    return any(horner(f.num.coeffs, z0).is_zero or horner(f.den.coeffs, z0).is_zero
               for f in (alpha, beta, gamma) if not f.is_zero)


def taylor_at(f, z0, n):
    """f.taylor_at(z0, n), through series_div."""
    if f.is_zero:
        return 0, [ZERO] * n
    m, den = deflate(f.den.coeffs, z0)
    return -m, series_div(synthetic_shift(f.num.coeffs, z0), synthetic_shift(den, z0), n)


def residual_order(m, a, p, al, be, ga):
    """(base, slope) of the order-m equation in the next unknown a_n, n = len(a)."""
    n = len(a)
    base = slope = ZERO
    s = m - 2 * p + 2
    for i in range(max(0, s - n + 1), s // 2 + 1):
        j = s - i
        if a[i].is_zero or a[j].is_zero:
            continue
        c = (j - i) ** 2 - (2 * p + s) if i < j else -(p + i)
        if c:
            base = base + a[i] * a[j] * c
    i = s - n
    if 0 <= i < n:
        slope = a[i] * ((n - i) ** 2 - (2 * p + s))
    for i in range(n + 1):
        if i < n and a[i].is_zero:
            continue
        l = m - p - i
        c = al[l] if 0 <= l < len(al) else ZERO
        if 0 <= l + 1 < len(be) and not be[l + 1].is_zero:
            c = c + be[l + 1] * (p + i)
        if c.is_zero:
            continue
        if i < n:
            base = base - c * a[i]
        else:
            slope = slope - c
    if 0 <= m < len(ga):
        base = base - ga[m]
    return base, slope


def leading_candidates(alpha, beta, gamma, z0):
    """series.leading_candidates, each value at z0 from eval_at and the
    excluded set from in_excluded_set."""
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    common_discriminant((alpha, beta, gamma, z0))
    if in_excluded_set(alpha, beta, gamma, z0):
        raise PointInPhiError(z0)
    if alpha.is_zero and beta.is_zero and gamma.is_zero:
        return []
    if gamma.is_zero and beta.is_zero:
        return [LeadingCandidate(2, -eval_at(alpha, z0) / 2)]
    if gamma.is_zero:
        return [LeadingCandidate(1, -eval_at(beta, z0))]
    b0 = eval_at(beta, z0)
    g0 = eval_at(gamma, z0)
    disc = b0 * b0 - 4 * g0
    if disc.is_zero:
        return [LeadingCandidate(1, -b0 / 2, note="double root of the leading equation")]
    s = sqrt_constant(disc)
    return [LeadingCandidate(1, (-b0 + s) / 2), LeadingCandidate(1, (-b0 - s) / 2)]


def side_condition(alpha, beta, z0):
    """Whether alpha(z0) + beta'(z0) = 0, each value by Horner's rule."""
    alpha, beta = RatFunc.of(alpha), RatFunc.of(beta)
    return (eval_at(alpha, z0) + eval_at(beta.derivative(), z0)).is_zero


def match_orders(res, a, order, free_value):
    """Extend a in place through a_order; (first vanishing slope, halt index)."""
    first = None
    for n in range(len(a), order + 1):
        base, slope = res(n, a)
        if not slope.is_zero:
            a.append(-base / slope)
            continue
        if first is None:
            first = n
        if not base.is_zero:
            return first, n
        a.append(free_value if n == first else ZERO)
    return first, None


def expand(alpha, beta, gamma, z0, p, a0, order):
    """(coefficients, halted_at, alternate_coefficients) of series.expand."""
    n_taylor = order + 2 * p + 1
    al, be, ga = (taylor_at(f, z0, n_taylor)[1] for f in (alpha, beta, gamma))

    def res(n, a):
        return residual_order(n + 2 * p - 2, a, p, al, be, ga)

    a = [a0]
    first, halted = match_orders(res, a, order, ZERO)
    alternate = None
    if first is not None and halted != first:
        alt = a[:first] + [ONE]
        if match_orders(res, alt, order, ZERO)[1] is None:
            alternate = tuple(alt)
    return tuple(a), halted, alternate


def coeff_str(c, power, var="z"):
    """Render coefficient c multiplying var**power, parenthesized when needed."""
    if power == 0:
        s = format_constant(c)
        return f"({s})" if (c.a != 0 and c.b != 0) else s
    zpart = var if power == 1 else f"{var}^{power}"
    if c.a != 0 and c.b != 0:
        return f"({format_constant(c)})*{zpart}"
    if c == ONE:
        return zpart
    if c == -ONE:
        return f"-{zpart}"
    return f"{format_constant(c)}*{zpart}"


def poly_to_str(p, var="z"):
    """ratfunc.poly_to_str, one FieldConstant per coefficient."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c.is_zero:
            continue
        term = coeff_str(c, k, var)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


def residual(alpha, beta, gamma, w):
    """w*w'' - (w')**2 - alpha*w - beta*w' - gamma from ExpSum products."""
    wp = w.derivative()
    wpp = wp.derivative()
    a, b, g = (ExpSum.from_ratfunc(f) for f in (alpha, beta, gamma))
    return w * wpp - wp * wp - a * w - b * wp - g


def eq3_residual(k0, k1, k2, k3, f):
    """f*f'' - (f')**2 - k0 - k1*f - k2*f' - k3*f'' from ExpSum products."""
    fp = f.derivative()
    fpp = fp.derivative()
    k0, k1, k2, k3 = (ExpSum.from_ratfunc(RatFunc.of(k)) for k in (k0, k1, k2, k3))
    return f * fpp - fp * fp - k0 - k1 * f - k2 * fp - k3 * fpp


def applicable_labels(alpha, beta, gamma):
    """The case labels a classification must account for, in report order:
    the paper's case split by which of alpha, beta and gamma vanish."""
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    if gamma.is_zero and beta.is_zero:
        return ("trivial-all-zero",) if alpha.is_zero else ("A-cosh", "A-quadratic", "C")
    if gamma.is_zero:
        return ("B", "C")
    return ("D", "E.a", "E.b", "E.c", "E.d", "E.e")


class TranscendentalShift(Exception):
    """A series about z0 would need exp(rate*z0), which is not a field constant."""


def laurent_at(w, z0, order):
    """Exact expansion of the ExpSum w about z0: coefficients a_0..a_order from
    the leading power p.

    Every nonzero rate must satisfy rate*z0 = 0 (otherwise exp(rate*z0) is
    not a field constant and the expansion cannot stay exact).  The zero
    sum degenerates to p = 0 with all-zero coefficients.
    """
    z0 = FieldConstant.of(z0)
    for rate, _ in w.terms:
        if not rate.is_zero and not z0.is_zero:
            raise TranscendentalShift(
                f"expansion about z0 = {z0} needs exp({rate}*z0), "
                "which is not an exact field constant"
            )
    if w.is_zero:
        return LaurentExpansion(z0, 0, tuple([ZERO] * (order + 1)), order)
    low = -max(pole_order_at(c, z0) for _, c in w.terms)
    high = low + order
    p = None
    for _ in range(12):
        acc = window_series(w, z0, low, high)
        p = next((low + i for i, c in enumerate(acc) if not c.is_zero), None)
        if p is not None:
            break
        high += order + 8
    if p is None:
        raise RuntimeError("leading power search did not terminate")
    if p + order > high:
        high = p + order
        acc = window_series(w, z0, low, high)
    coeffs = tuple(acc[p - low : p - low + order + 1])
    return LaurentExpansion(z0, p, coeffs, order)


def window_series(w, z0, low, high):
    """Exact sum of the term series of w about z0 over absolute exponents
    low .. high."""
    acc = [ZERO] * (high - low + 1)
    for rate, coeff in w.terms:
        m = pole_order_at(coeff, z0)
        n_t = high + m + 1  # term exponents run from -m upward
        if n_t <= 0:
            continue
        off, cs = taylor_at(coeff, z0, n_t)
        # exp(rate*(z0+t)) = exp(rate*t) exactly since rate*z0 = 0
        er = [ONE]
        fact = Fraction(1)
        for j in range(1, n_t):
            fact *= j
            er.append(rate ** j / FieldConstant.of(fact))
        for i, c in enumerate(cs):
            if c.is_zero:
                continue
            for j, e in enumerate(er):
                exp_abs = off + i + j
                if exp_abs > high:
                    break
                if exp_abs >= low:
                    acc[exp_abs - low] = acc[exp_abs - low] + c * e
    return acc


def integrate_exp(coeff, rate, ctx=None):
    """expsum.integrate_exp by integration by parts at each pole of a split
    denominator, the pieces added back together: S with S' + rate*S = coeff,
    or the ObstructionReport at the first pole (in canonical order) whose
    accumulated (z - pole)**(-1) coefficient does not vanish."""
    coeff, rate = RatFunc.of(coeff), FieldConstant.of(rate)
    if coeff.is_zero:
        return coeff
    p, poles = partial_fractions(coeff, ctx)
    # with t = d/(k-1): the integral of d*exp(rate*z)/(z-P)**k is
    # -t*exp(rate*z)/(z-P)**(k-1) plus that of t*rate*exp(rate*z)/(z-P)**(k-1)
    total = RatFunc(Poly())
    for pole, cs in poles:
        d = [ZERO, *cs]
        for k in range(len(d) - 1, 1, -1):
            t = d[k] / (k - 1)
            d[k - 1] = d[k - 1] + t * rate
            d[k] = -t
        if not d[1].is_zero:
            return ObstructionReport(pole, rate, d[1])
        lin = Poly((-pole, ONE))
        for k in range(2, len(d)):
            total = total + RatFunc(Poly.const(d[k]), lin.pow(k - 1))
    if rate.is_zero:
        q = Poly([ZERO] + [p[i] / (i + 1) for i in range(p.degree + 1)])
    else:  # repeated parts: sum_j (-1)**j p^(j) / rate**(j+1)
        q, power = Poly(), rate.inverse()
        while not p.is_zero:
            q, p, power = q + p.scale(power), p.derivative(), -power / rate
    return total + RatFunc(q)


def partial_fractions(f, ctx=None):
    """(polynomial part, poles) with f = polynomial part + the sum over
    (pole, cs) in poles of sum_k cs[k-1]/(z - pole)**k: one entry per root of
    the denominator in linear_roots' canonical order, cs read off taylor_at to
    the pole's order (zeros kept, cs[-1] != 0).  ValueError when the
    denominator does not split over the field of ctx."""
    ctx = ctx or ExtensionContext()
    _, roots, rest = linear_roots(f.den, ctx)
    if rest.degree > 0:
        raise ValueError(f"denominator factor does not split over the field: {rest}")
    poles = tuple((pole, tuple(reversed(f.taylor_at(pole, mult)[1]))) for pole, mult in roots)
    return f.num.divmod(f.den)[0], poles


def case_c_rates(beta, ctx=None):
    """The c1 in the field, in canonical order, at which beta*exp(-c1*z) has
    a rational antiderivative, from a split denominator: None for a
    polynomial beta (every c1).  The residue at a pole is, up to a unit, the
    polynomial in c1 with c1**(k-1) coefficient cs[k-1]*(-1)**(k-1)/(k-1)!,
    and the allowed c1 are the common roots over every pole."""
    ctx = ctx or ExtensionContext()
    _, poles = partial_fractions(beta, ctx)
    if not poles:
        return None
    g = Poly()
    for _, cs in poles:
        g = poly_gcd(g, Poly([(c if k % 2 else -c) / math.factorial(k - 1)
                              for k, c in enumerate(cs, 1)]))
    return tuple(r for r, _ in linear_roots(g, ctx)[1])


def square_free_decomposition(n):
    """(s, m) with n = s**2 * m and m square-free, the sign on m, by trial
    division by every d up to the square root of what is left: no bound,
    so only for small n."""
    if n == 0:
        return 1, 0
    s, m, d, n = 1, 1 if n > 0 else -1, 2, abs(n)
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s, m, d = s * d ** (e // 2), m * d ** (e % 2), d + 1
    return s, m * n


# -- the expression parser ---------------------------------------------------------------
# merosolve.parse as it was before its tokens became tuples and unary, factor
# and base one frame: a _Token object per token and five frames per level.
# The kept helpers (_promote, _rational, _bits) and the limits come from the
# package.


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent evaluator producing exact values: a Poly, a RatFunc
    or an ExpSum (see _promote)."""

    def __init__(self, text: str, allow_exp: bool, params: dict[str, FieldConstant] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.allow_exp = allow_exp
        self.params = params or {}

    # -- token plumbing --------------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            what = f"'{t.text}'" if t.kind != "end" else "end of input"
            raise ExpressionSyntaxError(f"expected '{kind}' but found {what}", t.pos)
        return self.advance()

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> Poly | RatFunc | ExpSum:
        value = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing '{t.text}'", t.pos)
        return value

    def expr(self) -> Poly | RatFunc | ExpSum:
        if self.depth > MAX_NESTING_DEPTH:
            raise LimitExceededError(
                f"expression nests deeper than {MAX_NESTING_DEPTH} levels "
                f"(at position {self.peek().pos})"
            )
        self.depth += 1
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            value, rhs = _promote(value, self.term())
            value = value + rhs if op.kind == "+" else value - rhs
        self.depth -= 1
        return value

    def term(self) -> Poly | RatFunc | ExpSum:
        value = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            value, rhs = _promote(value, self.unary())
            value = value * rhs if op.kind == "*" else self._divide(value, rhs, op.pos)
        return value

    def unary(self) -> Poly | RatFunc | ExpSum:
        if self.peek().kind == "-":
            self.advance()
            return -self.factor()
        return self.factor()

    def factor(self) -> Poly | RatFunc | ExpSum:
        value = self.base()
        if self.peek().kind != "^":
            return value
        self.advance()
        return _power(value, self.expect("int"))

    def base(self) -> Poly | RatFunc | ExpSum:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            if len(t.text) > MAX_LITERAL_DIGITS:
                raise LimitExceededError(
                    f"integer literal has more than {MAX_LITERAL_DIGITS} digits "
                    f"(at position {t.pos})"
                )
            return Poly.const(int(t.text))
        if t.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if t.kind == "name":
            self.advance()
            if t.text == "z":
                return Poly.z()
            if t.text == "sqrt":
                return self._sqrt(t)
            if t.text == "exp":
                return self._exp(t)
            if t.text in self.params:
                return Poly.const(self.params[t.text])
            raise ExpressionSyntaxError(f"unknown name '{t.text}'", t.pos)
        what = f"'{t.text}'" if t.kind != "end" else "end of input"
        raise ExpressionSyntaxError(f"expected a value but found {what}", t.pos)

    # -- function bases ----------------------------------------------------------------

    def _sqrt(self, t: _Token) -> Poly:
        self.expect("(")
        part = _rational(self.expr())
        self.expect(")")
        c = part.constant_value() if part is not None else None
        if c is None:
            raise ExpressionSyntaxError("sqrt argument must be a constant", t.pos)
        return Poly.const(sqrt_constant(c))

    def _exp(self, t: _Token) -> ExpSum:
        if not self.allow_exp:
            raise ExpressionSyntaxError(
                "exp(...) is not allowed in a rational function", t.pos
            )
        self.expect("(")
        arg = self.expr()
        self.expect(")")
        rate = self._linear_rate(arg)
        if rate is None:
            raise ExpressionSyntaxError(
                "exp argument must be a constant multiple of z", t.pos
            )
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
        rate, coeff = rhs.terms[0]
        return ExpSum(tuple((r - rate, c / coeff) for r, c in lhs.terms))


def _power(value: Poly | RatFunc | ExpSum, t: _Token) -> Poly | RatFunc | ExpSum:
    """value^n for the exponent token t.

    Refused with LimitExceededError before any multiply when n exceeds
    MAX_EXPONENT, when the size bound of the power exceeds MAX_POWER_SIZE (a
    power of a k-term sum has at most comb(n + k - 1, k - 1) terms, each of
    degree at most n times the highest numerator or denominator degree of
    value), or when n times the bit length of the largest numerator,
    denominator or discriminant among value's coefficients exceeds
    MAX_POWER_BITS.
    """
    digits = t.text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise LimitExceededError(f"exponent exceeds {MAX_EXPONENT} (at position {t.pos})")
    rational = isinstance(value, (Poly, RatFunc))
    coeffs = [RatFunc.of(value)] * (not value.is_zero) if rational else [c for _, c in value.terms]
    n, k = int(digits), len(coeffs)
    degree = max((max(c.num.degree, c.den.degree) for c in coeffs), default=0)
    size = math.comb(n + k - 1, k - 1) * (n * degree + 1) if k else 1
    if size > MAX_POWER_SIZE:
        raise LimitExceededError(
            f"power of size {size} exceeds {MAX_POWER_SIZE} (at position {t.pos})"
        )
    bits = max((_bits(p) for c in coeffs for p in (c.num, c.den)), default=0)
    if n * bits > MAX_POWER_BITS:
        raise LimitExceededError(
            f"power of {n} times {bits}-bit coefficients exceeds {MAX_POWER_BITS} bits "
            f"(at position {t.pos})"
        )
    if rational:
        return value.pow(n) if isinstance(value, Poly) else value ** n
    if k == 1:
        rate, coeff = value.terms[0]
        return ExpSum.exponential(rate * n, coeff ** n)
    result = ExpSum.from_ratfunc(RatFunc.const(1))
    for _ in range(n):
        result = result * value
    return result


def parse_expsum(text, params=None):
    value = _Parser(text, allow_exp=True, params=params).parse()
    return value if isinstance(value, ExpSum) else ExpSum.from_ratfunc(value)


def parse_ratfunc(text):
    return RatFunc.of(_Parser(text, allow_exp=False, params=None).parse())


def parse_constant(text):
    c = parse_ratfunc(text).constant_value()
    if c is None:
        raise ExpressionSyntaxError("expected a constant expression", 0)
    return c


def names_read(text):
    return {t.text for t in _tokenize(text) if t.kind == "name"}
