"""Polynomials and normalized rational functions over the exact constant field.

A RatFunc is kept reduced (gcd of numerator and denominator is 1) with a monic
denominator, so equality, zero tests and constancy are syntactic.  Square
roots and partial fractions use square-free decomposition and linear/quadratic
splitting only; factors that would need more report themselves as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    IrreducibleDenominatorError,
    NestedExtensionError,
    PoleAtPointError,
    UnsupportedExtensionError,
)
from .field import ZERO, ONE, ExtensionContext, FieldConstant, format_constant


def _fc(x) -> FieldConstant:
    if isinstance(x, FieldConstant):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldConstant.of(x)
    raise TypeError(f"cannot use {type(x).__name__} as a field constant")


class Poly:
    """Dense univariate polynomial, coefficients low to high degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_fc(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> Poly:
        return Poly((_fc(c),))

    @staticmethod
    def z() -> Poly:
        return Poly((ZERO, ONE))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> FieldConstant:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> FieldConstant:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero or other.is_zero:
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> Poly:
        c = _fc(c)
        return Poly([x * c for x in self.coeffs])

    def pow(self, n: int) -> Poly:
        result, base = Poly.const(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        num = list(self.coeffs)
        d = other.degree
        inv = other.leading.inverse()
        q = [ZERO] * max(len(num) - d, 0)
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i] * inv
            if not c.is_zero:
                q[i - d] = c
                for j in range(d + 1):
                    num[i - d + j] = num[i - d + j] - c * other.coeffs[j]
        return Poly(q), Poly(num[:d] if d > 0 else [])

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        return self.scale(self.leading.inverse())

    def derivative(self) -> Poly:
        return Poly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def eval(self, x: FieldConstant) -> FieldConstant:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, r: FieldConstant) -> Poly:
        """Taylor shift: returns p(z + r) as a polynomial in z."""
        cs = list(self.coeffs)
        out = []
        while cs:
            q, rem = _synthetic_div(cs, r)
            out.append(rem)
            cs = q
        return Poly(out)

    def deflate(self, r: FieldConstant) -> Poly:
        """Exact division by (z - r); asserts r is a root."""
        q, rem = _synthetic_div(list(self.coeffs), r)
        if not rem.is_zero:
            raise ValueError(f"{r} is not a root")
        return Poly(q)

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)})"


def _synthetic_div(cs: list[FieldConstant], r: FieldConstant):
    """Divide the polynomial with coefficients cs (low to high) by (z - r)."""
    if not cs:
        return [], ZERO
    q = [ZERO] * (len(cs) - 1)
    acc = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        q[i] = acc
        acc = cs[i] + r * acc
    return q, acc


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, (a % b.monic())
    return a.monic() if not a.is_zero else a


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p monic = prod f_i**i with f_i monic square-free, coprime."""
    if p.degree <= 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b, _ = p.divmod(a)
    c, _ = dp.divmod(a)
    d = c - b.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b, _ = b.divmod(a)
        c, _ = d.divmod(a)
        d = c - b.derivative()
        i += 1
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _rational_root_candidates(p: Poly) -> list[Fraction]:
    """Candidate rational roots of a rational-coefficient polynomial, p(0) != 0."""
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.a.denominator // math.gcd(lcm, c.a.denominator)
    ints = [int(c.a * lcm) for c in p.coeffs]
    a0, an = ints[0], ints[-1]
    if abs(a0) > 10**15 or abs(an) > 10**15:
        return []
    cands = []
    for num in _divisors(a0):
        for den in _divisors(an):
            f = Fraction(num, den)
            cands.append(f)
            cands.append(-f)
    return sorted(set(cands))


def _roots_of_squarefree(f: Poly, ctx: ExtensionContext):
    """Roots of a monic square-free polynomial found over the field.

    Returns (roots, nonsplit) where nonsplit is the monic factor (possibly 1)
    whose roots were not reachable with at most one quadratic extension.
    """
    roots: list[FieldConstant] = []
    while f.degree > 0:
        if f[0].is_zero:
            roots.append(ZERO)
            f = f.deflate(ZERO)
            continue
        if f.degree == 1:
            roots.append(-f[0])
            f = Poly.const(1)
            break
        if f.degree == 2:
            b, c = f[1], f[0]
            disc = b * b - 4 * c
            try:
                s = ctx.sqrt(disc)
            except (NestedExtensionError, UnsupportedExtensionError):
                break
            roots.append((-b + s) / 2)
            roots.append((-b - s) / 2)
            f = Poly.const(1)
            break
        if all(c.is_rational for c in f.coeffs):
            for cand in _rational_root_candidates(f):
                r = FieldConstant.of(cand)
                if f.eval(r).is_zero:
                    roots.append(r)
                    f = f.deflate(r)
                    break
            else:
                break
        else:
            break
    return roots, (f if f.degree > 0 else Poly.const(1))


def linear_roots(p: Poly, ctx: ExtensionContext):
    """All linear factors of p over the field (single-extension budget).

    Returns (leading coefficient, [(root, multiplicity)...] sorted canonically,
    monic nonsplit remainder).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    lc = p.leading
    remainder = Poly.const(1)
    roots: list[tuple[FieldConstant, int]] = []
    for factor, mult in squarefree_factors(p.monic()):
        rs, rem = _roots_of_squarefree(factor, ctx)
        roots.extend((r, mult) for r in rs)
        if rem.degree > 0:
            remainder = remainder * rem.pow(mult)
    roots.sort(key=lambda rm: rm[0].sort_key())
    return lc, roots, remainder


@dataclass(frozen=True)
class PartialFractionForm:
    """f = polynomial_part + sum coeff/(z - pole)**order over the listed terms."""

    polynomial_part: Poly
    pole_terms: tuple[tuple[FieldConstant, int, FieldConstant], ...]

    def poles(self) -> list[tuple[FieldConstant, dict[int, FieldConstant]]]:
        """(pole, {order: coeff}) for every pole, in canonical pole order."""
        grouped: dict[tuple, tuple[FieldConstant, dict[int, FieldConstant]]] = {}
        for pole, order, coeff in self.pole_terms:
            grouped.setdefault(pole.sort_key(), (pole, {}))[1][order] = coeff
        return [grouped[key] for key in sorted(grouped)]

    def recombine(self) -> RatFunc:
        total = RatFunc(self.polynomial_part, Poly.const(1))
        for pole, order, coeff in self.pole_terms:
            den = Poly((-pole, ONE)).pow(order)
            total = total + RatFunc(Poly.const(coeff), den)
        return total


def _series_div(num: list[FieldConstant], den: list[FieldConstant], n: int):
    """First n coefficients of the power series num/den, den[0] != 0."""
    inv0 = den[0].inverse()
    num = num + [ZERO] * (n - len(num))
    den = den + [ZERO] * (n - len(den))
    out = [ZERO] * n
    for k in range(n):
        acc = num[k]
        for j in range(1, k + 1):
            if not den[j].is_zero:
                acc = acc - den[j] * out[k - j]
        out[k] = acc * inv0
    return out


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise DivisionByZeroError("zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.leading.inverse()
            num, den = num.scale(lead), den.scale(lead)
        self.num, self.den = num, den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def const(c) -> RatFunc:
        return RatFunc(Poly.const(_fc(c)))

    @staticmethod
    def z() -> RatFunc:
        return RatFunc(Poly.z())

    @staticmethod
    def of(x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x)
        return RatFunc.const(x)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def constant_value(self) -> FieldConstant | None:
        """The value when this function is constant, else None (normal outcome)."""
        if self.den.degree == 0 and self.num.degree <= 0:
            return self.num[0]
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            other = RatFunc.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        return RatFunc.of(other) - self

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        if other.is_zero:
            raise DivisionByZeroError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> RatFunc:
        return RatFunc.of(other) / self

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return RatFunc.const(1) / (self ** (-n))
        return RatFunc(self.num.pow(n), self.den.pow(n))

    def derivative(self) -> RatFunc:
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    # -- evaluation and expansion ------------------------------------------------

    def pole_order_at(self, z0: FieldConstant) -> int:
        m, den = 0, self.den
        while not den.is_zero and den.eval(z0).is_zero:
            den = den.deflate(z0)
            m += 1
        return m

    def eval_at(self, z0: FieldConstant) -> FieldConstant:
        z0 = _fc(z0)
        d = self.den.eval(z0)
        if d.is_zero:
            raise PoleAtPointError(z0, self.pole_order_at(z0))
        return self.num.eval(z0) / d

    def taylor_at(self, z0: FieldConstant, n: int) -> tuple[int, list[FieldConstant]]:
        """n exact series coefficients of f(z0 + t): (offset, coeffs).

        f(z0 + t) = sum coeffs[i] * t**(offset + i); offset = -(pole order).
        """
        if self.is_zero:
            return 0, [ZERO] * n
        m = self.pole_order_at(z0)
        den = self.den
        for _ in range(m):
            den = den.deflate(z0)
        ns = list(self.num.shift(z0).coeffs)
        ds = list(den.shift(z0).coeffs)
        return -m, _series_div(ns, ds, n)

    # -- decomposition ------------------------------------------------------------

    def partial_fractions(self, ctx: ExtensionContext | None = None) -> PartialFractionForm:
        """Split into polynomial part plus simple/higher pole terms over the field."""
        ctx = ctx or ExtensionContext()
        poly_part, _ = self.num.divmod(self.den)
        _, roots, remainder = linear_roots(self.den, ctx)
        if remainder.degree > 0:
            raise IrreducibleDenominatorError(poly_to_str(remainder))
        terms = []
        for pole, mult in roots:
            den_r = self.den
            for _ in range(mult):
                den_r = den_r.deflate(pole)
            ns = list(self.num.shift(pole).coeffs)
            ds = list(den_r.shift(pole).coeffs)
            local = _series_div(ns, ds, mult)
            for j in range(mult):
                coeff = local[j]
                if not coeff.is_zero:
                    terms.append((pole, mult - j, coeff))
        terms.sort(key=lambda t: (t[0].sort_key(), t[1]))
        return PartialFractionForm(poly_part, tuple(terms))

    def sqrt(self, ctx: ExtensionContext | None = None) -> RatFunc | None:
        """Square root in the rational function field, or None if there is none.

        The leading constant may lift into one quadratic extension through ctx.
        """
        ctx = ctx or ExtensionContext()
        if self.is_zero:
            return RatFunc(Poly())
        num_root, den_root = Poly.const(1), Poly.const(1)
        for factor, mult in squarefree_factors(self.num.monic()):
            if mult % 2:
                return None
            num_root = num_root * factor.pow(mult // 2)
        for factor, mult in squarefree_factors(self.den):
            if mult % 2:
                return None
            den_root = den_root * factor.pow(mult // 2)
        lc = self.num.leading
        root_lc = ctx.sqrt(lc)  # may raise NestedExtension/Unsupported
        return RatFunc(num_root.scale(root_lc), den_root)

    def __str__(self) -> str:
        return ratfunc_to_str(self)

    def __repr__(self) -> str:
        return f"RatFunc({ratfunc_to_str(self)})"


def in_excluded_set(alpha: RatFunc, beta: RatFunc, gamma: RatFunc, z0: FieldConstant) -> bool:
    """True when z0 is a zero or pole of a coefficient that is not identically zero."""
    for f in (alpha, beta, gamma):
        if f.is_zero:
            continue
        if f.den.eval(z0).is_zero or f.num.eval(z0).is_zero:
            return True
    return False


# -- canonical text rendering ----------------------------------------------------


def _coeff_str(c: FieldConstant, power: int, var: str = "z") -> str:
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


def poly_to_str(p: Poly, var: str = "z") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c.is_zero:
            continue
        term = _coeff_str(c, k, var)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


def ratfunc_to_str(f: RatFunc) -> str:
    if f.den.degree == 0:
        return poly_to_str(f.num)
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"
