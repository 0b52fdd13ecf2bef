"""Polynomials and normalized rational functions over the exact constant field.

A RatFunc is kept reduced (gcd of numerator and denominator is 1) with a monic
denominator, so equality, zero tests and constancy are syntactic.  Arithmetic
builds each result in that normal form from gcds of the operands' own factors
(Henrici, JACM 3(1), 1956; Knuth, TAOCP vol. 2, 4.5.1), never from a gcd of
the full products: a product cancels gcd(a, d) and gcd(c, b) of a/b and c/d,
a sum only the factors of gcd(b, d), and a derivative raises each pole order by
one.  A gcd with a constant operand is skipped, so sums, products and
derivatives of polynomials are plain Poly arithmetic and a division by a
constant is a scaling.  Each gcd comes with its cofactors, so no normal form
divides by it.  Rational operands take the heuristic gcd (Char, Geddes &
Gonnet, J. Symbolic Comput. 7, 1989): one big-integer gcd, checked by exact
trial divisions that are the cofactors.  When a few evaluation points fail,
and always over Z[sqrt(q)], which is not a UFD in general, the primitive
remainder sequence and two exact divisions take its place.  Square roots take
the monic polynomial root of numerator and denominator.  A series at a point
shifts both there once and divides over the field.  The roots of a polynomial
in the field come from square-free decomposition, the rational roots of a
rational factor, found by p-adic lifting from the least prime at which its
roots are simple, with no integer factoring and no cap, and the quadratic
formula; a factor that would need more is returned unsplit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    NestedExtensionError,
    UnsupportedExtensionError,
)
from .field import (
    ZERO,
    ONE,
    ExtensionContext,
    FieldConstant,
    common_discriminant,
    format_parts,
    from_integers,
    integer_parts,
)


class Poly:
    """Dense univariate polynomial over Q(sqrt(q)), coefficients low to high.

    Coefficient i is (a[i] + b[i]*sqrt(q))/d with int tuples a, b and an int
    d > 0, gcd(d, *a, *b) = 1 and trailing zeros stripped; a rational
    polynomial has b = () and q = 0.  The form is canonical, so equality and
    hashing compare the vectors, and arithmetic runs on ints (Knuth, TAOCP
    vol. 2, 4.6.1).  coeffs, [] and leading hand out FieldConstants.
    """

    __slots__ = ("a", "b", "d", "q")

    def __init__(self, coeffs=()):
        cs = [FieldConstant.of(c) for c in coeffs]
        q = common_discriminant(cs)
        _poly(*integer_parts(cs, q), q, self)

    @staticmethod
    def const(c) -> Poly:
        r = _rational(c)
        if r is None:
            return Poly((c,))
        return _UNIT if r == 1 else _poly((r.numerator,), (), r.denominator, 0)

    @staticmethod
    def z() -> Poly:
        return _Z

    @property
    def is_zero(self) -> bool:
        return not self.a

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    @property
    def coeffs(self) -> tuple[FieldConstant, ...]:
        return tuple(self[k] for k in range(len(self.a)))

    @property
    def leading(self) -> FieldConstant:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def __getitem__(self, k: int) -> FieldConstant:
        if 0 <= k < len(self.a):
            return from_integers(self.a[k], self.b[k] if self.q else 0, self.d, self.q)
        return ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.a, self.b, self.d, self.q) == (
            other.a, other.b, other.d, other.q)

    def __hash__(self):
        return hash((self.a, self.b, self.d, self.q))

    def __add__(self, other: Poly, sign: int = 1) -> Poly:
        """self + sign*other over the lcm of the two denominators."""
        # zero is rational, so returning the other operand misses no extension clash
        if not other.a:
            return self
        if not self.a:
            return other if sign == 1 else -other
        q = common_discriminant((other,), self.q)
        g = math.gcd(self.d, other.d)
        m, n = other.d // g, sign * (self.d // g)
        (a, b), (c, e) = _parts(self, q), _parts(other, q)
        return _poly(_lin(a, m, c, n), _lin(b, m, e, n), self.d * m, q)

    def __sub__(self, other: Poly) -> Poly:
        return self.__add__(other, -1)

    def __neg__(self) -> Poly:
        return _poly([-x for x in self.a], [-x for x in self.b], self.d, self.q)

    def __mul__(self, other: Poly) -> Poly:
        # a zero polynomial and the integer 1 are rational, so no extension clash is missed
        if not self.a or other.a == (1,) and other.d == 1 and not other.b:
            return self
        if not other.a or self.a == (1,) and self.d == 1 and not self.b:
            return other
        q = common_discriminant((other,), self.q)
        (a, b), (c, e) = _parts(self, q), _parts(other, q)
        if not q:
            return _poly(_conv(a, c), (), self.d * other.d, 0)
        return _poly(_lin(_conv(a, c), 1, _conv(b, e), q),
                     _lin(_conv(a, e), 1, _conv(b, c), 1), self.d * other.d, q)

    def scale(self, c) -> Poly:
        r = _rational(c)
        if r is not None:  # the numerator multiplies the vectors, the denominator d
            n = r.numerator
            return _poly([x * n for x in self.a], [x * n for x in self.b], self.d * r.denominator,
                         self.q)
        c = FieldConstant.of(c)
        q = common_discriminant((c,), self.q)
        (x,), y, e = integer_parts((c,), q)
        return _poly(*_times(*_parts(self, q), x, y[0] if q else 0, q), self.d * e, q)

    def pow(self, n: int) -> Poly:
        if self.a and not self.q and not any(self.a[:-1]):  # c*z**k -> c**n*z**(k*n)
            return _poly([0] * (self.degree * n) + [self.a[-1] ** n], (), self.d ** n, 0)
        result, base = Poly.const(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        q = common_discriminant((other,), self.q)
        (qa, qb), (ra, rb), s, (c, e) = _pseudo_divide(_parts(self, q), _parts(other, q), q)
        # s*self*self.d = quo*(c - e*sqrt(q))*other*other.d + rem on the vectors
        qa, qb = _times(qa, qb, c * other.d, -e * other.d, q)
        return _poly(qa, qb, self.d * s, q), _poly(ra, rb, self.d * s, q)

    def monic(self) -> Poly:
        return self * _inverse_leading(self) if self.a else self

    def derivative(self) -> Poly:
        if len(self.a) <= 1:
            return _ZERO
        return _poly([i * x for i, x in enumerate(self.a)][1:],
                     [i * x for i, x in enumerate(self.b)][1:], self.d, self.q)

    def shift(self, r: FieldConstant) -> Poly:
        """Taylor shift: returns p(z + r) as a polynomial in z, by Horner's rule
        on the vectors (von zur Gathen & Gerhard, ISSAC 1997).  With
        r = (u + v*sqrt(q))/e, each step multiplies by e*z + u + v*sqrt(q) and
        adds the next coefficient times the power of e that keeps the steps
        homogeneous; the result is over d*e**(n+1), reduced once."""
        r = FieldConstant.of(r)
        q = common_discriminant((r,), self.q)
        (u,), v, e = integer_parts((r,), q)
        v = v[0] if q else 0
        a, b = _parts(self, q)
        x, y, power = [], [], 1
        for i in range(len(a) - 1, -1, -1):
            power *= e
            if q:
                x, y = _lin(_conv(x, (u, e)), 1, y, q * v), _lin(_conv(y, (u, e)), 1, x, v)
                y[0] += b[i] * power
            else:
                x = _conv(x, (u, e))
            x[0] += a[i] * power
        return _poly(x, y, self.d * power, q)

    def deflate(self, r: FieldConstant) -> Poly:
        """Exact division by (z - r); asserts r is a root."""
        quo, rem = self.divmod(Poly((-FieldConstant.of(r), ONE)))
        if not rem.is_zero:
            raise ValueError(f"{r} is not a root")
        return quo

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)})"


def _poly(a, b, d: int, q: int, p: Poly | None = None) -> Poly:
    """The canonical form of (a + b*sqrt(q))/d, stored in p when given; b is
    ignored when q = 0 and as long as a otherwise.  d = 0 stands for a bare
    vector pair, which keeps d = 0 and has the content of a and b divided out."""
    if p is None:
        p = object.__new__(Poly)
    n = len(a)
    while n and not a[n - 1] and not (q and b[n - 1]):
        n -= 1
    a, b = a[:n], b[:n]
    if not q or not any(b):
        b, q = (), 0
    g = math.gcd(d, *a, *b) or 1
    if d < 0:
        g = -g
    if g == 1:
        p.a, p.b = tuple(a), tuple(b)
    else:
        p.a, p.b = tuple([x // g for x in a]), tuple([x // g for x in b])
    p.d, p.q = d // g, q
    return p


# shared: a Poly is never mutated
_UNIT, _ZERO, _Z = _poly((1,), (), 1, 0), _poly((), (), 1, 0), _poly((0, 1), (), 1, 0)


def _rational(c) -> int | Fraction | None:
    """c as an int or a Fraction when it is a rational scalar, else None."""
    if isinstance(c, FieldConstant):
        return None if c.b else c.a
    return c if isinstance(c, (int, Fraction)) else None


def _parts(p: Poly, q: int):
    """p's vectors (a, b) over Z[sqrt(q)]: b is padded with zeros when q is
    live and p rational, and empty when q = 0."""
    return p.a, (p.b or (0,) * len(p.a)) if q else ()


def _conv(x, y) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                out[i + j] += u * v
    return out


def _lin(x, m: int, y, n: int) -> list[int]:
    """m*x + n*y."""
    if len(x) < len(y):
        x, m, y, n = y, n, x, m
    out = [v * m for v in x]
    for j, v in enumerate(y):
        out[j] += v * n
    return out


def _times(x, y, c: int, e: int, q: int):
    """(x + y*sqrt(q))*(c + e*sqrt(q)) for vectors x, y and a scalar."""
    if not q:
        return [v * c for v in x], ()
    return _lin(x, c, y, q * e), _lin(y, c, x, e)


def _inverse_leading(p: Poly) -> Poly:
    """1/lc(p) as a constant: d*(a - b*sqrt(q))/(a**2 - q*b**2)."""
    la, lb = p.a[-1], p.b[-1] if p.q else 0
    return _poly((p.d * la,), (-p.d * lb,) if p.q else (), la * la - p.q * lb * lb, p.q)


def _pseudo_divide(f, g, q: int):
    """Pseudo-division of f by g, vector pairs over Z[sqrt(q)], g nonzero
    (Knuth's Algorithm R): returns (quo, rem, s, (c, e)) with
    s*f = quo*g*(c - e*sqrt(q)) + rem, deg rem < deg g.  g is first
    multiplied by c - e*sqrt(q), the conjugate of its leading coefficient
    (or 1 when that is an integer), so that its leading coefficient N is an
    integer; s = N**k with k = max(deg f - deg g + 1, 0).  quo and rem are not
    normalised, and quo's second vector is zeros when q = 0."""
    (u, uy), (v, vy) = f, g
    n, k = len(v) - 1, max(len(u) - len(v) + 1, 0)
    c, e = v[-1], vy[-1] if q else 0
    if e:
        v, vy = _times(v, vy, c, -e, q)
    else:
        c = 1
    lead = v[-1]
    qa, qb = [0] * k, [0] * k
    for j in range(k - 1, -1, -1):
        # u <- lead*u - u[n+j]*z**j*v, which drops u's top coefficient
        qa[j], qb[j] = u[n + j], uy[n + j] if q else 0
        x, y = _times(v[:n], vy[:n], qa[j], qb[j], q)
        u = _lin(u[:n + j], lead, [0] * j + x, -1)
        uy = _lin(uy[:n + j], lead, [0] * j + y, -1) if q else ()
    quo = [x * lead ** j for j, x in enumerate(qa)], [x * lead ** j for j, x in enumerate(qb)]
    return quo, (u, uy), lead ** k, (c, e)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b: gcd(0, p) = monic p and gcd(0, 0) = 0.

    Rational operands take the heuristic gcd (_heuristic_gcd), and the
    primitive remainder sequence (_prs_gcd) is its fallback.  Over Z[sqrt q],
    which is not a UFD in general, the PRS alone runs.  The monic gcd is
    unique, so the route never shows in the result."""
    if not a.a or not b.a:
        return (a + b).monic()
    return _gcd(a, b)[0]


def _gcd(x: Poly, y: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, x/g, y/g) for g = gcd(x, y), x nonzero, and monic when y = 0.

    A constant shares no factor and gcd(x, 0) = x, so neither takes a gcd."""
    if not y.a:
        return x, _UNIT, y
    return _cofactors(x, y) if x.degree > 0 and y.degree > 0 else (_UNIT, x, y)


def _cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for the monic gcd g of a and b, both of degree >= 1."""
    if not a.q and not b.q:
        found = _heuristic_gcd(a, b)
        if found is not None:
            return found
    g = _prs_gcd(a, b)
    if g.degree == 0:
        return _UNIT, a, b
    return g, a.divmod(g)[0], b.divmod(g)[0]


_HEURISTIC_TRIES = 6


def _heuristic_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly] | None:
    """GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989): (g, a/g,
    b/g) for rational a and b of degree >= 1, or None when every xi failed.

    On the primitive integer vectors x and y of a and b, G is read off the
    symmetric xi-adic digits of the integer gcd(x(xi), y(xi)) and made
    primitive, with a positive leading coefficient.  For
    xi >= 2*min(|x|, |y|) + 2 (max norms), a G that divides x and y exactly is
    their gcd, and the exact quotients are the cofactors.  A G that does not
    was read off a spurious integer factor of the values' gcd, or off a gcd
    with coefficients above xi/2 (those of a factor of degree k can be about
    2**k times the operands'), so xi grows to about 2*xi**(5/4) a few times."""
    ca, cb = math.gcd(*a.a), math.gcd(*b.a)
    x, y = [v // ca for v in a.a], [v // cb for v in b.a]
    xi = 2 * min(max(map(abs, x)), max(map(abs, y))) + 2
    for _ in range(_HEURISTIC_TRIES):
        h = math.gcd(_value(x, xi), _value(y, xi))
        digits = []
        while h:  # h > 0 and xi > 2 make the top digit positive
            r = h % xi
            if 2 * r > xi:
                r -= xi
            digits.append(r)
            h = (h - r) // xi
        if len(digits) == 1:
            return _UNIT, a, b
        if len(digits) <= min(len(x), len(y)):
            c = math.gcd(*digits)
            g = [v // c for v in digits]
            qx = _exact_quotient(x, g)
            qy = None if qx is None else _exact_quotient(y, g)
            if qy is not None:
                # a = ca*x/a.d and monic g = G/lead give a/g = ca*lead*qx/a.d
                lead = g[-1]
                return (_poly(g, (), lead, 0), _poly([v * ca * lead for v in qx], (), a.d, 0),
                        _poly([v * cb * lead for v in qy], (), b.d, 0))
        xi = 2 * xi * math.isqrt(math.isqrt(xi)) + 1
    return None


def _value(x, xi: int) -> int:
    """The integer polynomial x (low to high) at xi."""
    v = 0
    for c in reversed(x):
        v = v * xi + c
    return v


def _exact_quotient(x, g) -> list[int] | None:
    """x/g for integer vectors x and primitive g, or None when g does not
    divide x; by Gauss's lemma a quotient over Q is one over Z, so each step
    divides by lc(g) exactly or g is no divisor."""
    n, lead = len(g) - 1, g[-1]
    r, quo = list(x), [0] * (len(x) - n)
    for j in range(len(quo) - 1, -1, -1):
        c, m = divmod(r[n + j], lead)
        if m:
            return None
        quo[j] = c
        if c:
            for i in range(n):
                r[i + j] -= c * g[i]
    return None if any(r[:n]) else quo


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b, both of degree >= 1, by the primitive remainder
    sequence (Collins, JACM 14, 1967): pseudo-remainders over Z[sqrt(q)], each
    made to lead with an integer (times the conjugate of its leading
    coefficient) and with its integer content divided out, and the monic
    normal form taken once, at the end."""
    q = common_discriminant((b,), a.q)
    f, g = _parts(a, q), _parts(b, q)
    while g[0]:
        r = _poly(*_pseudo_divide(f, g, q)[1], 0, q)
        if r.q and r.b[-1]:  # else conjugate factors pile up along the sequence
            r = _poly(*_times(r.a, r.b, r.a[-1], -r.b[-1], q), 0, q)
        f, g = g, _parts(r, q)
    return _poly(*f, 1, q).monic()


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p monic = prod f_i**i with f_i monic square-free, coprime."""
    if p.degree <= 0:
        return []
    p = p.monic()
    _, b, c = _gcd(p, p.derivative())
    d = c - b.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree > 0:
        a, b, c = _gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        d = c - b.derivative()
        i += 1
    return out


def _horner(a, x: int, m: int) -> int:
    """The integer polynomial a (low to high) at x, modulo m."""
    v = 0
    for c in reversed(a):
        v = (v * x + c) % m
    return v


def _rational_roots(f: Poly) -> list[FieldConstant]:
    """Candidates for the rational roots of a square-free rational f with
    f(0) != 0, a superset of them, by p-adic lifting (Loos, SIAM J. Comput.
    12(2), 1983; von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15),
    with no integer factoring.

    On f's integer vector a, p is the least prime not dividing a[-1] at which
    f' is nonzero at every root of f mod p; such a p exists, as any prime
    dividing neither a[-1] nor disc(f) will do.  A root u/v has v | a[-1], so
    it reduces to one of those simple roots, and Newton's iteration lifts each
    to a modulus M > 2*|a[0]*a[-1]|.  As |u| <= |a[0]|, a[-1]*u/v is the
    symmetric residue of a[-1]*r mod M.  The candidates are distinct and
    unchecked: _roots_of_squarefree keeps one when dividing by z - r leaves
    no remainder."""
    a = f.a
    da = [i * x for i, x in enumerate(a)][1:]
    p = 1
    while True:
        p += 1
        if a[-1] % p and all(p % k for k in range(2, math.isqrt(p) + 1)):
            simple = [r for r in range(p) if not _horner(a, r, p)]
            if all(_horner(da, r, p) for r in simple):
                break
    bound, candidates = 2 * abs(a[0] * a[-1]), []
    for r in simple:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(a, r, m) * pow(_horner(da, r, m), -1, m)) % m
        t = a[-1] * r % m
        candidates.append(FieldConstant.of(Fraction(t - m if 2 * t > m else t, a[-1])))
    return candidates


def _roots_of_squarefree(f: Poly, ctx: ExtensionContext):
    """Roots of a monic square-free polynomial found over the field.

    Returns (roots, nonsplit) where nonsplit is the monic factor (possibly 1)
    whose roots were not reachable with at most one quadratic extension.
    """
    roots: list[FieldConstant] = []
    if f[0].is_zero:
        roots.append(ZERO)
        f = f.deflate(ZERO)
    if f.degree > 2 and not f.q:
        for r in _rational_roots(f):
            # one division both checks the candidate and deflates f
            quo, rem = f.divmod(Poly((-r, ONE)))
            if rem.is_zero:
                roots.append(r)
                f = quo
    if f.degree == 1:
        return roots + [-f[0]], _UNIT
    if f.degree == 2:
        b, c = f[1], f[0]
        try:
            s = ctx.sqrt(b * b - 4 * c)
        except (NestedExtensionError, UnsupportedExtensionError):
            return roots, f
        return roots + [(-b + s) / 2, (-b - s) / 2], _UNIT
    return roots, f


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


def _monic_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den scaled by 1/lc(den), so that den is monic."""
    if den.a[-1] != den.d or den.q and den.b[-1]:
        lead = _inverse_leading(den)
        return num * lead, den * lead
    return num, den


def _monic_sqrt(m: Poly) -> Poly | None:
    """The monic r with r*r = m for a monic m, or None when there is none.

    Coefficient 2k - j of r*r is 2*r[k-j] plus the products r[k-i]*r[k-j+i],
    0 < i < j, so r follows top-down from m, dividing only by 2.  On m's
    vectors c = (a + b*sqrt(q))/d, with T = 4*d, r[k-j] = 2*X_j/T**j for the
    integers X_j = T**(j-1)*c[2k-j]*d - sum X_i*X_{j-i}: no division at all
    until the one normal form.  An m that r does not square back to is no
    square."""
    if m.degree % 2:
        return None
    k, q, t = m.degree // 2, m.q, 4 * m.d
    a, b = _parts(m, q)
    xs, ys = [0], [0]
    scale = 1  # T**(j-1)
    for j in range(1, k + 1):
        x, y = a[2 * k - j] * scale, (b[2 * k - j] * scale if q else 0)
        for i in range(1, j):
            x -= xs[i] * xs[j - i] + q * ys[i] * ys[j - i]
            y -= xs[i] * ys[j - i] + ys[i] * xs[j - i]
        xs.append(x)
        ys.append(y)
        scale *= t
    # over T**k: r[i] = 2*X_{k-i}*T**i below the leading T**k
    powers = [t**i for i in range(k + 1)]
    ra = [2 * xs[k - i] * powers[i] for i in range(k)] + [powers[k]]
    rb = ([2 * ys[k - i] * powers[i] for i in range(k)] + [0]) if q else ()
    root = _poly(ra, rb, powers[k], q)
    return root if root * root == m else None


def _low_order(p: Poly) -> int:
    """The index of p's lowest nonzero coefficient (p nonzero)."""
    return next(k for k in range(len(p.a)) if p.a[k] or p.q and p.b[k])


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _UNIT
        if den.is_zero:
            raise DivisionByZeroError("zero denominator")
        if num.is_zero:
            num, den = _ZERO, _UNIT
        else:
            common_discriminant((num, den))  # a clash raises before the gcd hides it
            num, den = _monic_pair(*_gcd(num, den)[1:])
        self.num, self.den = num, den

    @staticmethod
    def _reduced(num: Poly, den: Poly) -> RatFunc:
        """num/den already in normal form (coprime, den monic, 0 over 1): trusted."""
        f = object.__new__(RatFunc)
        f.num, f.den = num, den
        return f

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def const(c) -> RatFunc:
        return RatFunc._reduced(Poly.const(c), _UNIT)

    @staticmethod
    def z() -> RatFunc:
        return RatFunc._reduced(Poly.z(), _UNIT)

    @staticmethod
    def of(x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc._reduced(x, _UNIT)
        return RatFunc.const(x)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def q(self) -> int:
        """The field's discriminant, 0 for Q (the constructor makes num and den share it)."""
        return self.num.q or self.den.q

    def constant_value(self) -> FieldConstant | None:
        """The value when this function is constant, else None (normal outcome)."""
        if self.den.degree == 0 and self.num.degree <= 0:
            return self.num[0]
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            if not isinstance(other, (Poly, FieldConstant, int, Fraction)):
                return NotImplemented
            other = RatFunc.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _join(self, other: RatFunc) -> None:
        """Raise IncompatibleExtensionsError(self's q, other's q) on a clash,
        before a gcd could meet the two in the other order."""
        common_discriminant((other,), self.q)

    # -- arithmetic ------------------------------------------------------------
    # Henrici (JACM 3(1), 1956; Knuth, TAOCP vol. 2, 4.5.1): each result is built
    # in normal form from gcds of the operands' coprime factors, never of a product.

    def __add__(self, other, sign: int = 1) -> RatFunc:
        """self + sign*other."""
        other = RatFunc.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.degree == 0 and d.degree == 0:  # two polynomials
            return RatFunc._reduced(a.__add__(c, sign), _UNIT)
        if sign < 0:
            c = -c
        # when b = 1, gcd(a*d + c, d) = gcd(c, d) = 1 (and symmetrically);
        # a zero sum has d | c, so d = 1 and the result is already 0/1
        if b.degree == 0:
            return RatFunc._reduced(a * d + c, d)
        if d.degree == 0:
            return RatFunc._reduced(a + c * b, b)
        self._join(other)
        g, bg, dg = _cofactors(b, d)
        if g.degree == 0:  # no factor of b*d can divide a*d + c*b
            return RatFunc._reduced(a * d + c * b, b * d)
        t = a * dg + c * bg
        if t.is_zero:
            return RatFunc._reduced(_ZERO, _UNIT)
        # only factors of g can cancel; t mod g keeps the gcd within the inputs' degrees
        quo, rem = t.divmod(g) if t.degree >= g.degree else (_ZERO, t)
        g2, gg, rg = _gcd(g, rem)
        if g2.degree == 0:
            return RatFunc._reduced(t, bg * d)
        # t/g2 = quo*(g/g2) + rem/g2 over (bg*d)/g2 = bg*dg*(g/g2)
        return RatFunc._reduced(quo * gg + rg, bg * dg * gg)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        return self.__add__(other, -1)

    def __rsub__(self, other) -> RatFunc:
        return RatFunc.of(other) - self

    def __neg__(self) -> RatFunc:
        return RatFunc._reduced(-self.num, self.den)

    def __mul__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.degree == 0 and d.degree == 0:
            return RatFunc._reduced(a * c, _UNIT)
        self._join(other)
        if a.is_zero or c.is_zero:
            return RatFunc._reduced(_ZERO, _UNIT)
        _, a, d = _gcd(a, d)
        _, b, c = _gcd(b, c)
        # quotients of monic polynomials by monic ones are monic
        return RatFunc._reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = RatFunc.of(other)
        if other.is_zero:
            raise DivisionByZeroError("division by the zero rational function")
        # the reciprocal of a reduced fraction is reduced once its denominator is monic
        return self * RatFunc._reduced(*_monic_pair(other.den, other.num))

    def __rtruediv__(self, other) -> RatFunc:
        return RatFunc.of(other) / self

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return RatFunc.const(1) / (self ** (-n))
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RatFunc._reduced(self.num.pow(n), self.den.pow(n) if self.den.degree else self.den)

    def derivative(self) -> RatFunc:
        n, d = self.num, self.den
        if d.degree == 0:
            return RatFunc._reduced(n.derivative(), _UNIT)
        # with g = gcd(d, d') and r = d/g, (n/d)' = (n'*r - n*d'/g)/(d*r); in
        # characteristic 0 each pole order rises by exactly one, so it is reduced
        _, r, dpg = _gcd(d, d.derivative())
        return RatFunc._reduced(n.derivative() * r - n * dpg, d * r)

    # -- expansion at a point --------------------------------------------------

    def taylor_at(self, z0: FieldConstant, n: int) -> tuple[int, list[FieldConstant]]:
        """n exact series coefficients of f(z0 + t): (offset, coeffs).

        f(z0 + t) = sum coeffs[i] * t**(offset + i); offset = -(pole order).
        Numerator and denominator are shifted to z0 once; the pole order m is
        the count of the shifted denominator's zero low coefficients, and the
        quotient by the rest is the plain power-series division recurrence
        (Knuth, TAOCP vol. 2, 4.7)."""
        if self.is_zero:
            return 0, [ZERO] * n
        num, den = self.num.shift(z0), self.den.shift(z0)
        m = _low_order(den)
        den = den.coeffs[m:]
        inv, out = den[0].inverse(), []
        for k in range(n):
            acc = num[k]
            for j in range(1, min(k + 1, len(den))):
                acc = acc - den[j] * out[k - j]
            out.append(acc * inv)
        return -m, out

    def sqrt(self, ctx: ExtensionContext | None = None) -> RatFunc | None:
        """Square root in the rational function field, or None if there is none.

        The leading constant may lift into one quadratic extension through ctx.
        """
        ctx = ctx or ExtensionContext()
        if self.is_zero:
            return self
        num_root = _monic_sqrt(self.num.monic())
        den_root = _monic_sqrt(self.den) if num_root is not None else None
        if den_root is None:
            return None
        root_lc = ctx.sqrt(self.num.leading)  # may raise NestedExtension/Unsupported
        # roots of coprime polynomials are coprime, and the root of a monic one monic
        return RatFunc._reduced(num_root.scale(root_lc), den_root)

    def __str__(self) -> str:
        return ratfunc_to_str(self)

    def __repr__(self) -> str:
        return f"RatFunc({ratfunc_to_str(self)})"


def over_common_denominator(fs):
    """([f*D for f in fs], D), D the product of the distinct nonconstant
    (monic) denominators of fs."""
    dens = []
    for f in fs:
        if f.den.degree > 0 and f.den not in dens:
            dens.append(f.den)
    nums = [math.prod((den for den in dens if den != f.den), start=f.num) for f in fs]
    return nums, math.prod(dens, start=Poly.const(1))


# -- canonical text rendering ----------------------------------------------------


def _coeff_str(an: int, ad: int, bn: int, bd: int, q: int, power: int, var: str) -> str:
    """Render coefficient an/ad + (bn/bd)*sqrt(q) multiplying var**power,
    parenthesized when needed."""
    zpart = var if power == 1 else f"{var}^{power}"
    if power and not bn and ad == 1 and an in (1, -1):
        return zpart if an == 1 else f"-{zpart}"
    s = format_parts(an, ad, bn, bd, q)
    if an and bn:
        s = f"({s})"
    return f"{s}*{zpart}" if power else s


def poly_to_str(p: Poly, var: str = "z") -> str:
    """p highest power first, each coefficient read off the vectors and
    reduced with a gcd."""
    if p.is_zero:
        return "0"
    parts = []
    d, q = p.d, p.q
    for k in range(p.degree, -1, -1):
        a, b = p.a[k], p.b[k] if q else 0
        if not a and not b:
            continue
        ga, gb = math.gcd(a, d), math.gcd(b, d)
        term = _coeff_str(a // ga, d // ga, b // gb, d // gb, q, k, var)
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
