"""Finite exponential sums sum R_i(z) * exp(rate_i * z) with exact arithmetic.

The class is closed under ring operations and differentiation.  Integration
of R(z)*exp(a*z), R rational, is the Risch equation S' + a*S = R: integrate_exp
finds the rational S with no root of R's denominator, which it splits only to
name the logarithmic obstruction when there is no S, as a typed report (a
normal outcome, not an exception).  The same solve, run at a few rates and
interpolated, gives integrable_rates: every rate a at which S exists.

The residual w*w'' - (w')**2 - alpha*w - beta*w' - gamma is summed on bare
integer vectors over Z[sqrt q]: the coefficient side over one denominator S,
cleared once per report and D, the terms of w over L and the rates over R.
Each nonzero numerator is reduced to the unique RatFunc normal form, which is
why its text is the one the expanded ExpSum products would print, and a zero
residual builds no RatFunc at all.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .errors import IncompatibleExtensionsError, LimitExceededError, NearPoleError
from .field import (ZERO, ONE, ExtensionContext, FieldConstant, common_discriminant,
                    format_constant, from_integers, integer_parts)
from .ratfunc import (Poly, RatFunc, _gcd, _lin, _poly, _times, linear_roots,
                      over_common_denominator, poly_gcd, poly_to_str, ratfunc_to_str)

POLE_GUARD = 1e-6
SPOT_CHECK_TOL = 1e-9
SPOT_CHECK_RULE = f"{SPOT_CHECK_TOL:g} * (1 + |w|^2)"  # spot_check's bound, as printed
SPOT_CHECK_POINTS = 20
ABERTH_MAX_ITERATIONS = 200


class ObstructionReport(namedtuple("ObstructionReport",
                                   "offending_pole rate residue_coefficient")):
    """A term whose antiderivative would need a logarithm: the integral of
    residue_coefficient/(z - offending_pole) * exp(rate*z) after reduction.
    All three fields are FieldConstants, except where no pole of the field
    carries the obstruction: then offending_pole is the Poly at whose roots
    it lies and residue_coefficient is None."""

    __slots__ = ()

    def describe(self) -> str:
        if self.residue_coefficient is None:
            return (f"logarithmic obstruction at the roots of "
                    f"{poly_to_str(self.offending_pole)} on rate {self.rate}")
        return (
            f"logarithmic obstruction at pole z = {self.offending_pole}: "
            f"accumulated residue coefficient {self.residue_coefficient} "
            f"on rate {self.rate}"
        )


def _coerce_exp(x) -> "ExpSum":
    if isinstance(x, ExpSum):
        return x
    if isinstance(x, (RatFunc, Poly, FieldConstant, int, Fraction)):
        return ExpSum.from_ratfunc(RatFunc.of(x))
    return NotImplemented


class ExpSum:
    """Immutable normalized exponential sum: rates pairwise distinct, sorted.

    The numeric poles of each term's coefficient are found on the first
    ``eval_complex`` call and kept in ``_poles``.
    """

    __slots__ = ("terms", "_poles")

    def __init__(self, terms=()):
        merged: dict[tuple, tuple[FieldConstant, RatFunc]] = {}
        for rate, coeff in terms:
            rate = FieldConstant.of(rate) if not isinstance(rate, FieldConstant) else rate
            coeff = RatFunc.of(coeff)
            a, b = rate.a, rate.b  # Fraction hashes cost a modular inverse; int pairs do not
            key = (rate.q, a.numerator, a.denominator, b.numerator, b.denominator)
            if key in merged:
                merged[key] = (rate, merged[key][1] + coeff)
            else:
                merged[key] = (rate, coeff)
        cleaned = [(r, c) for r, c in merged.values() if not c.is_zero]
        cleaned.sort(key=lambda t: t[0].sort_key())
        self.terms = tuple(cleaned)
        self._poles = None

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_ratfunc(f) -> ExpSum:
        return ExpSum([(ZERO, RatFunc.of(f))])

    @staticmethod
    def exponential(rate, coeff=1) -> ExpSum:
        return ExpSum([(FieldConstant.of(rate), RatFunc.of(coeff))])

    # -- structure --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def has_nonzero_rate(self) -> bool:
        return any(not r.is_zero for r, _ in self.terms)

    def rate_zero_part(self) -> RatFunc:
        for r, c in self.terms:
            if r.is_zero:
                return c
        return RatFunc.of(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other) -> ExpSum:
        other = _coerce_exp(other)
        if other is NotImplemented:
            return NotImplemented
        return ExpSum(self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other) -> ExpSum:
        other = _coerce_exp(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ExpSum:
        return _coerce_exp(other) - self

    def __neg__(self) -> ExpSum:
        return ExpSum([(r, -c) for r, c in self.terms])

    def __mul__(self, other) -> ExpSum:
        other = _coerce_exp(other)
        if other is NotImplemented:
            return NotImplemented
        out = []
        for r1, c1 in self.terms:
            for r2, c2 in other.terms:
                out.append((r1 + r2, c1 * c2))
        return ExpSum(out)

    __rmul__ = __mul__

    def derivative(self) -> ExpSum:
        return ExpSum(
            [(r, c.derivative() + c * RatFunc.const(r)) for r, c in self.terms]
        )

    # -- evaluation ----------------------------------------------------------------

    def eval_complex(self, z: complex) -> complex:
        """Numeric value at z; refuses points within 1e-6 of a coefficient pole."""
        if self._poles is None:
            self._poles = tuple(_pole_set(coeff.den) for _, coeff in self.terms)
        z = complex(z)
        total = 0j
        for (rate, coeff), poles in zip(self.terms, self._poles):
            for root in poles:
                if abs(z - root) <= POLE_GUARD:
                    raise NearPoleError(z, abs(z - root))
            num_v = _poly_eval_complex(coeff.num, z)
            den_v = _poly_eval_complex(coeff.den, z)
            total += num_v / den_v * cmath.exp(rate.embed() * z)
        return total

    # -- display --------------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for rate, coeff in self.terms:
            piece = f"({ratfunc_to_str(coeff)})"
            if not rate.is_zero:
                piece += f" * exp({_rate_str(rate)})"
            parts.append(piece)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"ExpSum({self.to_text()})"


def _rate_str(rate: FieldConstant) -> str:
    """Render 'rate * z' with the unit factors dropped: 'z', '-z', '2 * z'."""
    if rate == ONE:
        return "z"
    if rate == -ONE:
        return "-z"
    s = format_constant(rate)
    if rate.a != 0 and rate.b != 0:
        s = f"({s})"
    return f"{s} * z"


def _poly_eval_complex(p: Poly, z: complex) -> complex:
    return _horner([c.embed() for c in p.coeffs], z)


def _pole_set(den: Poly) -> tuple[complex, ...]:
    """The distinct zeros of den in C, one per root of its exact square-free part.

    Dividing out gcd(den, den') first keeps a root of multiplicity m as
    accurate as a simple one; a float root finder on den itself scatters it
    by about eps**(1/m).
    """
    if den.degree <= 0:
        return ()
    den = _gcd(den, den.derivative())[1]
    if den.degree == 1:
        return ((-den.coeffs[0] / den.coeffs[1]).embed(),)
    return _complex_roots([c.embed() for c in den.coeffs])


def _complex_roots(cs: list[complex]) -> tuple[complex, ...]:
    """Roots of the square-free polynomial with coefficients cs (low to high).

    Degree 2 uses the cancellation-free quadratic formula; degree 3 and up
    the simultaneous iteration of Aberth (Math. Comp. 27, 1973) and Ehrlich
    (CACM 10, 1967), updating each root in place and stopping when no root
    moves by more than a few ulps, or after ABERTH_MAX_ITERATIONS sweeps.
    """
    n = len(cs) - 1
    lead = cs[-1]
    a = [c / lead for c in cs]  # monic
    if n == 2:
        c, b, _ = a
        s = cmath.sqrt(b * b - 4 * c)
        if (b.conjugate() * s).real < 0:
            s = -s
        q = -(b + s) / 2  # |q| >= |b|/2 and q != 0 for a square-free quadratic
        return (q, c / q)
    # start on a circle about the centroid of the roots whose radius is the
    # geometric mean of their distances from it, turned off the real axis
    centre = -a[n - 1] / n
    radius = abs(_horner(a, centre)) ** (1.0 / n) or 1.0
    zs = [centre + radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    da = [k * a[k] for k in range(1, n + 1)]
    for _ in range(ABERTH_MAX_ITERATIONS):
        moved = False
        for k in range(n):
            zk = zs[k]
            pk = _horner(a, zk)
            if pk == 0:
                continue
            s = sum(1 / (zk - zj) for j, zj in enumerate(zs) if j != k)
            denom = _horner(da, zk) - pk * s
            if denom == 0:
                continue
            step = pk / denom
            zs[k] = zk - step
            if abs(step) > 4e-16 * abs(zk):
                moved = True
        if not moved:
            break
    return tuple(zs)


def _horner(cs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def integrate_exp(
    coeff: RatFunc, rate: FieldConstant, field: int | None = None
) -> RatFunc | ObstructionReport:
    """The rational S with S' + rate*S = coeff, so that S(z)*exp(rate*z) is
    the antiderivative of coeff(z)*exp(rate*z), or the obstruction.

    With coeff = p + r/Q, deg r < deg Q: p integrates termwise at rate 0
    (integration constant zero), by repeated parts otherwise.  A pole of S of
    order m is one of S' + rate*S of order m + 1, so S = poly + N/G with
    G = gcd(Q, Q'), and no root of Q is needed (Risch, Trans. AMS 139, 1969;
    Bronstein, Symbolic Integration I, ch. 6).  Only a missing S has Q split,
    to name the obstruction, in a context of its own over Q(sqrt(field))
    (None: the first extension the split meets), so no caller's extension
    is spent.  A split past trial division names Q's square-free part."""
    coeff, rate = RatFunc.of(coeff), FieldConstant.of(rate)
    if coeff.is_zero:
        return coeff
    p, r = coeff.num.divmod(coeff.den)
    if rate.is_zero:
        q = Poly([ZERO] + [p[i] / (i + 1) for i in range(p.degree + 1)])
    else:  # repeated parts: sum_j (-1)**j p^(j) / rate**(j+1)
        step = rate.inverse()
        q, power = Poly(), step
        while not p.is_zero:
            q, p, power = q + p.scale(power), p.derivative(), -power * step
    if r.is_zero:
        return RatFunc(q)
    repeated = _repeated_part(coeff.den)
    if repeated is not None:
        g, cofactor = repeated
        n, rem = _solve(r * cofactor, g, rate)
        if rem.is_zero:
            return RatFunc(q) + RatFunc(n, g)
    # name the first pole of the field, in canonical order, whose residue (what parts
    # leave over (z - pole)**(-1), sum_k c_k*rate**(k-1)/(k-1)!) is nonzero, else the
    # factor whose roots leave the field
    try:
        _, roots, rest = linear_roots(coeff.den, ExtensionContext(field))
    except LimitExceededError:
        roots, rest = (), coeff.den
    for pole, mult in roots:
        res, term = ZERO, ONE
        for k, c in enumerate(reversed(coeff.taylor_at(pole, mult)[1]), 1):
            res, term = res + c * term, term * rate / k
        if not res.is_zero:
            return ObstructionReport(pole, rate, res)
    return ObstructionReport(_gcd(rest, rest.derivative())[1], rate, None)


def integrable_rates(coeff: RatFunc) -> tuple[Poly, bool] | None:
    """The rates a at which coeff*exp(a*z) has a rational antiderivative: None
    for a polynomial coeff, which integrates at every a; else (g, at_zero),
    the monic g with g(0) != 0 whose roots are the nonzero such a, and
    whether a = 0 is one.

    A simple pole obstructs every a: g = 1.  Otherwise _solve divides
    m = deg G times by a, so a**m times each coefficient of what it leaves is
    a polynomial of degree at most m in a.  Each is interpolated from the
    solve at a = 1, ..., m + 1, and g is their gcd with the factors a removed."""
    if coeff.den.degree == 0:
        return None
    repeated = _repeated_part(coeff.den)
    if repeated is None:
        return Poly.const(1), False
    g, cofactor = repeated
    rem, m = coeff.num.divmod(coeff.den)[1] * cofactor, g.degree
    points = [FieldConstant.of(j) for j in range(1, m + 2)]
    lagrange = []  # a**m times the Lagrange basis polynomial of each point
    for a in points:
        basis = Poly.const(a ** m)
        for x in points:
            if x != a:
                basis = basis * Poly((-x, ONE)).scale((a - x).inverse())
        lagrange.append((basis, _solve(rem, g, a)[1]))
    out = Poly()
    for i in range(m):
        out = poly_gcd(out, sum((b.scale(left[i]) for b, left in lagrange), Poly()))
    while out[0].is_zero:
        out = out.deflate(ZERO)
    return out, _solve(rem, g, ZERO)[1].is_zero


def _repeated_part(den: Poly) -> tuple[Poly, Poly] | None:
    """(G, G/rad) for G = gcd(den, den') and rad = den/G, or None when rad
    does not divide G: then den has a simple root."""
    g, rad, _ = _gcd(den, den.derivative())
    cofactor, rem = g.divmod(rad)
    return (g, cofactor) if rem.is_zero else None


def _solve(rem: Poly, g: Poly, rate: FieldConstant) -> tuple[Poly, Poly]:
    """(N, rem - (G*N' - G'*N + rate*G*N)) for the N, deg N < m = deg G, that
    clears the top of rem: S = N/G solves S' + rate*S = rem/(G*rad) exactly
    when what is left is zero.  z**k leads G*(z**k)' - G'*z**k + rate*G*z**k
    with rate*z**(k+m), or with (k - m)*z**(k+m-1) at rate 0, so N comes top
    down by exact division."""
    m, gp, n = g.degree, g.derivative(), Poly()
    for k in range(m - 1, -1, -1):
        top, lead = (k + m - 1, FieldConstant.of(k - m)) if rate.is_zero else (k + m, rate)
        mono = Poly([ZERO] * k + [rem[top] / lead])
        rem, n = rem - g * (mono.derivative() + mono.scale(rate)) + gp * mono, n + mono
    return n, rem


_last_cleared = None  # one entry, as a report gates its members in a row


class _Cleared(dict):
    """alpha, beta and gamma over E, the product of their distinct
    denominators, and, keyed by D, the pieces that depend only on them and D.
    It holds the three it was built for, which residual compares by value."""

    def __init__(self, alpha: RatFunc, beta: RatFunc, gamma: RatFunc):
        self.coefficients = (alpha, beta, gamma)
        self.q = common_discriminant(self.coefficients)
        (self.ea, self.eb, self.eg), self.e = over_common_denominator(self.coefficients)

    def __missing__(self, d: Poly):
        """(S, E*D**2, E*(D*D'' - D'**2), E*beta*D**2*D' - E*alpha*D**3,
        E*beta*D**3, E*gamma*D**4), the five as integer vectors over S."""
        dp, d2 = d.derivative(), d * d
        ps = (self.e * d2, self.e * (d * dp.derivative() - dp * dp),
              self.eb * d2 * dp - self.ea * d2 * d, self.eb * d2 * d, self.eg * d2 * d2)
        s = math.lcm(*(p.d for p in ps))
        self[d] = pieces = (s, *(_times(p.a, p.b, s // p.d, 0, p.q) for p in ps))
        return pieces


def _step(f, x: int, y: int, r: int, q: int):
    """r*f' + (x + y*sqrt(q))*f: the derivative of f*exp((x + y*sqrt(q))/r*z), times r."""
    (a, b), (da, db) = _times(*f, x, y, q), ([i * v for i, v in enumerate(p)][1:] for p in f)
    return _lin(a, 1, da, r), (_lin(b, 1, db, r) if q else ())


def _fma(acc, f, g, k: int, q: int) -> None:
    """acc += k*f*g in place on vector pairs over Z[sqrt(q)], an empty one zero."""
    (x, y), (a, b), (c, e) = acc, f, g
    n = max(len(a), len(b)) + max(len(c), len(e)) - 1
    x.extend([0] * (n - len(x)))
    if q:  # else y is empty and stays so
        y.extend([0] * (n - len(y)))
    for p, cx, cy, m in ((a, c, e, 1), (b, e, c, q)):  # a*c + q*b*e and a*e + b*c
        for i, u in enumerate(p):
            if u:
                u, um = u * k, u * k * m
                for j, v in enumerate(cx):
                    x[i + j] += um * v
                for j, v in enumerate(cy):
                    y[i + j] += u * v


def residual(alpha: RatFunc, beta: RatFunc, gamma: RatFunc, w: ExpSum) -> ExpSum:
    """w*w'' - (w')**2 - alpha*w - beta*w' - gamma, exactly: each nonzero
    numerator over E*D**4 in RatFunc normal form.  By Hayman's identity
    w*w'' - (w')**2 = w**2*(log w)'', with D the product of the distinct term
    denominators of w, u = D*w and E that of alpha, beta and gamma, E*D**4
    times the residual is
        u*(E*D**2*u'' - E*(D*D'' - D'**2)*u - E*alpha*D**3 + E*beta*D**2*D')
          - u'*(E*D**2*u' + E*beta*D**3) - E*gamma*D**4.
    It is summed on integer vector pairs (x, y) over Z[sqrt(q)], y empty for
    a rational vector, over one denominator per side: S for the pieces
    _Cleared keeps, L for the u_i and R for the rates (x_i + y_i*sqrt(q))/R, so
    u_i' is _step(u_i) over R*L, u_i'' is over R**2*L and each product is
    over S*L**2*R**2.  Extensions are joined once, each term's coefficient
    and rate in turn and then alpha, beta and gamma's with theirs.
    """
    global _last_cleared
    c = _last_cleared
    if c is None or c.coefficients != (alpha, beta, gamma):
        c = _last_cleared = _Cleared(alpha, beta, gamma)
    q = common_discriminant([x for r, f in w.terms for x in (f, r)])
    if q and c.q and q != c.q:
        raise IncompatibleExtensionsError(c.q, q)
    q = q or c.q
    us, d = over_common_denominator([f for _, f in w.terms])
    s, k2, kd, p0, p1, p2 = c[d]
    xs, ys, r = integer_parts([rate for rate, _ in w.terms], q)
    keys = list(zip(xs, ys or [0] * len(xs)))
    lead, r2, zero = math.lcm(*(u.d for u in us)), r * r, (0, 0)
    us = [_times(u.a, u.b, lead // u.d, 0, q) for u in us]
    ups = [_step(u, x, y, r, q) for u, (x, y) in zip(us, keys)]
    # what u_i and u_i' meet at each rate: E*D**2*u'' - ... and E*D**2*u' + ...
    rows = {zero: (_times(*p0, lead * r2, 0, q), _times(*p1, lead * r, 0, q))}
    for k, u, up in zip(keys, us, ups):
        f, g = rows.setdefault(k, (([], []), ([], [])))
        _fma(f, k2, _step(up, *k, r, q), 1, q)
        _fma(f, kd, u, -r2, q)
        _fma(g, k2, up, 1, q)
    total = {zero: _times(*p2, -lead * lead * r2, 0, q)}
    for (x1, y1), u, up in zip(keys, us, ups):
        for (x2, y2), (f, g) in rows.items():
            acc = total.setdefault((x1 + x2, y1 + y2), ([], []))
            _fma(acc, u, f, 1, q)
            _fma(acc, up, g, -1, q)
    terms = []  # a unique normal form: the text the expanded ExpSum products give
    for (x, y), (a, b) in total.items():
        if any(a) or any(b):  # with q != 0, _times and _fma keep b as long as a
            num = _poly(a, b, s * lead * lead * r2, q)
            terms.append((from_integers(x, y, r, q), RatFunc(num, c.e * d.pow(4))))
    return ExpSum(terms)


def spot_check(value_at, w: ExpSum, z: complex) -> tuple[float, float, bool]:
    """The numeric spot-check rule at z: (|r|, bound, |r| <= bound), r =
    value_at(z) and bound = SPOT_CHECK_TOL*(1 + |w(z)|^2).

    An OverflowError and a MerosolveError (a point near a pole) propagate.
    """
    rv = abs(value_at(z))
    bound = SPOT_CHECK_TOL * (1 + abs(w.eval_complex(z)) ** 2)
    return rv, bound, rv <= bound


def numeric_residual_bound_ok(
    alpha: RatFunc, beta: RatFunc, gamma: RatFunc, w: ExpSum, points: list[complex]
) -> bool:
    """The spot check at every point, the residual evaluated from w, w', w''
    and the coefficients rather than through residual().  A point where that
    float residual is not finite is skipped: complex products overflow to inf
    or nan without raising, as in w*w'' for w = exp(400*z)."""
    wp = w.derivative()
    wpp = wp.derivative()
    ea, eb, eg = (ExpSum.from_ratfunc(f) for f in (alpha, beta, gamma))

    def value_at(z: complex) -> complex:
        wv, wpv = w.eval_complex(z), wp.eval_complex(z)
        return (wv * wpp.eval_complex(z) - wpv ** 2 - ea.eval_complex(z) * wv
                - eb.eval_complex(z) * wpv - eg.eval_complex(z))

    checks = (spot_check(value_at, w, z) for z in points)
    return all(ok or not math.isfinite(rv) for rv, _, ok in checks)


def guarded_sample_points(
    alpha: RatFunc, beta: RatFunc, gamma: RatFunc, w: ExpSum
) -> list[complex]:
    """Deterministic points with |z| <= 2, away from every coefficient pole,
    where w and the spot check's bound |w(z)|^2 are finite floats."""
    candidates = []
    for k in range(3 * SPOT_CHECK_POINTS):
        angle = 2 * cmath.pi * k / (3 * SPOT_CHECK_POINTS)
        radius = 0.4 + 1.5 * ((k * 7) % 11) / 11.0
        candidates.append(radius * cmath.exp(1j * angle))
    funcs = [ExpSum.from_ratfunc(f) for f in (alpha, beta, gamma)]
    out = []
    for z in candidates:
        try:
            for f in funcs:
                f.eval_complex(z)
            abs(w.eval_complex(z)) ** 2
        except (NearPoleError, OverflowError):
            continue
        out.append(z)
        if len(out) == SPOT_CHECK_POINTS:
            break
    return out
