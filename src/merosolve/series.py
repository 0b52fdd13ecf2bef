"""Local Frobenius-style analysis at a zero z0 of a would-be solution.

The engine substitutes a truncated series w = sum a_k (z-z0)**(p+k) into
the equation cleared of denominators,
E*(w*w'' - (w')**2) = E*alpha*w + E*beta*w' + E*gamma, E the product of the
coefficients' distinct denominators, and matches orders one at a time.  E
and the three products are polynomials, shifted to z0 once, so the linear
part of an order meets at most deg + 2 of their coefficients, not every
earlier a_i (Bostan, Chyzak, Ollivier, Salvy, Schost & Sedoglavic, SODA
2007).  Clearing changes no answer: when an order is matched every lower
order of the residual R is zero, so that order of E*R is E(z0) != 0 times
the one of R.  The unknown a_n enters the order n + 2p - 2 equation
affinely, as base + slope*a_n: one pass of the series convolution over
a_0..a_{n-1} gives base, and slope is read off the terms that contain a_n
(in the square only a_0 meets it), so no closed recurrence is hand-derived
and slope stays small however deep the order.  A vanishing slope is a
resonance: the branch either gains a free coefficient (base = 0, condition
satisfied) or terminates (condition violated, no formal solution).

The matching runs on integers: the known coefficients and the shifted
polynomials are kept as vectors over Z[sqrt(q)], each over one common
denominator, so an order costs integer convolutions and one exact division
for a_n.

Every fact at z0 is read off one Taylor shift per point, kept for the next
call: the excluded set, the leading balances and the resonance index
r = beta(z0)/a0 + 2 of every branch, beta(z0) = (E*beta)(z0)/E(z0), which
expand records.  The p = 2 balance has beta = 0, so r = 2; the gamma = 0
balance has a0 = -beta(z0), so r = 1, and its condition at r is the side
condition alpha(z0) + beta'(z0) = 0.  branch_resonance reads r and its
condition off the branch's expansion, or off a fresh one to order r + 2 when
that one stops short.

expand_branches expands several leading candidates at one point.  Over
rational coefficients and a rational z0 the two p = 1 roots of an irrational
leading equation are conjugate in Q(sqrt(q)), and so are their branches:
each conjugate pair is expanded once and the second branch is read off the
first by sqrt(q) -> -sqrt(q).
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import PointInPhiError
from .field import (
    ZERO,
    ONE,
    FieldConstant,
    common_discriminant,
    from_integers,
    integer_parts,
    sqrt_constant,
)
from .laurent import LaurentExpansion, ResonanceInfo
from .parse import RESONANCE_CAP_DEFAULT
from .ratfunc import Poly, RatFunc, over_common_denominator


class LeadingCandidate(namedtuple("LeadingCandidate", "p a0 note", defaults=(None,))):
    """One admissible leading behaviour a0*(z-z0)**p at an ordinary point z0."""

    __slots__ = ()


class BranchResonance(namedtuple(
    "BranchResonance",
    "candidate status condition_satisfied free_coefficient_index",
    defaults=(None, None),
)):
    """Resonance summary for one leading candidate, whose r is its expansion's.

    status is "no-resonance", "evaluated" or "cap-exceeded".
    """

    __slots__ = ()


def leading_candidates(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
) -> list[LeadingCandidate]:
    """Leading-order balances for a zero of a solution at z0.

    The coefficients and z0 must lie in one field Q(sqrt(q)), else
    IncompatibleExtensionsError names the first two extensions in argument
    order.  z0 must avoid every zero and pole of a nonzero coefficient.  The
    balance of most singular orders forces: p = 2 with a0 = -alpha(z0)/2 when
    beta = gamma = 0; p = 1 with a0 = -beta(z0) when only gamma = 0; and
    p = 1 with a0 a root of a0**2 + beta(z0)*a0 + gamma(z0) = 0 otherwise.
    The gamma = 0 branch's side condition alpha(z0) + beta'(z0) = 0 is its
    resonance condition at r = 1, which expand decides.  The degenerate
    equation (all three coefficients zero) admits only constant solutions,
    which have no zeros of finite order: empty list.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    common_discriminant((alpha, beta, gamma, z0))
    if alpha.is_zero and beta.is_zero and gamma.is_zero:
        return []
    t = _taylor(alpha, beta, gamma, z0)
    if gamma.is_zero and beta.is_zero:
        return [LeadingCandidate(2, -t.at_z0(t.ax, t.ay, 1) / 2)]
    b0 = t.at_z0(t.bx, t.by)
    if gamma.is_zero:
        return [LeadingCandidate(1, -b0)]
    disc = b0 * b0 - 4 * t.at_z0(t.gx, t.gy)
    if disc.is_zero:
        return [LeadingCandidate(1, -b0 / 2, note="double root of the leading equation")]
    s = sqrt_constant(disc)
    return [LeadingCandidate(1, (-b0 + s) / 2), LeadingCandidate(1, (-b0 - s) / 2)]


class _Taylor:
    """The equation times E, the product of the coefficients' distinct
    denominators (over_common_denominator), as Taylor lists at z0: E, E*alpha,
    E*beta and E*gamma are polynomials, so each list is finite, the shifted
    polynomial's coefficients.  All are integers over one common denominator
    den: coefficient k is (x[k] + y[k]*sqrt(q))/den.  E = 1 for polynomial
    coefficients.

    The order-m equation meets (E*alpha)[k - 1] and (E*beta)[k] at the same k,
    so E*alpha is kept shifted by one (ax[0] = 0) and the two are padded to
    one length: the linear part of an order meets at most deg + 2 terms.
    z0 is a pole when E(z0) = 0, else a zero of a nonzero f when
    (E*f)(z0) = 0: excluded is whether a nonzero one of the four vanishes.
    """

    __slots__ = ("key", "excluded", "q", "den", "ex", "ey", "ax", "ay", "bx", "by", "gx", "gy")

    def __init__(self, alpha: RatFunc, beta: RatFunc, gamma: RatFunc, z0: FieldConstant):
        self.key = (alpha, beta, gamma, z0)
        nums, e = over_common_denominator((alpha, beta, gamma))
        e, al, be, ga = polys = [f.shift(z0) for f in (e, *nums)]
        self.excluded = any(f.a and not f.a[0] and not (f.b and f.b[0]) for f in polys)
        self.q = common_discriminant(polys)
        self.den = den = lcm(*(f.d for f in polys))
        n = max(len(al.a) + 1, len(be.a))

        def vectors(f: Poly, shift: int = 0, size: int = 0) -> tuple[list[int], list[int]]:
            k, pad = den // f.d, [0] * (size - len(f.a) - shift)
            return ([0] * shift + [x * k for x in f.a] + pad,
                    [0] * shift + [y * k for y in f.b or (0,) * len(f.a)] + pad)

        self.ex, self.ey = vectors(e)
        self.ax, self.ay = vectors(al, 1, n)
        self.bx, self.by = vectors(be, 0, n)
        self.gx, self.gy = vectors(ga)

    def at_z0(self, x: list[int], y: list[int], k: int = 0) -> FieldConstant:
        """Coefficient k of the list (x, y) over E(z0) != 0: f(z0) when the
        list is E*f's and k = 0 (k = 1 for the shifted E*alpha)."""
        e, f, u, v, q = self.ex[0], self.ey[0], x[k], y[k], self.q
        return from_integers(u * e - q * v * f, v * e - u * f, e * e - q * f * f, q)


_last_taylor = None  # one entry, as a request expands every branch at one point


def _taylor(alpha: RatFunc, beta: RatFunc, gamma: RatFunc, z0: FieldConstant) -> _Taylor:
    """The _Taylor at z0, the last one if equal by value; PointInPhiError if z0 is excluded."""
    global _last_taylor
    t = _last_taylor
    if t is None or t.key != (alpha, beta, gamma, z0):
        t = _last_taylor = _Taylor(alpha, beta, gamma, z0)
    if t.excluded:
        raise PointInPhiError(z0)
    return t


def _square(s: int, a: _Prefix, p: int) -> tuple[int, int, int, int]:
    """Order s + 2p - 2 of w*w'' - (w')**2, with a holding a_0..a_{n-1}, as
    (pu, pv, su, sv): (pu + pv*sqrt(q))/den**2 from the known coefficients
    plus (su + sv*sqrt(q))/den times a_n.

    The order meets the pairs i + j = s of a_i*a_j with weight
    (p+j)*(p+j-1) - (p+i)*(p+j); the weights of (i, j) and (j, i) add up to
    (j-i)**2 - (2p+s), and the diagonal i = j weighs -(p+i).  a_n appears only
    in the pairs (s-n, n) and (n, s-n), affinely when s < 2n.
    """
    n, q, x, y = len(a.x), a.q, a.x, a.y
    pu = pv = 0
    for i in range(max(0, s - n + 1), s // 2 + 1):
        j = s - i
        c = (j - i) ** 2 - (2 * p + s) if i < j else -(p + i)
        pu += c * x[i] * x[j]
        if q:
            pu += c * q * y[i] * y[j]
            pv += c * (x[i] * y[j] + y[i] * x[j])
    i = s - n
    if 0 <= i < n:
        c = (n - i) ** 2 - (2 * p + s)
        return pu, pv, c * x[i], c * y[i]
    return pu, pv, 0, 0


class _Prefix:
    """The known coefficients a_0..a_{n-1} of a branch with leading power p: as
    constants (values) and as integers (x[i] + y[i]*sqrt(q))/den over one
    common denominator.

    window holds the last width completed orders s = n-width .. n-1 of
    w*w'' - (w')**2 (see _square), each as (u, v) over den**2 and 0 for
    s < 0: the orders E's higher coefficients meet, width = deg E.  lead is
    a_0 alone as (x0, y0, d0), the one term a matched order's a_n meets there.
    """

    __slots__ = ("values", "q", "den", "x", "y", "window", "lead")

    def __init__(self, values: list[FieldConstant], q: int, p: int, width: int):
        self.values = list(values)
        self.q = q
        self.x, y, self.den = integer_parts(self.values, q)
        self.y = y or [0] * len(self.x)
        (x0,), y0, d0 = integer_parts(self.values[:1], q)
        self.lead = (x0, y0[0] if q else 0, d0)
        n = len(self.x)
        self.window = [_square(s, self, p)[:2] if s >= 0 else (0, 0)
                       for s in range(n - width, n)]

    def append(self, c: FieldConstant, square: tuple[int, int, int, int]) -> None:
        """Add c, a constant of Q(sqrt(q)), as a_n; den grows to the lcm when
        needed.  square is _square(n, ...) before c was known: it completes
        order n in the window."""
        self.values.append(c)
        a, b, den = c.a, c.b, self.den
        k = 1
        if den % a.denominator or den % b.denominator:
            new = lcm(den, a.denominator, b.denominator)
            k = new // den
            self.x = [v * k for v in self.x]
            self.y = [v * k for v in self.y]
            self.den = den = new
        u, v = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        self.x.append(u)
        self.y.append(v)
        if self.window:
            pu, pv, su, sv = square
            kk, q, window = k * k, self.q, self.window[1:]
            if k > 1:
                window = [(wu * kk, wv * kk) for wu, wv in window]
            window.append((pu * kk + k * (su * u + q * sv * v), pv * kk + k * (su * v + sv * u)))
            self.window = window


def _residual_order(m: int, a: _Prefix, p: int, t: _Taylor) -> tuple[tuple, tuple, tuple]:
    """Order-m coefficient of E*(w*w'' - (w')**2) - E*alpha*w - E*beta*w' -
    E*gamma as (base, slope) in the next unknown a_n, with a holding
    a_0..a_{n-1}, and the order's _square.

    w = sum a[k] zeta**(p+k) + a_n zeta**(p+n), and the coefficient is
    base + slope*a_n.  m is a matched order, m = n + 2p - 2 (s = n), or a
    balance order, m <= 2p - 2.  When m is matched every lower order of the
    residual R is zero, so this is E(z0)*R_m: E(z0) != 0 scales base and
    slope alike.  The quadratic part is e_0 times the order's _square plus
    e_k times the completed order s - k of a's window; the linear part meets
    at most deg + 2 Taylor terms.

    Everything is integer: with the prefix over L and the Taylor lists over T,
    the quadratic part is P/(L**2*T), the linear part Lin/(L*T) and E*gamma
    G/T, so base = (P - Lin*L - G*L**2)/(L**2*T).  a_n meets only
    a_0 = (x0 + y0*sqrt(q))/d0 in the square, weight c = n**2 - (2p + n), so
    slope = (c*E(z0)*(x0 + y0*sqrt(q)) - C*d0)/(d0*T), C from the linear part:
    small, not over L.  Each is (u, v, d), for (u + v*sqrt(q))/d.
    """
    n, q = len(a.x), a.q
    x, y, L, T = a.x, a.y, a.den, t.den
    s = m - 2 * p + 2
    square = pu, pv, _, _ = _square(s, a, p)
    ex, ey = t.ex, t.ey
    e0, f0 = ex[0], ey[0] if q else 0
    qu, qv = e0 * pu, e0 * pv
    if f0:
        qu += q * f0 * pv
        qv += f0 * pu
    if s == n:
        for k, (wu, wv) in enumerate(reversed(a.window), 1):
            qu += ex[k] * wu
            if q:
                qu += q * ey[k] * wv
                qv += ex[k] * wv + ey[k] * wu
    # -E*alpha*w - E*beta*w' at order m: a_i meets alpha[m-p-i] and
    # beta[m-p-i+1], both at index k = m-p+1-i of the shifted lists; a_n's term
    # joins the slope
    top = m - p + 1
    lu = lv = cu_n = cv_n = 0
    for i in range(max(0, top - len(t.bx) + 1), min(n, top) + 1):
        k = top - i
        cu = t.ax[k] + t.bx[k] * (p + i)
        cv = t.ay[k] + t.by[k] * (p + i) if q else 0
        if i == n:
            cu_n, cv_n = cu, cv
            continue
        lu += cu * x[i]
        if q:
            lu += cv * q * y[i]
            lv += cu * y[i] + cv * x[i]
    gu = t.gx[m] if 0 <= m < len(t.gx) else 0
    gv = t.gy[m] if q and 0 <= m < len(t.gy) else 0
    base = (qu - lu * L - gu * L * L, qv - lv * L - gv * L * L, L * L * T)
    x0, y0, d0 = a.lead
    c = n * n - 2 * p - n if s == n else 0
    slope = (c * (e0 * x0 + q * f0 * y0) - cu_n * d0, c * (e0 * y0 + f0 * x0) - cv_n * d0, d0 * T)
    return base, slope, square


def _match_orders(res, a: _Prefix, order: int,
                  free_value: FieldConstant) -> tuple[int | None, int | None]:
    """Extend the prefix a in place through a_order, one order at a time;
    res(n, a) is a_n's equation as (base, slope, square), see _residual_order.

    At the first vanishing slope a met condition frees a_n, set to free_value;
    at later ones it is set to 0.  A violated condition halts the branch.
    Returns (index of the first vanishing slope, index where the branch
    halted), each None when it did not happen.
    """
    q = a.q
    first: int | None = None
    for n in range(len(a.values), order + 1):
        (bu, bv, db), (su, sv, ds), square = res(n, a)
        if sv:  # a_n = -base/slope, times the conjugate over the norm
            a.append(from_integers(ds * (q * bv * sv - bu * su), ds * (bu * sv - bv * su),
                                   db * (su * su - q * sv * sv), q), square)
            continue
        if su:
            a.append(from_integers(-bu * ds, -bv * ds, db * su, q), square)
            continue
        if first is None:
            first = n
        if bu or bv:
            return first, n
        a.append(free_value if n == first else ZERO, square)
    return first, None


def expand(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    p: int,
    a0: FieldConstant,
    order: int,
    resonance_value: FieldConstant | None = None,
) -> LaurentExpansion:
    """Coefficients a_1..a_order for the branch starting a0*(z-z0)**p.

    At a satisfied resonance the free coefficient is instantiated at 0 with
    the alternate continuation (value 1) recorded alongside, unless
    resonance_value pins it (used to compare against a known solution).
    A violated resonance halts the branch: halted_at is set and the
    coefficient list stops before the impossible index.  The resonance index
    r = beta(z0)/a0 + 2 is recorded in resonance.r, with beta(z0) read off
    the E*beta and E already shifted to z0: a matched order's slope is
    E(z0)*(n + 1)*((n - 2)*a0 - beta(z0)) for p = 1 and
    E(z0)*a0*(n + 1)*(n - 2) for p = 2, where beta = 0, so it vanishes at
    n = r either way.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    a0 = FieldConstant.of(a0)
    t = _taylor(alpha, beta, gamma, z0)
    if a0.is_zero:
        raise ValueError("leading coefficient a0 must be nonzero")
    if order < p + 2:
        raise ValueError(f"truncation order must be at least p + 2 = {p + 2}")
    free = ZERO if resonance_value is None else resonance_value
    q, width = common_discriminant((a0, free), t.q), len(t.ex) - 1
    a = _Prefix([a0], q, p, width)

    for m in range(0, 2 * p - 1):
        bu, bv, _ = _residual_order(m, a, p, t)[0]
        if bu or bv:
            raise ValueError(
                f"leading data (p={p}, a0={a0}) does not balance at order {m}"
            )

    def res(n: int, a: _Prefix) -> tuple[tuple, tuple, tuple]:
        return _residual_order(n + 2 * p - 2, a, p, t)

    res_index, halted = _match_orders(res, a, order, free)
    condition = None if res_index is None else halted != res_index
    free_index = res_index if condition else None
    alternate = None
    if condition and resonance_value is None:
        alt = _Prefix(a.values[:free_index] + [ONE], q, p, width)
        if _match_orders(res, alt, order, ZERO)[1] is None:
            alternate = tuple(alt.values)

    r = t.at_z0(t.bx, t.by) / a0 + 2
    info = ResonanceInfo(r, r.is_positive_integer(), res_index, condition, free_index)
    return LaurentExpansion(
        z0=z0,
        p=p,
        coefficients=tuple(a.values),
        truncation_order=order,
        resonance=info,
        alternate_coefficients=alternate,
        halted_at=halted,
    )


def expand_branches(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    candidates: list[LeadingCandidate],
    order: int,
) -> list[LaurentExpansion]:
    """expand(..., cand.p, cand.a0, max(order, cand.p + 2)) for each candidate, in order.

    When the coefficients and z0 are rational, sqrt(q) -> -sqrt(q) fixes every
    input of expand but a0, and expand only adds, multiplies, divides and tests
    for zero, so the branch of a0's conjugate is the conjugate of a0's branch:
    a candidate whose conjugate was expanded already reuses that expansion.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    rational = not any(x.q for x in (alpha, beta, gamma, z0))
    done: dict[tuple[int, FieldConstant], LaurentExpansion] = {}
    out = []
    for cand in candidates:
        a0 = FieldConstant.of(cand.a0)
        twin = done.get((cand.p, a0.conjugate())) if rational else None
        if twin is None:
            expansion = expand(alpha, beta, gamma, z0, cand.p, a0, max(order, cand.p + 2))
        else:
            expansion = twin.conjugate()
        done[cand.p, a0] = expansion
        out.append(expansion)
    return out


def branch_resonance(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    cand: LeadingCandidate,
    expansion: LaurentExpansion,
    cap: int = RESONANCE_CAP_DEFAULT,
) -> BranchResonance:
    """Resonance location of one leading candidate and, when reachable, its condition.

    expansion is the candidate's, at any order, as expand_branches gives it;
    expand records the branch's r = beta(z0)/a0 + 2 in expansion.resonance.r.
    A positive integer r beyond the cap is a distinct reportable outcome, not
    an error: the condition sits too deep to evaluate.  The condition is read
    off an expansion of the branch to order r + 2: the caller's when it
    reaches that far, else a fresh one.
    """
    r = expansion.resonance.r
    if not r.is_positive_integer():
        return BranchResonance(cand, "no-resonance")
    n_r = r.as_integer()
    if n_r > cap:
        return BranchResonance(cand, "cap-exceeded")
    if expansion.truncation_order < n_r + 2:
        expansion = expand(alpha, beta, gamma, z0, cand.p, cand.a0, n_r + 2)
    info = expansion.resonance
    return BranchResonance(cand, "evaluated", info.condition_satisfied,
                           info.free_coefficient_index)
