"""Local Frobenius-style analysis at a zero z0 of a would-be solution.

The engine substitutes a truncated series w = sum a_k (z-z0)**(p+k) into
w*w'' - (w')**2 = alpha*w + beta*w' + gamma with the coefficients Taylor
expanded at z0, and matches orders one at a time.  The unknown a_n enters
the order n + 2p - 2 equation affinely, as base + slope*a_n: one pass of the
series convolution over a_0..a_{n-1} gives base, and slope is read off the
few convolution terms that contain a_n, so no closed recurrence is
hand-derived.  A vanishing slope is a resonance: the branch either gains a
free coefficient (base = 0, condition satisfied) or terminates (condition
violated, no formal solution).

The matching runs on integers: the known coefficients and the Taylor lists
are kept as vectors over Z[sqrt(q)], each over one common denominator, so an
order costs integer convolutions and one exact division for a_n.

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
    ExtensionContext,
    FieldConstant,
    common_discriminant,
    from_integers,
    integer_parts,
)
from .laurent import LaurentExpansion, ResonanceInfo
from .parse import RESONANCE_CAP_DEFAULT
from .ratfunc import Poly, RatFunc, _series_div, in_excluded_set


class LeadingCandidate(namedtuple("LeadingCandidate", "p a0 note side_condition_satisfied",
                                  defaults=(None, None))):
    """One admissible leading behaviour a0*(z-z0)**p at an ordinary point z0.

    side_condition_satisfied is set on the gamma == 0, beta != 0 branch only:
    whether alpha(z0) + beta'(z0) = 0, the compatibility condition attached
    to that expansion.
    """

    __slots__ = ()


class BranchResonance(namedtuple(
    "BranchResonance",
    "candidate status r r_is_positive_integer condition_satisfied free_coefficient_index",
    defaults=(None, None),
)):
    """Resonance summary for one leading candidate.

    status is "not-applicable", "no-resonance", "evaluated" or "cap-exceeded".
    """

    __slots__ = ()


def leading_candidates(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    ctx: ExtensionContext | None = None,
) -> list[LeadingCandidate]:
    """Leading-order balances for a zero of a solution at z0.

    z0 must avoid every zero and pole of a nonzero coefficient.  The balance
    of most singular orders forces: p = 2 with a0 = -alpha(z0)/2 when
    beta = gamma = 0; p = 1 with a0 = -beta(z0) when only gamma = 0; and
    p = 1 with a0 a root of a0**2 + beta(z0)*a0 + gamma(z0) = 0 otherwise.
    The degenerate equation (all three coefficients zero) admits only
    constant solutions, which have no zeros of finite order: empty list.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    if in_excluded_set(alpha, beta, gamma, z0):
        raise PointInPhiError(z0)
    if alpha.is_zero and beta.is_zero and gamma.is_zero:
        return []
    ctx = ctx or ExtensionContext()
    if gamma.is_zero and beta.is_zero:
        return [LeadingCandidate(2, -alpha.eval_at(z0) / 2)]
    if gamma.is_zero:
        side = (alpha.eval_at(z0) + beta.derivative().eval_at(z0)).is_zero
        return [LeadingCandidate(1, -beta.eval_at(z0), side_condition_satisfied=side)]
    b0 = beta.eval_at(z0)
    g0 = gamma.eval_at(z0)
    disc = b0 * b0 - 4 * g0
    if disc.is_zero:
        return [LeadingCandidate(1, -b0 / 2, note="double root of the leading equation")]
    s = ctx.sqrt(disc)
    return [LeadingCandidate(1, (-b0 + s) / 2), LeadingCandidate(1, (-b0 - s) / 2)]


class _Taylor:
    """The Taylor lists of alpha, beta and gamma at z0 as integers over one
    common denominator den: coefficient k is (x[k] + y[k]*sqrt(q))/den.

    The order-m equation meets alpha[k - 1] and beta[k] at the same k, so
    alpha is kept shifted by one (ax[0] = 0) and padded to beta's length.
    """

    __slots__ = ("q", "den", "ax", "ay", "bx", "by", "gx", "gy")

    def __init__(self, al: Poly, be: Poly, ga: Poly, n: int):
        """al, be and ga are the three series truncated to n terms."""
        self.q = common_discriminant((al, be, ga))
        self.den = den = lcm(al.d, be.d, ga.d)

        def vectors(s: Poly, shift: int) -> tuple[list[int], list[int]]:
            k, pad = den // s.d, [0] * (n + 1 - len(s.a) - shift)
            return ([0] * shift + [x * k for x in s.a] + pad,
                    [0] * shift + [y * k for y in s.b or (0,) * len(s.a)] + pad)

        self.ax, self.ay = vectors(al, 1)
        self.bx, self.by = vectors(be, 0)
        self.gx, self.gy = (v[:n] for v in vectors(ga, 0))


class _Prefix:
    """The known coefficients a_0..a_{n-1}: as constants (values) and as
    integers (x[i] + y[i]*sqrt(q))/den over one common denominator."""

    __slots__ = ("values", "q", "den", "x", "y")

    def __init__(self, values: list[FieldConstant], q: int):
        self.values = list(values)
        self.q = q
        self.x, y, self.den = integer_parts(self.values, q)
        self.y = y or [0] * len(self.x)

    def append(self, c: FieldConstant) -> None:
        """Add c, a constant of Q(sqrt(q)); den grows to the lcm when needed."""
        self.values.append(c)
        a, b, den = c.a, c.b, self.den
        if den % a.denominator or den % b.denominator:
            new = lcm(den, a.denominator, b.denominator)
            k = new // den
            self.x = [v * k for v in self.x]
            self.y = [v * k for v in self.y]
            self.den = den = new
        self.x.append(a.numerator * (den // a.denominator))
        self.y.append(b.numerator * (den // b.denominator))


def _residual_order(m: int, a: _Prefix, p: int, t: _Taylor) -> tuple[tuple, tuple]:
    """Order-m coefficient of w*w'' - (w')**2 - alpha*w - beta*w' - gamma as
    (base, slope) in the next unknown a_n, with a holding a_0..a_{n-1}.

    w = sum a[k] zeta**(p+k) + a_n zeta**(p+n), and the coefficient is
    base + slope*a_n.  base is the direct convolution of the series with a_n
    left out.  slope collects the terms that contain a_n: the quadratic pairs
    (s-n, n) and (n, s-n) with s = m - 2p + 2, alpha[m-p-n]*a_n and
    beta[m-p-n+1]*(p+n)*a_n.  The coefficient is affine in a_n when s < 2n,
    which holds for every order expand matches (s = n there).

    Everything is integer: with the prefix over L and the Taylor lists over T,
    the quadratic part is P/L**2, the linear part Lin/(L*T) and gamma[m] G/T,
    so base = (P*T - Lin*L - G*L**2)/(L**2*T); the a_n terms give
    slope = (S*T - C*L)/(L*T).  Each comes back as (u, v, d), standing for
    (u + v*sqrt(q))/d, both over d = L**2*T.
    """
    n, q = len(a.x), a.q
    x, y, L, T = a.x, a.y, a.den, t.den
    s = m - 2 * p + 2
    # w*w'' - (w')**2 at order m: sum over i + j = s of
    # a_i*a_j*((p+j)*(p+j-1) - (p+i)*(p+j)); the weights of (i, j) and (j, i)
    # add up to (j-i)**2 - (2p+s), and the diagonal i = j weighs -(p+i).
    pu = pv = 0
    for i in range(max(0, s - n + 1), s // 2 + 1):
        j = s - i
        c = (j - i) ** 2 - (2 * p + s) if i < j else -(p + i)
        pu += c * x[i] * x[j]
        if q:
            pu += c * q * y[i] * y[j]
            pv += c * (x[i] * y[j] + y[i] * x[j])
    su = sv = 0
    i = s - n
    if 0 <= i < n:
        c = (n - i) ** 2 - (2 * p + s)
        su, sv = c * x[i], c * y[i]
    # -alpha*w - beta*w' at order m: a_i meets alpha[m-p-i] and beta[m-p-i+1],
    # both at index k = m-p+1-i of the shifted lists; a_n's term joins the slope
    top = m - p + 1
    lu = lv = cu_n = cv_n = 0
    for i in range(max(0, top - len(t.bx) + 1), min(n, top) + 1):
        k = top - i
        cu = t.ax[k] + t.bx[k] * (p + i)
        cv = t.ay[k] + t.by[k] * (p + i)
        if i == n:
            cu_n, cv_n = cu, cv
            continue
        lu += cu * x[i]
        if q:
            lu += cv * q * y[i]
            lv += cu * y[i] + cv * x[i]
    gu = t.gx[m] if 0 <= m < len(t.gx) else 0
    gv = t.gy[m] if 0 <= m < len(t.gy) else 0
    d = L * L * T
    base = (pu * T - lu * L - gu * L * L, pv * T - lv * L - gv * L * L, d)
    slope = (L * (su * T - cu_n * L), L * (sv * T - cv_n * L), d)
    return base, slope


def _resonance_r(beta: RatFunc, z0: FieldConstant, a0: FieldConstant) -> FieldConstant:
    """r = beta(z0)/a0 + 2: where the order-n slope of a p = 1 branch vanishes."""
    return beta.eval_at(z0) / a0 + 2


def _resonance_status(beta: RatFunc, z0: FieldConstant, cand: LeadingCandidate,
                      cap: int) -> tuple[str, FieldConstant | None]:
    """(status, r) of cand, see BranchResonance; "evaluated" means the
    condition is read off an expansion to order r + 2."""
    if cand.p != 1:
        return "not-applicable", None
    r = _resonance_r(beta, z0, cand.a0)
    if not r.is_positive_integer():
        return "no-resonance", r
    return ("cap-exceeded" if r.as_integer() > cap else "evaluated"), r


def _match_orders(res, a: _Prefix, order: int,
                  free_value: FieldConstant) -> tuple[int | None, int | None]:
    """Extend the prefix a in place through a_order, one order at a time;
    res(n, a) is a_n's equation as (base, slope), see _residual_order.

    At the first vanishing slope a met condition frees a_n, set to free_value;
    at later ones it is set to 0.  A violated condition halts the branch.
    Returns (index of the first vanishing slope, index where the branch
    halted), each None when it did not happen.
    """
    q = a.q
    first: int | None = None
    for n in range(len(a.values), order + 1):
        (bu, bv, _), (su, sv, _) = res(n, a)
        if sv:  # a_n = -base/slope, times the conjugate over the norm
            a.append(from_integers(q * bv * sv - bu * su, bu * sv - bv * su,
                                   su * su - q * sv * sv, q))
            continue
        if su:
            a.append(from_integers(-bu, -bv, su, q))
            continue
        if first is None:
            first = n
        if bu or bv:
            return first, n
        a.append(free_value if n == first else ZERO)
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
    coefficient list stops before the impossible index.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    a0 = FieldConstant.of(a0)
    if in_excluded_set(alpha, beta, gamma, z0):
        raise PointInPhiError(z0)
    if a0.is_zero:
        raise ValueError("leading coefficient a0 must be nonzero")
    if order < p + 2:
        raise ValueError(f"truncation order must be at least p + 2 = {p + 2}")
    # z0 is no pole of a coefficient, so each series starts at (z-z0)**0
    n_taylor = order + 2 * p + 1
    t = _Taylor(*(_series_div(f.num.shift(z0), f.den.shift(z0), n_taylor)
                  for f in (alpha, beta, gamma)), n_taylor)
    free = ZERO if resonance_value is None else resonance_value
    a = _Prefix([a0], common_discriminant((a0, free), t.q))

    for m in range(0, 2 * p - 1):
        bu, bv, _ = _residual_order(m, a, p, t)[0]
        if bu or bv:
            raise ValueError(
                f"leading data (p={p}, a0={a0}) does not balance at order {m}"
            )

    def res(n: int, a: _Prefix) -> tuple[tuple, tuple]:
        return _residual_order(n + 2 * p - 2, a, p, t)

    res_index, halted = _match_orders(res, a, order, free)
    condition = None if res_index is None else halted != res_index
    free_index = res_index if condition else None
    alternate = None
    if condition and resonance_value is None:
        alt = _Prefix(a.values[:free_index] + [ONE], a.q)
        if _match_orders(res, alt, order, ZERO)[1] is None:
            alternate = tuple(alt.values)

    r = _resonance_r(beta, z0, a0) if p == 1 else None
    info = ResonanceInfo(r, r is not None and r.is_positive_integer(),
                         res_index, condition, free_index)
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
    rational = not z0.q and not any(f.num.q or f.den.q for f in (alpha, beta, gamma))
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
    cap: int = RESONANCE_CAP_DEFAULT,
    expansion: LaurentExpansion | None = None,
) -> BranchResonance:
    """Resonance location of one leading candidate and, when reachable, its condition.

    The closed formula r = beta(z0)/a0 + 2 applies to the p = 1 balances.
    The p = 2 branch has no such formula and reports not-applicable.  A
    positive integer r beyond the cap is a distinct reportable outcome, not
    an error: the condition sits too deep to evaluate.  The condition is read
    off an expansion of the branch to order r + 2: the caller's expansion of
    this candidate when it reaches that far, else a fresh one.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    status, r = _resonance_status(beta, z0, cand, cap)
    if status != "evaluated":
        return BranchResonance(cand, status, r, status == "cap-exceeded")
    n_r = r.as_integer()
    if expansion is None or expansion.truncation_order < n_r + 2:
        expansion = expand(alpha, beta, gamma, z0, cand.p, cand.a0, n_r + 2)
    info = expansion.resonance
    return BranchResonance(cand, "evaluated", r, True, info.condition_satisfied,
                           info.free_coefficient_index)


def resonance_report(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    cap: int = RESONANCE_CAP_DEFAULT,
    ctx: ExtensionContext | None = None,
) -> list[BranchResonance]:
    """branch_resonance of every leading candidate at z0."""
    return [branch_resonance(alpha, beta, gamma, z0, cand, cap)
            for cand in leading_candidates(alpha, beta, gamma, z0, ctx)]
