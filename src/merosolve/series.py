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
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PointInPhiError
from .field import ZERO, ONE, ExtensionContext, FieldConstant
from .laurent import LaurentExpansion, ResonanceInfo
from .ratfunc import RatFunc, in_excluded_set

RESONANCE_CAP_DEFAULT = 64


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


def _residual_order(
    m: int,
    a: list[FieldConstant],
    p: int,
    al: list[FieldConstant],
    be: list[FieldConstant],
    ga: list[FieldConstant],
) -> tuple[FieldConstant, FieldConstant]:
    """Order-m coefficient of w*w'' - (w')**2 - alpha*w - beta*w' - gamma as
    (base, slope) in the next unknown a_n, n = len(a).

    w = sum a[k] zeta**(p+k) + a_n zeta**(p+n), and the coefficient is
    base + slope*a_n.  base is the direct convolution of the series with a_n
    left out.  slope collects the terms that contain a_n: the quadratic pairs
    (s-n, n) and (n, s-n) with s = m - 2p + 2, alpha[m-p-n]*a_n and
    beta[m-p-n+1]*(p+n)*a_n.  The coefficient is affine in a_n when s < 2n,
    which holds for every order expand matches (s = n there).
    """
    n = len(a)
    base = slope = ZERO
    s = m - 2 * p + 2
    # w*w'' - (w')**2 at order m: sum over i + j = s of
    # a_i*a_j*((p+j)*(p+j-1) - (p+i)*(p+j)); the weights of (i, j) and (j, i)
    # add up to (j-i)**2 - (2p+s), and the diagonal i = j weighs -(p+i).
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
    # -alpha*w - beta*w' at order m: a_i meets alpha[m-p-i] and beta[m-p-i+1]
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


def _resonance_r(beta: RatFunc, z0: FieldConstant, a0: FieldConstant) -> FieldConstant:
    """r = beta(z0)/a0 + 2: where the order-n slope of a p = 1 branch vanishes."""
    return beta.eval_at(z0) / a0 + 2


def _match_orders(res, a: list[FieldConstant], order: int,
                  free_value: FieldConstant) -> tuple[int | None, int | None]:
    """Extend the prefix a in place through a_order, one order at a time;
    res(n, a) is a_n's equation as (base, slope).

    At the first vanishing slope a met condition frees a_n, set to free_value;
    at later ones it is set to 0.  A violated condition halts the branch.
    Returns (index of the first vanishing slope, index where the branch
    halted), each None when it did not happen.
    """
    first: int | None = None
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
    al, be, ga = (f.taylor_at(z0, n_taylor)[1] for f in (alpha, beta, gamma))

    for m in range(0, 2 * p - 1):
        if not _residual_order(m, [a0], p, al, be, ga)[0].is_zero:
            raise ValueError(
                f"leading data (p={p}, a0={a0}) does not balance at order {m}"
            )

    def res(n: int, a: list[FieldConstant]) -> tuple[FieldConstant, FieldConstant]:
        return _residual_order(n + 2 * p - 2, a, p, al, be, ga)

    a = [a0]
    free = ZERO if resonance_value is None else resonance_value
    res_index, halted = _match_orders(res, a, order, free)
    condition = None if res_index is None else halted != res_index
    free_index = res_index if condition else None
    alternate = None
    if condition and resonance_value is None:
        alt = a[:free_index] + [ONE]
        if _match_orders(res, alt, order, ZERO)[1] is None:
            alternate = tuple(alt)

    r = _resonance_r(beta, z0, a0) if p == 1 else None
    info = ResonanceInfo(r, r is not None and r.is_positive_integer(),
                         res_index, condition, free_index)
    return LaurentExpansion(
        z0=z0,
        p=p,
        coefficients=tuple(a),
        truncation_order=order,
        resonance=info,
        alternate_coefficients=alternate,
        halted_at=halted,
    )


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
    if cand.p != 1:
        return BranchResonance(cand, "not-applicable", None, False)
    r = _resonance_r(beta, z0, cand.a0)
    if not r.is_positive_integer():
        return BranchResonance(cand, "no-resonance", r, False)
    n_r = r.as_integer()
    if n_r > cap:
        return BranchResonance(cand, "cap-exceeded", r, True)
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
