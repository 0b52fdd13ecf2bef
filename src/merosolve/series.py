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

from dataclasses import dataclass, replace

from .errors import PointInPhiError
from .field import ZERO, ONE, ExtensionContext, FieldConstant
from .laurent import LaurentExpansion, ResonanceInfo
from .ratfunc import RatFunc, in_excluded_set

RESONANCE_CAP_DEFAULT = 64


@dataclass(frozen=True)
class LeadingCandidate:
    """One admissible leading behaviour a0*(z-z0)**p at an ordinary point z0."""

    p: int
    a0: FieldConstant
    note: str | None = None
    # gamma == 0, beta != 0 branch only: whether alpha(z0) + beta'(z0) = 0,
    # the compatibility condition attached to that expansion
    side_condition_satisfied: bool | None = None


@dataclass(frozen=True)
class BranchResonance:
    """Resonance summary for one leading candidate."""

    candidate: LeadingCandidate
    status: str  # "not-applicable" | "no-resonance" | "evaluated" | "cap-exceeded"
    r: FieldConstant | None
    r_is_positive_integer: bool
    condition_satisfied: bool | None = None
    free_coefficient_index: int | None = None


def coefficients_all_zero(alpha: RatFunc, beta: RatFunc, gamma: RatFunc) -> bool:
    return alpha.is_zero and beta.is_zero and gamma.is_zero


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
    if coefficients_all_zero(alpha, beta, gamma):
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


def _taylor_list(f: RatFunc, z0: FieldConstant, n: int) -> list[FieldConstant]:
    """Taylor coefficients of f at z0 through (z-z0)**(n-1); f analytic at z0."""
    if f.is_zero:
        return [ZERO] * n
    offset, cs = f.taylor_at(z0, n)
    out = [ZERO] * n
    for i, c in enumerate(cs):
        k = offset + i
        if 0 <= k < n:
            out[k] = c
    return out


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
    n_taylor = order + 2 * p + 1
    al = _taylor_list(alpha, z0, n_taylor)
    be = _taylor_list(beta, z0, n_taylor)
    ga = _taylor_list(gamma, z0, n_taylor)

    def res(m: int, a: list[FieldConstant]) -> tuple[FieldConstant, FieldConstant]:
        return _residual_order(m, a, p, al, be, ga)

    for m in range(0, 2 * p - 1):
        if not res(m, [a0])[0].is_zero:
            raise ValueError(
                f"leading data (p={p}, a0={a0}) does not balance at order {m}"
            )

    def continue_branch(a: list[FieldConstant], start: int) -> list[FieldConstant] | None:
        a = list(a)
        for n in range(start, order + 1):
            base, slope = res(n + 2 * p - 2, a)
            if not slope.is_zero:
                a.append(-base / slope)
            elif base.is_zero:
                a.append(ZERO)
            else:
                return None
        return a

    a: list[FieldConstant] = [a0]
    res_index: int | None = None
    condition: bool | None = None
    free_index: int | None = None
    alternate: tuple[FieldConstant, ...] | None = None
    halted: int | None = None
    for n in range(1, order + 1):
        base, slope = res(n + 2 * p - 2, a)
        if not slope.is_zero:
            a.append(-base / slope)
        elif base.is_zero:
            if res_index is None:
                res_index, condition, free_index = n, True, n
                if resonance_value is not None:
                    a.append(resonance_value)
                else:
                    alt = continue_branch(a + [ONE], n + 1)
                    alternate = tuple(alt) if alt is not None else None
                    a.append(ZERO)
            else:
                a.append(ZERO)
        else:
            if res_index is None:
                res_index, condition = n, False
            halted = n
            break

    if p == 1:
        r = beta.eval_at(z0) / a0 + 2
        info = ResonanceInfo(
            r, r.is_positive_integer(), res_index, condition, free_index
        )
    else:
        info = ResonanceInfo(None, False, res_index, condition, free_index)
    return LaurentExpansion(
        z0=z0,
        p=p,
        coefficients=tuple(a),
        truncation_order=order,
        resonance=info,
        alternate_coefficients=alternate,
        halted_at=halted,
    )


def resonance_report(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    z0: FieldConstant,
    cap: int = RESONANCE_CAP_DEFAULT,
    ctx: ExtensionContext | None = None,
    order: int = 0,
) -> list[BranchResonance]:
    """Per-branch resonance location and, when reachable, its condition.

    The closed formula r = beta(z0)/a0 + 2 applies to the p = 1 balances.
    The p = 2 branch has no such formula and reports not-applicable.  A
    positive integer r beyond the cap is a distinct reportable outcome, not
    an error: the condition sits too deep to evaluate by default.
    A caller that expands every branch to ``order`` anyway passes it: a branch
    with r + 2 <= order is then not probed to order r + 2, and its condition
    is left for ``read_resonance`` to read off the caller's expansion.
    """
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    z0 = FieldConstant.of(z0)
    out = []
    for cand in leading_candidates(alpha, beta, gamma, z0, ctx):
        if cand.p != 1:
            out.append(BranchResonance(cand, "not-applicable", None, False))
            continue
        r = beta.eval_at(z0) / cand.a0 + 2
        if not r.is_positive_integer():
            out.append(BranchResonance(cand, "no-resonance", r, False))
            continue
        n_r = r.as_integer()
        if n_r > cap:
            out.append(BranchResonance(cand, "cap-exceeded", r, True))
            continue
        report = BranchResonance(cand, "evaluated", r, True)
        if n_r + 2 > order:
            probe = expand(alpha, beta, gamma, z0, cand.p, cand.a0, n_r + 2)
            report = read_resonance(report, probe)
        out.append(report)
    return out


def read_resonance(report: BranchResonance, expansion: LaurentExpansion) -> BranchResonance:
    """Fill in a condition resonance_report left unread, from an expansion of the
    branch to order >= r + 2: it has the probe's prefix and first zero slope."""
    if report.status != "evaluated" or report.condition_satisfied is not None:
        return report
    info = expansion.resonance
    return replace(report, condition_satisfied=info.condition_satisfied,
                   free_coefficient_index=info.free_coefficient_index)
