"""Finite exponential sums sum R_i(z) * exp(rate_i * z) with exact arithmetic.

The class is closed under ring operations and differentiation; integration is
closed except for logarithmic obstructions, which are returned as a typed
report (a normal outcome, not an exception).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .errors import NearPoleError, TranscendentalShiftError
from .field import ZERO, ONE, ExtensionContext, FieldConstant, format_constant
from .laurent import LaurentExpansion
from .ratfunc import Poly, RatFunc, ratfunc_to_str

POLE_GUARD = 1e-6
SPOT_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class ObstructionReport:
    """A term whose antiderivative would need a logarithm: the integral of
    residue_coefficient/(z - offending_pole) * exp(rate*z) after reduction."""

    offending_pole: FieldConstant
    rate: FieldConstant
    residue_coefficient: FieldConstant

    def describe(self) -> str:
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
    """Immutable normalized exponential sum: rates pairwise distinct, sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple, tuple[FieldConstant, RatFunc]] = {}
        for rate, coeff in terms:
            rate = FieldConstant.of(rate) if not isinstance(rate, FieldConstant) else rate
            coeff = RatFunc.of(coeff)
            key = rate.sort_key()
            if key in merged:
                merged[key] = (rate, merged[key][1] + coeff)
            else:
                merged[key] = (rate, coeff)
        cleaned = [(r, c) for r, c in merged.values() if not c.is_zero]
        cleaned.sort(key=lambda t: t[0].sort_key())
        self.terms = tuple(cleaned)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> ExpSum:
        return ExpSum()

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

    @property
    def rates(self) -> tuple[FieldConstant, ...]:
        return tuple(r for r, _ in self.terms)

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

    def scale(self, c) -> ExpSum:
        return ExpSum([(r, coeff * RatFunc.of(c)) for r, coeff in self.terms])

    def derivative(self) -> ExpSum:
        return ExpSum(
            [(r, c.derivative() + c * RatFunc.const(r)) for r, c in self.terms]
        )

    # -- evaluation ----------------------------------------------------------------

    def eval_complex(self, z: complex) -> complex:
        """Numeric value at z; refuses points within 1e-6 of a coefficient pole."""
        import numpy as np

        z = complex(z)
        total = 0j
        for rate, coeff in self.terms:
            if coeff.den.degree > 0:
                cs = [c.embed() for c in reversed(coeff.den.coeffs)]
                for root in np.roots(cs):
                    if abs(z - complex(root)) <= POLE_GUARD:
                        raise NearPoleError(z, abs(z - complex(root)))
            num_v = _poly_eval_complex(coeff.num, z)
            den_v = _poly_eval_complex(coeff.den, z)
            total += num_v / den_v * cmath.exp(rate.embed() * z)
        return total

    def laurent_at(self, z0: FieldConstant, order: int) -> LaurentExpansion:
        """Exact expansion about z0: coefficients a_0..a_order from leading power p.

        Every nonzero rate must satisfy rate*z0 = 0 (otherwise exp(rate*z0) is
        not a field constant and the expansion cannot stay exact).  The zero
        sum degenerates to p = 0 with all-zero coefficients.
        """
        z0 = FieldConstant.of(z0) if not isinstance(z0, FieldConstant) else z0
        for rate, _ in self.terms:
            if not rate.is_zero and not z0.is_zero:
                raise TranscendentalShiftError(
                    f"expansion about z0 = {z0} needs exp({rate}*z0), "
                    "which is not an exact field constant"
                )
        if self.is_zero:
            return LaurentExpansion(z0, 0, tuple([ZERO] * (order + 1)), order)
        low = -max(c.pole_order_at(z0) for _, c in self.terms)
        high = low + order
        p = None
        for _ in range(12):
            acc = self._window_series(z0, low, high)
            p = next((low + i for i, c in enumerate(acc) if not c.is_zero), None)
            if p is not None:
                break
            high += order + 8
        if p is None:
            raise RuntimeError("leading power search did not terminate")
        if p + order > high:
            high = p + order
            acc = self._window_series(z0, low, high)
        coeffs = tuple(acc[p - low : p - low + order + 1])
        return LaurentExpansion(z0, p, coeffs, order)

    def _window_series(self, z0: FieldConstant, low: int, high: int):
        """Exact sum of term series over absolute exponents low .. high."""
        acc = [ZERO] * (high - low + 1)
        for rate, coeff in self.terms:
            m = coeff.pole_order_at(z0)
            n_t = high + m + 1  # term exponents run from -m upward
            if n_t <= 0:
                continue
            off, cs = coeff.taylor_at(z0, n_t)
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
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c.embed()
    return acc if p.coeffs else 0j


def integrate_exp(
    coeff: RatFunc, rate: FieldConstant, ctx: ExtensionContext | None = None
) -> ExpSum | ObstructionReport:
    """Exact antiderivative of coeff(z)*exp(rate*z), or the obstruction.

    Integration constant is zero.  The obstruction is the first pole (in
    canonical order) whose accumulated (z - pole)**(-1) coefficient after
    integration by parts does not vanish.
    """
    ctx = ctx or ExtensionContext()
    coeff = RatFunc.of(coeff)
    rate = FieldConstant.of(rate) if not isinstance(rate, FieldConstant) else rate
    if coeff.is_zero:
        return ExpSum.zero()
    pf = coeff.partial_fractions(ctx)
    poles = pf.poles()

    result = RatFunc.of(0)
    if rate.is_zero:
        # plain antiderivative: obstruction iff a simple pole has residue
        for pole, orders in poles:
            if 1 in orders and not orders[1].is_zero:
                return ObstructionReport(pole, rate, orders[1])
        p = pf.polynomial_part
        anti = Poly([ZERO] + [p[i] / (i + 1) for i in range(p.degree + 1)]) if not p.is_zero else Poly()
        result = result + RatFunc(anti)
        for pole, orders in poles:
            for order, c in sorted(orders.items()):
                if order >= 2:
                    den = Poly((-pole, ONE)).pow(order - 1)
                    result = result + RatFunc(Poly.const(-c / (order - 1)), den)
        return ExpSum([(rate, result)])

    # rate != 0: polynomial part by repeated parts
    p = pf.polynomial_part
    q = Poly()
    sign = 1
    inv = rate.inverse()
    power = inv
    while not p.is_zero:
        q = q + p.scale(power if sign > 0 else -power)
        p = p.derivative()
        sign = -sign
        power = power * inv
    result = RatFunc(q)

    # pole terms: reduce order by parts, accumulate the order-1 coefficient
    residues = []
    for pole, orders in poles:
        top = max(orders)
        d = [ZERO] * (top + 1)
        for order, c in orders.items():
            d[order] = c
        for k in range(top, 1, -1):
            if d[k].is_zero:
                continue
            den = Poly((-pole, ONE)).pow(k - 1)
            result = result + RatFunc(Poly.const(-d[k] / (k - 1)), den)
            d[k - 1] = d[k - 1] + d[k] * rate / (k - 1)
        residues.append((pole, d[1]))
    for pole, res in residues:
        if not res.is_zero:
            return ObstructionReport(pole, rate, res)
    return ExpSum([(rate, result)])


def integrate(x: ExpSum, ctx: ExtensionContext | None = None) -> ExpSum | ObstructionReport:
    """Term-by-term antiderivative of an exponential sum."""
    ctx = ctx or ExtensionContext()
    total = ExpSum.zero()
    for rate, coeff in x.terms:
        part = integrate_exp(coeff, rate, ctx)
        if isinstance(part, ObstructionReport):
            return part
        total = total + part
    return total


def residual(alpha: RatFunc, beta: RatFunc, gamma: RatFunc, w: ExpSum) -> ExpSum:
    """w*w'' - (w')**2 - alpha*w - beta*w' - gamma, exactly."""
    wp = w.derivative()
    wpp = wp.derivative()
    a = ExpSum.from_ratfunc(alpha)
    b = ExpSum.from_ratfunc(beta)
    g = ExpSum.from_ratfunc(gamma)
    return w * wpp - wp * wp - a * w - b * wp - g


def numeric_residual_bound_ok(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    w: ExpSum,
    points: list[complex],
    tol: float = SPOT_CHECK_TOL,
) -> bool:
    """Check |w w'' - w'^2 - alpha w - beta w' - gamma| <= tol*(1+|w|^2) numerically."""
    wp = w.derivative()
    wpp = wp.derivative()
    ea = ExpSum.from_ratfunc(alpha)
    eb = ExpSum.from_ratfunc(beta)
    eg = ExpSum.from_ratfunc(gamma)
    for z in points:
        wv = w.eval_complex(z)
        r = (
            wv * wpp.eval_complex(z)
            - wp.eval_complex(z) ** 2
            - ea.eval_complex(z) * wv
            - eb.eval_complex(z) * wp.eval_complex(z)
            - eg.eval_complex(z)
        )
        if abs(r) > tol * (1.0 + abs(wv) ** 2):
            return False
    return True


def guarded_sample_points(
    alpha: RatFunc, beta: RatFunc, gamma: RatFunc, w: ExpSum, count: int = 20
) -> list[complex]:
    """Deterministic points with |z| <= 2, away from every coefficient pole."""
    candidates = []
    for k in range(3 * count):
        angle = 2 * cmath.pi * k / (3 * count)
        radius = 0.4 + 1.5 * ((k * 7) % 11) / 11.0
        candidates.append(radius * cmath.exp(1j * angle))
    funcs = [ExpSum.from_ratfunc(f) for f in (alpha, beta, gamma)] + [w]
    out = []
    for z in candidates:
        try:
            for f in funcs:
                f.eval_complex(z)
        except NearPoleError:
            continue
        except OverflowError:
            pass  # not near a pole; the spot check reports the overflow
        out.append(z)
        if len(out) == count:
            break
    return out
