"""Exact rational functions: calculus rules, reduction, decomposition, roots."""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from merosolve import field, ratfunc
from merosolve.errors import IncompatibleExtensionsError, LimitExceededError
from merosolve.expsum import ObstructionReport
from merosolve.parse import parse_ratfunc
from merosolve.field import ONE, ZERO, ExtensionContext, FieldConstant
from merosolve.ratfunc import (
    Poly,
    RatFunc,
    linear_roots,
    poly_gcd,
    poly_to_str,
    ratfunc_to_str,
)

import reference_kernels
from conftest import (
    extended_constants,
    nonzero_extended_constants,
    nonzero_polys,
    nonzero_rational_constants,
    polys,
    rational_constants,
    ratfuncs,
    small_fractions,
)

Z = RatFunc.z()


def rf(num, den=1) -> RatFunc:
    return RatFunc(Poly([FieldConstant.of(c) for c in num]),
                   Poly([FieldConstant.of(c) for c in den]) if den != 1 else None)


class TestReduction:
    @given(ratfuncs())
    def test_denominator_is_monic(self, f):
        assert f.den.leading == ONE

    @given(ratfuncs())
    def test_numerator_denominator_coprime(self, f):
        assert poly_gcd(f.num, f.den).degree == 0

    @given(ratfuncs(), ratfuncs())
    def test_sum_stays_reduced(self, f, g):
        h = f + g
        assert h.den.leading == ONE
        assert poly_gcd(h.num, h.den).degree == 0

    def test_common_factor_cancels(self):
        # (z^2 - 1)/(z - 1) reduces to z + 1
        f = rf([-1, 0, 1], [-1, 1])
        assert f == rf([1, 1])

    def test_zero_numerator_normalizes(self):
        f = RatFunc(Poly(), Poly([FieldConstant.of(3), ONE]))
        assert f.is_zero and f.den == Poly.const(1)

    def test_comparison_with_a_non_number_is_false(self):
        # integrate_exp returns a RatFunc or an ObstructionReport; comparing the
        # two types answers False rather than raising
        report = ObstructionReport(ONE, ONE, ONE)
        assert not RatFunc.z() == report and RatFunc.z() != report
        assert not report == RatFunc.z()
        assert RatFunc.z() != "z" and RatFunc.const(1) == 1


class TestField:
    def test_a_rational_function_and_zero_lie_in_q(self):
        assert rf([1, 2], [3, 0, 1]).q == 0
        assert RatFunc(Poly()).q == 0 and RatFunc.of(0).q == 0

    def test_either_part_carries_the_field(self):
        over_num = RatFunc(Poly([root5, ONE]), Poly([ONE, ZERO, ONE]))  # (z + sqrt 5)/(z^2 + 1)
        over_den = RatFunc(Poly.const(1), Poly([root5, ONE]))  # 1/(z + sqrt 5)
        assert over_num.den.q == 0 and over_den.num.q == 0
        assert over_num.q == 5 and over_den.q == 5


class TestCalculus:
    @given(ratfuncs(), ratfuncs())
    def test_product_rule(self, f, g):
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    @given(ratfuncs(), ratfuncs())
    def test_quotient_rule(self, f, g):
        if g.is_zero:
            return
        lhs = (f / g).derivative()
        assert lhs == (f.derivative() * g - f * g.derivative()) / (g * g)

    @given(ratfuncs(), ratfuncs())
    def test_derivative_is_additive(self, f, g):
        assert (f + g).derivative() == f.derivative() + g.derivative()

    def test_power_and_chain(self):
        f = rf([1, 1])  # z + 1
        assert (f ** 3).derivative() == 3 * f * f

    def test_derivative_of_simple_pole(self):
        f = 1 / Z
        assert f.derivative() == rf([-1], [0, 0, 1])


class TestEvaluation:
    def test_value_at_regular_point_leads_the_taylor_series(self):
        f = rf([1, 0, 1], [1, 1])  # (z^2 + 1)/(z + 1)
        assert f.taylor_at(FieldConstant.of(1), 1) == (0, [FieldConstant.of(1)])

    def test_pole_order_is_the_taylor_offset(self):
        f = rf([1], [0, 0, 0, 1]) + rf([5])  # 1/z^3 + 5
        assert f.taylor_at(ZERO, 1)[0] == -3
        assert f.taylor_at(ONE, 1)[0] == 0

    def test_taylor_at_regular_point(self):
        # 1/(1 - z) at 0: all coefficients 1
        f = 1 / (1 - Z)
        offset, coeffs = f.taylor_at(ZERO, 5)
        assert offset == 0
        assert coeffs == [ONE] * 5

    def test_taylor_at_pole(self):
        # 1/(z^2*(1 - z)) at 0: offset -2, coefficients all 1
        f = 1 / (Z * Z * (1 - Z))
        offset, coeffs = f.taylor_at(ZERO, 4)
        assert offset == -2
        assert coeffs == [ONE] * 4

    def test_taylor_matches_sympy(self):
        import sympy

        z = sympy.Symbol("z")
        f = rf([2, -1, 3], [1, 0, 1])  # (3z^2 - z + 2)/(z^2 + 1)
        expr = (3 * z**2 - z + 2) / (z**2 + 1)
        z0 = FieldConstant.of(Fraction(1, 2))
        offset, coeffs = f.taylor_at(z0, 6)
        assert offset == 0
        for k, c in enumerate(coeffs):
            expected = sympy.diff(expr, z, k).subs(z, sympy.Rational(1, 2))
            expected = expected / sympy.factorial(k)
            assert Fraction(str(sympy.nsimplify(expected))) == c.a and c.b == 0


@st.composite
def _taylor_cases(draw):
    """f, z0, n over Q or Q(sqrt(5)), with a pole of order 0-2 forced at z0."""
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    z0 = draw(constants)
    num = draw(polys(3, constants))
    den = draw(nonzero_polys(3, constants)) * Poly((-z0, ONE)).pow(draw(st.integers(0, 2)))
    return RatFunc(num, den), z0, draw(st.integers(min_value=1, max_value=10))


class TestTaylorAgainstReference:
    @given(_taylor_cases())
    def test_taylor_at_equals_the_field_constant_division(self, case):
        f, z0, n = case
        assert f.taylor_at(z0, n) == reference_kernels.taylor_at(f, z0, n)

    def test_irrational_constant_term_and_pole(self):
        # den(z0) = 1 + sqrt(5) at z0 = 0, and a double pole at z0 = 1/2
        root5 = FieldConstant(Fraction(0), Fraction(1), 5)
        f = RatFunc(Poly((ONE, root5)), Poly((ONE + root5, FieldConstant.of(3), ONE)))
        assert f.taylor_at(ZERO, 12) == reference_kernels.taylor_at(f, ZERO, 12)
        half = FieldConstant.of(Fraction(1, 2))
        g = f / ((Z - half) * (Z - half))
        offset, coeffs = g.taylor_at(half, 12)
        assert offset == -2
        assert (offset, coeffs) == reference_kernels.taylor_at(g, half, 12)


# Eisenstein at 2, 3, 5 or 7 (Eisenstein 1850): lc prime to p, every other
# coefficient a multiple of p, the constant not of p^2.  So it has no rational root
@st.composite
def _eisenstein(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    big = st.integers(-10**30, 10**30)
    lead = draw(big.filter(lambda x: x % p))
    middle = [p * draw(big) for _ in range(draw(st.integers(2, 4)))]
    low = p * draw(big.filter(lambda x: x % p))
    return Poly([FieldConstant.of(c) for c in [low, *middle, lead]])


@st.composite
def _planted_roots(draw):
    """(p, {root: multiplicity}, irreducible factor): p the product of factors
    v*z - u, |u|, |v| <= 10**30, to a power, times an Eisenstein factor of
    degree 3 to 5, so its rational roots are known without a factoriser."""
    irreducible = draw(_eisenstein())
    p, planted = irreducible, {}
    for _ in range(draw(st.integers(0, 4))):
        u = draw(st.integers(-10**30, 10**30))
        v = draw(st.integers(1, 10**30))
        m = draw(st.integers(1, 3))
        p = p * Poly([FieldConstant.of(-u), FieldConstant.of(v)]).pow(m)
        planted[Fraction(u, v)] = planted.get(Fraction(u, v), 0) + m
    return p, planted, irreducible


_QUARTIC = Poly([FieldConstant.of(c) for c in (3, 2, 3, 2, 1)])  # (z^2 + z + 1)^2 + 2


class TestRoots:
    def test_linear_roots_with_multiplicities(self):
        ctx = ExtensionContext()
        # 2*(z - 1)^2*(z + 2)
        p = Poly([FieldConstant.of(-1), ONE]).pow(2) * Poly([FieldConstant.of(2), ONE])
        p = p.scale(FieldConstant.of(2))
        lc, roots, rem = linear_roots(p, ctx)
        assert lc == FieldConstant.of(2)
        assert roots == [(FieldConstant.of(-2), 1), (ONE, 2)]
        assert rem.degree == 0

    def test_linear_roots_adopts_extension(self):
        ctx = ExtensionContext()
        p = Poly([FieldConstant.of(-2), ZERO, ONE])  # z^2 - 2
        _, roots, rem = linear_roots(p, ctx)
        assert rem.degree == 0 and ctx.q == 2
        vals = {r for r, _ in roots}
        root2 = FieldConstant(Fraction(0), Fraction(1), 2)
        assert vals == {root2, -root2}

    def test_linear_roots_nonsplit_remainder(self):
        ctx = ExtensionContext()
        p = Poly([FieldConstant.of(-2), ZERO, ZERO, ONE])  # z^3 - 2
        _, roots, rem = linear_roots(p, ctx)
        assert roots == [] and rem.degree == 3

    @given(_planted_roots())
    # (z - 1)*((z^2 + z + 1)^2 + 2) is square-free over Q, and mod 2 it is
    # (z + 1)*(z^2 + z + 1)^2: the root 1 is simple there, so 2 is the prime
    @example((Poly([FieldConstant.of(-1), ONE]) * _QUARTIC, {1: 1}, _QUARTIC))
    def test_rational_roots_are_exactly_the_planted_ones(self, case):
        p, planted, irreducible = case
        lc, roots, rem = linear_roots(p, ExtensionContext())
        assert lc == p.leading
        assert [(r.a, m) for r, m in roots] == sorted(planted.items())
        assert rem == irreducible.monic()

    def test_wall_time_on_thirty_digit_coefficients(self):
        # five roots u/v with 30-digit u and v times z^3 + 2*z + 2*(10^30 + 1),
        # which is Eisenstein at 2
        rng = random.Random(20)
        big = 10**30
        p, want = Poly([FieldConstant.of(2 * big + 2), FieldConstant.of(2), ZERO, ONE]), []
        for _ in range(5):
            u, v = rng.randint(-big, big), rng.randint(big // 10, big)
            p = p * Poly([FieldConstant.of(-u), FieldConstant.of(v)])
            want.append(Fraction(u, v))
        start = time.perf_counter()
        _, roots, rem = linear_roots(p, ExtensionContext())
        assert time.perf_counter() - start < 2.0
        assert sorted(r.a for r, _ in roots) == sorted(want) and rem.degree == 3

    def test_poly_gcd(self):
        a = Poly([FieldConstant.of(-1), ONE]).pow(2)  # (z-1)^2
        b = Poly([FieldConstant.of(-1), ZERO, ONE])  # (z-1)(z+1)
        g = poly_gcd(a, b)
        assert g.monic() == Poly([FieldConstant.of(-1), ONE])


class TestPartialFractions:
    # the package finds no root to integrate; these check the decomposition the
    # test oracles (reference_kernels.integrate_exp and case_c_rates) read

    @given(polys(max_degree=2), nonzero_polys(max_degree=2))
    def test_recombine_roundtrip(self, num, den):
        f = RatFunc(num, den)
        ctx = ExtensionContext()
        try:
            polynomial_part, poles = reference_kernels.partial_fractions(f, ctx)
        except ValueError:
            return
        total = RatFunc(polynomial_part)
        for pole, cs in poles:
            for k, c in enumerate(cs, 1):
                total = total + RatFunc(Poly.const(c), Poly((-pole, ONE)).pow(k))
        assert total == f
        # one principal part per root, in linear_roots' order, as long as its order
        _, roots, _ = linear_roots(f.den, ctx)
        assert [(pole, len(cs)) for pole, cs in poles] == roots
        assert all(not cs[-1].is_zero for _, cs in poles)

    def test_simple_decomposition(self):
        # 1/(z^2 - 1) = (1/2)/(z - 1) - (1/2)/(z + 1): the residue at +-1 is
        # 1/(2*(+-1)), the value of 1/(z -+ 1) there
        polynomial_part, poles = reference_kernels.partial_fractions(1 / (Z * Z - 1))
        half = FieldConstant.of(Fraction(1, 2))
        assert polynomial_part.is_zero
        assert poles == (
            (-ONE, (-half,)),
            (ONE, (half,)),
        )

    def test_higher_order_pole(self):
        # (z + 1)/z^2 = 1/z + 1/z^2: cs[k-1] is the coefficient of z^-k
        assert reference_kernels.partial_fractions((Z + 1) / (Z * Z))[1] == ((ZERO, (ONE, ONE)),)

    def test_irreducible_denominator_raises(self):
        with pytest.raises(ValueError, match="does not split over the field: z\\^3 - 2"):
            reference_kernels.partial_fractions(1 / (Z ** 3 - 2))

    def test_single_extension_budget(self):
        # One context cannot split both z^2 - 2 and z^2 - 3.
        ctx = ExtensionContext()
        reference_kernels.partial_fractions(1 / (Z * Z - 2), ctx)
        assert ctx.q == 2
        with pytest.raises(ValueError):
            reference_kernels.partial_fractions(1 / (Z * Z - 3), ctx)
        # A fresh context handles the second one fine.
        reference_kernels.partial_fractions(1 / (Z * Z - 3), ExtensionContext())


class TestSqrt:
    @given(ratfuncs(max_degree=2))
    def test_square_then_sqrt(self, f):
        ctx = ExtensionContext()
        g = (f * f).sqrt(ctx)
        assert g is not None
        assert g == f or g == -f

    def test_non_square_returns_none(self):
        assert Z.sqrt(ExtensionContext()) is None
        assert (Z ** 3).sqrt(ExtensionContext()) is None

    def test_constant_lift_into_extension(self):
        ctx = ExtensionContext()
        g = (2 * Z * Z).sqrt(ctx)
        root2 = FieldConstant(Fraction(0), Fraction(1), 2)
        assert ctx.q == 2 and g == Z * root2

    def test_zero_sqrt(self):
        assert RatFunc(Poly()).sqrt() == RatFunc(Poly())


class TestDisplay:
    def test_poly_to_str(self):
        p = Poly([FieldConstant.of(-1), ZERO, ONE])
        assert poly_to_str(p) == "z^2 - 1"

    def test_ratfunc_str(self):
        assert str(1 / (Z + 1)) == "(1)/(z + 1)"


# -- normal form: the gcd is skipped only where no common factor can exist ------------

constants = st.one_of(rational_constants, extended_constants)


def reference(num: Poly, den: Poly):
    """(num, den) coefficients of the normal form, by the unconditional route
    in FieldConstant arithmetic: Euclid's gcd, exact division by it, then
    scaling by 1/lc(den)."""
    if num.is_zero:
        return (), (ONE,)
    n, d = num.coeffs, den.coeffs
    g = reference_kernels.gcd(n, d)
    n, d = reference_kernels.divmod_(n, g)[0], reference_kernels.divmod_(d, g)[0]
    lead = d[-1].inverse()
    return tuple(c * lead for c in n), tuple(c * lead for c in d)


def parts(f: RatFunc):
    return f.num.coeffs, f.den.coeffs


@st.composite
def sharing_pairs(draw):
    """Unreduced (num, den) pairs f and g over Q(sqrt 5) with one forced common
    factor h, placed so that f itself, f + g and f*g all have h to cancel."""
    h = draw(nonzero_polys(2, constants).filter(lambda p: p.degree > 0))
    out = []
    for _ in range(2):
        num = draw(polys(2, constants))
        den = draw(nonzero_polys(2, constants))
        where = draw(st.sampled_from(["num", "den", "both"]))
        out.append((num * h if where != "den" else num, den * h if where != "num" else den))
    return out


class TestNormalForm:
    @given(sharing_pairs())
    def test_constructor_matches_reference(self, pairs):
        for num, den in pairs:
            n, d = reference(num, den)
            assert parts(RatFunc(num, den)) == (n, d)
            assert parts(RatFunc._reduced(Poly(n), Poly(d))) == (n, d)

    @given(sharing_pairs(), st.integers(min_value=-2, max_value=3))
    def test_arithmetic_matches_reference(self, pairs, k):
        f, g = (RatFunc(num, den) for num, den in pairs)
        a, b, c, d = f.num, f.den, g.num, g.den
        cases = [
            (f + g, a * d + c * b, b * d),
            (f - g, a * d - c * b, b * d),
            (-f, -a, b),
            (f - f, a * b - a * b, b * b),
            (f * g, a * c, b * d),
            (f.derivative(), a.derivative() * b - a * b.derivative(), b * b),
            (RatFunc.of(a), a, Poly.const(1)),
        ]
        if not g.is_zero:
            cases.append((f / g, a * d, b * c))
        if k >= 0:
            cases.append((f ** k, a.pow(k), b.pow(k)))
        elif not f.is_zero:
            cases.append((f ** k, b.pow(-k), a.pow(-k)))
        for result, num, den in cases:
            assert parts(result) == reference(num, den)

    @given(polys(3, constants), constants)
    def test_polynomial_operands_match_reference(self, p, c):
        # sums and negations over a constant denominator take the trusted path
        one, cp = Poly.const(1), Poly.const(c)
        f = RatFunc(p)
        assert parts(f) == reference(p, one)
        assert parts(RatFunc.const(c)) == reference(cp, one)
        if not c.is_zero:
            assert parts(RatFunc(p, cp)) == reference(p, cp)
        assert parts(f + c) == reference(p + cp, one)
        assert parts(c - f) == reference(cp - p, one)

    @given(polys(2, constants), nonzero_polys(2, constants))
    def test_poly_product_matches_convolution(self, p, q):
        conv = [ZERO] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
        for i, x in enumerate(p.coeffs):
            for j, y in enumerate(q.coeffs):
                conv[i + j] = conv[i + j] + x * y
        assert (p * q).coeffs == Poly(conv).coeffs == (q * p).coeffs


class TestGcdSkips:
    def test_no_gcd_where_no_common_factor_can_exist(self, monkeypatch):
        p = Poly([FieldConstant.of(1), ZERO, ONE])  # z^2 + 1
        f = RatFunc(Poly.const(1), Poly([FieldConstant.of(-2), ONE]))  # 1/(z - 2)
        g = RatFunc(p)
        calls, real = [], ratfunc._cofactors

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(ratfunc, "_cofactors", counting)
        RatFunc(p)
        RatFunc(p, Poly.const(FieldConstant.of(3)))
        RatFunc.const(Fraction(2, 3))
        RatFunc(Poly.const(5), p)
        -f
        f + g
        g + f
        f - g
        g - f
        f + 3
        assert calls == []
        # the counter is live: two nonconstant polynomials still meet a gcd
        f * g
        assert len(calls) == 1

    def test_gcd_of_zeros(self):
        assert poly_gcd(Poly(), Poly()) == Poly()

    @given(nonzero_polys(3, constants))
    def test_gcd_with_zero_is_monic(self, p):
        assert poly_gcd(p, Poly()) == p.monic() == poly_gcd(Poly(), p)

    @given(st.one_of(nonzero_rational_constants, nonzero_extended_constants),
           polys(3, constants))
    def test_gcd_with_a_nonzero_constant_is_one(self, c, p):
        one = Poly.const(1)
        assert poly_gcd(Poly.const(c), p) == one == poly_gcd(p, Poly.const(c))


# -- the integer-vector Poly against the FieldConstant reference kernels ---------------

root5 = FieldConstant(Fraction(0), Fraction(1), 5)
root2 = FieldConstant(Fraction(0), Fraction(1), 2)
root3 = FieldConstant(Fraction(0), Fraction(1), 3)
fields = st.sampled_from([rational_constants, extended_constants])


@st.composite
def poly_pairs(draw, max_degree=6):
    """Two polynomials of degree at most 6 over one field, Q or Q(sqrt 5)."""
    constants = draw(fields)
    return draw(polys(max_degree, constants)), draw(polys(max_degree, constants))


@st.composite
def irrational_divisors(draw):
    """A polynomial of degree 1-6 over Q(sqrt 5) whose leading coefficient is
    irrational."""
    lower = draw(st.lists(extended_constants, min_size=1, max_size=6))
    lead = FieldConstant(draw(small_fractions), draw(small_fractions.filter(bool)), 5)
    return Poly(lower + [lead])


def canonical(p: Poly) -> bool:
    """The representation invariants of Poly."""
    return (p.d > 0 and math.gcd(p.d, *p.a, *p.b) == 1
            and (not p.a or p.a[-1] or (p.b and p.b[-1]))
            and (p.b == () if p.q == 0 else len(p.b) == len(p.a) and any(p.b)))


class TestKernelsAgainstReference:
    @given(poly_pairs())
    def test_product(self, pair):
        p, q = pair
        assert (p * q).coeffs == reference_kernels.mul(p.coeffs, q.coeffs)
        assert canonical(p * q)

    @given(poly_pairs())
    def test_sum_and_difference(self, pair):
        p, q = pair
        for got, sign in ((p + q, ONE), (p - q, -ONE)):
            n = max(len(p.coeffs), len(q.coeffs))
            want = reference_kernels.strip(p[i] + sign * q[i] for i in range(n))
            assert got.coeffs == want and canonical(got)

    @given(poly_pairs())
    def test_divmod(self, pair):
        p, q = pair
        if q.is_zero:
            return
        quo, rem = p.divmod(q)
        assert (quo.coeffs, rem.coeffs) == reference_kernels.divmod_(p.coeffs, q.coeffs)
        assert canonical(quo) and canonical(rem)

    @given(polys(6, extended_constants), irrational_divisors())
    def test_divmod_by_an_irrational_leading_coefficient(self, p, q):
        assert not q.leading.is_rational
        quo, rem = p.divmod(q)
        assert (quo.coeffs, rem.coeffs) == reference_kernels.divmod_(p.coeffs, q.coeffs)
        assert quo * q + rem == p

    @given(poly_pairs(), fields.flatmap(lambda cs: polys(3, cs)))
    def test_gcd(self, pair, h):
        p, q = pair
        p, q = p * h, q * h  # a common factor, so the gcd is not always 1
        g = poly_gcd(p, q)
        assert g.coeffs == reference_kernels.gcd(p.coeffs, q.coeffs)
        assert canonical(g)

    @given(irrational_divisors(), irrational_divisors(), polys(2, extended_constants))
    def test_gcd_over_the_extension(self, p, q, h):
        assert poly_gcd(p * h, q * h).coeffs == reference_kernels.gcd((p * h).coeffs,
                                                                       (q * h).coeffs)

    @given(fields.flatmap(lambda cs: st.tuples(polys(6, cs), cs)))
    def test_shift(self, case):
        p, r = case
        assert p.shift(r).coeffs == reference_kernels.synthetic_shift(p.coeffs, r)
        assert canonical(p.shift(r))

    @given(fields.flatmap(lambda cs: polys(6, cs)))
    def test_derivative_and_monic(self, p):
        assert p.derivative().coeffs == reference_kernels.derivative(p.coeffs)
        assert p.monic().coeffs == reference_kernels.monic(p.coeffs)
        assert canonical(p.derivative()) and canonical(p.monic())


def _check_cofactors(a: Poly, b: Poly) -> Poly:
    """poly_gcd(a, b) is the PRS's monic gcd g and, for nonzero a and b, _gcd
    returns g with cofactors that multiply back to a and b; returns g."""
    g = ratfunc._prs_gcd(a, b)
    assert poly_gcd(a, b) == g and canonical(g)
    if not a.is_zero and not b.is_zero:
        got, x, y = ratfunc._gcd(a, b)
        assert got == g and g * x == a and g * y == b
        assert canonical(x) and canonical(y)
    return g


class TestHeuristicGcd:
    """The heuristic gcd (GCDHEU) with its cofactors, against the PRS."""

    # the integer scales give vectors with content above 1 and negative leading
    # coefficients; p, q or h of degree 0 or -1 give constant and zero operands
    @given(polys(4), polys(4), polys(3), st.integers(-6, 6).filter(bool),
           st.integers(-6, 6).filter(bool))
    @example(Poly(), Poly(), Poly(), 1, 1)
    @example(Poly.z(), Poly(), Poly.const(Fraction(-3, 2)), 4, -2)
    @example(Poly.const(5), Poly.z(), Poly.z(), -6, 6)
    # xi = 4 at first, where the values share the spurious factor gcd(4 - 1, 4 + 2) = 3
    @example(*(parse_ratfunc(t).num for t in ("z - 1", "z + 2", "(z + 1)^2")), 1, 1)
    def test_agrees_with_the_prs(self, p, q, h, m, n):
        _check_cofactors((p * h).scale(m), (q * h).scale(n))

    @given(irrational_divisors(), irrational_divisors(), polys(2, extended_constants))
    def test_a_pair_over_the_extension_takes_the_prs(self, p, q, h):
        heuristic = ratfunc._heuristic_gcd

        def rational_only(a, b):
            assert not a.q and not b.q, "the heuristic ran on Z[sqrt 5]"
            return heuristic(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratfunc, "_heuristic_gcd", rational_only)
            _check_cofactors(p * h, q * h)

    # at xi = 12 the gcd's coefficient 10 is above xi/2, and at xi = 25 the
    # values share the spurious factor gcd(25 - 1, 25 + 2) = 3; xi = 101 works
    SPURIOUS = (parse_ratfunc("(z + 1)^5*(z - 1)").num, parse_ratfunc("(z + 1)^5*(z + 2)").num)

    def test_a_spurious_integer_factor_is_retried(self, monkeypatch):
        xis = []
        real = ratfunc._value
        monkeypatch.setattr(ratfunc, "_value", lambda x, xi: xis.append(xi) or real(x, xi))
        g, x, y = ratfunc._gcd(*self.SPURIOUS)
        assert xis == [12, 12, 25, 25, 101, 101]  # two values per xi tried
        assert g == parse_ratfunc("(z + 1)^5").num
        assert (x, y) == (parse_ratfunc("z - 1").num, parse_ratfunc("z + 2").num)

    def test_every_try_failing_falls_back_to_the_prs(self, monkeypatch):
        heuristic, outcomes = ratfunc._heuristic_gcd, []
        monkeypatch.setattr(ratfunc, "_HEURISTIC_TRIES", 2)
        monkeypatch.setattr(ratfunc, "_heuristic_gcd",
                            lambda a, b: outcomes.append(heuristic(a, b)) or outcomes[-1])
        g, x, y = ratfunc._gcd(*self.SPURIOUS)
        assert outcomes == [None]
        assert g == parse_ratfunc("(z + 1)^5").num
        assert (x, y) == (parse_ratfunc("z - 1").num, parse_ratfunc("z + 2").num)


# factors near the shortcuts of Poly.__mul__: only zero and the integer 1 take them
SHORTCUT_FACTORS = {
    "zero": Poly(),
    "one": Poly.const(1),
    "1 + sqrt(5)": Poly([ONE + root5]),  # a == (1,) but b is not empty
    "1/2": Poly.const(Fraction(1, 2)),  # a == (1,) but d == 2
    "sqrt(5)": Poly([root5]),
    "-1": Poly.const(-1),
}


class TestProductShortcuts:
    @given(fields.flatmap(lambda cs: polys(6, cs)),
           st.one_of(st.sampled_from(list(SHORTCUT_FACTORS.values())),
                     fields.flatmap(lambda cs: polys(2, cs))))
    def test_agrees_with_convolution(self, p, f):
        for got in (p * f, f * p):
            assert got.coeffs == reference_kernels.mul(p.coeffs, f.coeffs) and canonical(got)

    @pytest.mark.parametrize("name", list(SHORTCUT_FACTORS))
    def test_named_factor(self, name):
        f = SHORTCUT_FACTORS[name]
        for p in (Poly([root5, -ONE, 3 * ONE]), Poly([Fraction(2, 3), 5 * ONE]), Poly.const(1)):
            for got in (p * f, f * p):
                assert got.coeffs == reference_kernels.mul(p.coeffs, f.coeffs) and canonical(got)

    def test_zero_factor_gives_the_zero_polynomial(self):
        for p in (Poly([root5, ONE]), Poly.z(), Poly(), Poly([ONE + root5])):
            for got in (p * Poly(), Poly() * p):
                assert got == Poly() and got.q == 0 and canonical(got)


# scalars for Poly.scale: the rational ones take the shortcut, sqrt(5) multiples do not
scalars = st.one_of(
    st.integers(min_value=-9, max_value=9),
    small_fractions,
    rational_constants,
    extended_constants,
)


def _const(c) -> tuple:
    """The coefficients of the constant polynomial c."""
    return reference_kernels.strip((FieldConstant.of(c),))


class TestTrivialOperandShortcuts:
    @given(fields.flatmap(lambda cs: polys(6, cs)))
    def test_sum_and_difference_with_zero(self, p):
        zero = Poly()
        for got, sign in ((p + zero, 1), (zero + p, 1), (p - zero, 1), (zero - p, -1)):
            assert got.coeffs == reference_kernels.mul(p.coeffs, _const(sign))
            assert canonical(got)

    @given(constants)
    def test_derivative_of_a_constant(self, c):
        got = Poly.const(c).derivative()
        assert got.coeffs == reference_kernels.mul(_const(c), ()) == ()
        assert got == Poly() and canonical(got)

    @given(fields.flatmap(lambda cs: polys(6, cs)), scalars)
    def test_scale(self, p, c):
        got = p.scale(c)
        assert got.coeffs == reference_kernels.mul(p.coeffs, _const(c)) and canonical(got)
        assert got == p * Poly.const(c)

    @given(small_fractions, st.integers(min_value=0, max_value=4),
           st.sampled_from([0, 1, 7]))
    def test_power_of_one_term(self, c, k, n):
        p = Poly([ZERO] * k + [FieldConstant.of(c)])
        want = _const(1)
        for _ in range(n):
            want = reference_kernels.mul(want, p.coeffs)
        got = p.pow(n)
        assert got.coeffs == want and canonical(got)

    @given(fields.flatmap(lambda cs: st.tuples(polys(4, cs), polys(4, cs))),
           st.one_of(nonzero_rational_constants, nonzero_extended_constants))
    def test_polynomial_ratfuncs_match_the_constructor(self, pair, c):
        # over the constant denominator c the constructor takes its general path
        p, q = pair
        f, g = RatFunc(p), RatFunc(q)
        cases = [
            (f + g, p + q),
            (f - g, p - q),
            (f * g, p * q),
            (f.derivative(), p.derivative()),
        ]
        for got, num in cases:
            assert parts(got) == parts(RatFunc(num.scale(c), Poly.const(c)))
            assert parts(got) == reference(num, Poly.const(1))

    def test_polynomial_operands_meet_no_constructor_and_no_gcd(self, monkeypatch):
        init, gcds = [], []
        original, real_gcd = RatFunc.__init__, ratfunc._cofactors

        def counting_init(self, *args):
            init.append(args)
            original(self, *args)

        def counting_gcd(a, b):
            gcds.append((a, b))
            return real_gcd(a, b)

        monkeypatch.setattr(RatFunc, "__init__", counting_init)
        monkeypatch.setattr(ratfunc, "_cofactors", counting_gcd)
        ps = [Poly([ONE, 2 * ONE, ONE]), Poly([root5, ONE]), Poly.z(), Poly.const(3), Poly()]
        fs = [RatFunc.of(p) for p in ps] + [RatFunc.z(), RatFunc.const(Fraction(2, 3))]
        for f in fs:
            f.derivative()
            for g in fs:
                f + g
                f - g
                f * g
        assert init == [] and gcds == []
        assert Poly.const(1) is Poly.const(1) is RatFunc.const(1).num
        # the counters are live: building a rational function with a pole meets
        # both, and its product with a polynomial meets one gcd of the factors
        RatFunc(ps[0], ps[1]) * fs[1]
        assert len(init) == 1 and len(gcds) == 2

    def test_trivial_operands_never_raise_and_clashes_still_do(self):
        p2, p3 = Poly([root2]), Poly([root3, ONE])
        zero, one = Poly(), Poly.const(1)
        for p in (p2, p3):
            assert p + zero == p == zero + p == p - zero == -(zero - p)
            assert p * one == p == one * p and (p * zero).is_zero
            assert RatFunc(p) + RatFunc(zero) == RatFunc(p) == RatFunc(p) * RatFunc(one)
        with pytest.raises(IncompatibleExtensionsError) as err:
            p2 + p3
        assert (err.value.q1, err.value.q2) == (2, 3)
        with pytest.raises(IncompatibleExtensionsError) as err:
            RatFunc(p2) * RatFunc(p3)
        assert (err.value.q1, err.value.q2) == (2, 3)


# -- Henrici arithmetic: results built from gcds of the operands' factors ---------------


def _draw_poly(rng, field, low, high, monic=False):
    """A polynomial of degree low..high with small coefficients over Q or Q(sqrt 5)."""
    def const():
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return FieldConstant.of(a) if field == 0 else FieldConstant(a, Fraction(rng.randint(-3, 3), 2), 5)

    n = rng.randint(low, high)
    cs = [const() for _ in range(n)] + [ONE if monic else const()]
    return Poly(cs) if not cs[-1].is_zero else Poly(cs[:-1] + [ONE])


def _henrici_operands(rng, field):
    """(f, g) in normal form over one field, from one of five strata with shared
    factors: h and k cross over (f = a*h/(b*k**e), g = c*k/(d*h)), h and k are
    shared by the numerators and the denominators (g = c*h/(d*k)), k is a
    repeated or a shared denominator factor, g cancels f's pole k in f + g, or
    no factor is forced."""
    a, b, c, d = (_draw_poly(rng, field, 0, 2) for _ in range(4))
    h, k = (_draw_poly(rng, field, 1, 1, monic=True) for _ in range(2))
    e = rng.randint(1, 2)
    stratum = rng.choice(["cross", "parallel", "shared", "cancel", "plain"])
    if stratum == "cross":
        return RatFunc(a * h, b * k.pow(e)), RatFunc(c * k, d * h)
    if stratum == "parallel":
        return RatFunc(a * h, b * k.pow(e)), RatFunc(c * h, d * k)
    if stratum == "shared":
        return RatFunc(a, b * k.pow(e)), RatFunc(c, d * k)
    if stratum == "cancel":  # f + g = c/d
        return RatFunc(a, b * k), RatFunc(c * b * k - a * d, d * b * k)
    return RatFunc(a, b), RatFunc(c, d)


def _gcd_degree(x: Poly, y: Poly) -> int:
    return len(reference_kernels.gcd(x.coeffs, y.coeffs)) - 1


def _branches(f: RatFunc, g: RatFunc) -> set[str]:
    """The branches f*g, f/g, f + g and f' take, read off the operands with the
    reference gcd: g1 and g2 of the product and the quotient, g and g2 of the
    sum, and gcd(den, den') of the derivative."""
    a, b, c, d = f.num, f.den, g.num, g.den
    out = set()
    if a.degree > 0 and d.degree > 0 and _gcd_degree(a, d) > 0:
        out.add("mul g1")
    if c.degree > 0 and b.degree > 0 and _gcd_degree(c, b) > 0:
        out.add("mul g2")
    if c.degree == 0 and d.degree == 0:
        out.add("div by a constant")
    elif a.degree > 0 and c.degree > 0 and _gcd_degree(a, c) > 0:
        out.add("div g1")
    if b.degree > 0 and d.degree > 0 and _gcd_degree(b, d) > 0:
        out.add("div g2")
        big = Poly(reference_kernels.gcd(b.coeffs, d.coeffs))
        t = a * d.divmod(big)[0] + c * b.divmod(big)[0]
        if t.is_zero:
            out.add("add zero")
        elif t.degree > 0 and _gcd_degree(t, big) > 0:
            out.add("add g2")
        else:
            out.add("add g only")
    elif b.degree > 0 and d.degree > 0:
        out.add("add g = 1")
    if b.degree > 1 and _gcd_degree(b, b.derivative()) > 0:
        out.add("derivative g")
    return out


_ALL_BRANCHES = {"mul g1", "mul g2", "div by a constant", "div g1", "div g2", "add zero",
                 "add g2", "add g only", "add g = 1", "derivative g"}


class TestHenriciArithmetic:
    """Every result equals the normal form that the reference Euclid gcd gives
    from the unreduced expression."""

    @pytest.mark.parametrize("field", [0, 5], ids=["Q", "Q(sqrt 5)"])
    def test_operations_match_the_reference(self, field):
        rng = random.Random(field)
        seen = set()
        for _ in range(150):
            f, g = _henrici_operands(rng, field)
            seen |= _branches(f, g) | _branches(f, -f)
            if rng.random() < 0.15:
                g = RatFunc.of(_draw_poly(rng, field, 0, 0))  # a nonzero constant
                seen |= _branches(f, g)
            a, b, c, d = f.num, f.den, g.num, g.den
            cases = [
                (f * g, a * c, b * d),
                (f + g, a * d + c * b, b * d),
                (f - g, a * d - c * b, b * d),
                (f - f, a * b - a * b, b * b),
                (f.derivative(), a.derivative() * b - a * b.derivative(), b * b),
            ]
            if not g.is_zero:
                cases.append((f / g, a * d, b * c))
            for got, num, den in cases:
                assert parts(got) == reference(num, den)
        assert seen == _ALL_BRANCHES

    @pytest.mark.parametrize("field", [0, 5], ids=["Q", "Q(sqrt 5)"])
    def test_sqrt_matches_the_reference(self, field):
        rng = random.Random(10 + field)
        for _ in range(40):
            n = _draw_poly(rng, field, 0, 3, monic=True).scale(rng.randint(1, 4))
            m = _draw_poly(rng, field, 0, 3, monic=True)
            root = reference(n, m)
            got = RatFunc(n * n, m * m).sqrt(ExtensionContext())
            assert parts(got) == root or parts(-got) == root
            # a square times a square-free s is no square, for s of odd and of even degree
            odd = _draw_poly(rng, field, 1, 1, monic=True)
            for s in (odd, odd * (odd + Poly.const(1))):
                assert RatFunc(n * n * s, m * m).sqrt() is None
                assert RatFunc(n * n, m * m * s).sqrt() is None

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
    def test_extension_clash_names_the_left_operand_first(self, op):
        # gcd(f.den, g.num) and gcd(f.num, g.den) each meet the two extensions;
        # a gcd on swapped operands would name sqrt(3) first
        f = RatFunc(Poly([ONE, ONE]), Poly([root2, ONE]))  # (z + 1)/(z + sqrt 2)
        g = RatFunc(Poly([root3, ONE]), Poly([-ONE, ONE]))  # (z + sqrt 3)/(z - 1)
        for x, y, want in ((f, g, (2, 3)), (g, f, (3, 2))):
            with pytest.raises(IncompatibleExtensionsError) as err:
                getattr(x, op)(y)
            assert (err.value.q1, err.value.q2) == want


def _counting(monkeypatch):
    """Record RatFunc.__init__ and gcd calls: (init args, gcd operand pairs)."""
    init, gcds = [], []
    original, real_gcd = RatFunc.__init__, ratfunc._cofactors

    def counting_init(self, *args):
        init.append(args)
        original(self, *args)

    def counting_gcd(a, b):
        gcds.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    monkeypatch.setattr(ratfunc, "_cofactors", counting_gcd)
    return init, gcds


def _henrici_counter_operands():
    """Rational functions with poles, repeated and shared factors, over Q and Q(sqrt 5)."""
    rng = random.Random(3)
    fs = []
    for field in (0, 5):
        for _ in range(6):
            fs.extend(_henrici_operands(rng, field))
    return fs


class TestHenriciCost:
    def test_no_constructor_call(self, monkeypatch):
        fs = _henrici_counter_operands()
        squares = [RatFunc(f.num * f.num, f.den * f.den) for f in fs[:6]]
        init, _ = _counting(monkeypatch)
        for f in fs:
            f.derivative()
            for g in fs[:8]:
                f * g
                f + g
                f - g
                if not g.is_zero:
                    f / g
        for s in squares:
            assert s.sqrt() is not None
        assert init == []
        RatFunc(fs[0].num, fs[1].den)  # the counter is live
        assert len(init) == 1

    def test_division_by_a_constant_takes_no_gcd(self, monkeypatch):
        f = RatFunc(Poly([ONE, ZERO, 3 * ONE]), Poly([root5, ONE]))  # (3z^2 + 1)/(z + sqrt 5)
        _, gcds = _counting(monkeypatch)
        for c in (3, Fraction(-2, 7), root5, RatFunc.const(1 + root5)):
            assert (f / c) * c == f  # a product with a constant takes none either
        assert gcds == []
        f / f.num  # the counter is live
        assert len(gcds) == 1

    def test_gcd_operands_stay_within_the_inputs_degrees(self, monkeypatch):
        fs = _henrici_counter_operands()
        _, gcds = _counting(monkeypatch)
        for f in fs:
            for g in fs[:8]:
                top = max(f.num.degree, f.den.degree, g.num.degree, g.den.degree)
                ops = [lambda: f * g, lambda: f + g, lambda: f - g, lambda: f.derivative()]
                if not g.is_zero:
                    ops.append(lambda: f / g)
                for op in ops:
                    gcds.clear()
                    op()
                    assert all(max(x.degree, y.degree) <= top for x, y in gcds)


@st.composite
def shift_cases(draw):
    """(p, r): p of degree -1..8 and r, each over Q or over one Q(sqrt q) for
    q in {2, 3, 5, -1}; r's parts may have 12-digit denominators."""
    q = draw(st.sampled_from([2, 3, 5, -1]))
    wide = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))

    def constants(extended, parts):
        return st.builds(lambda a, b: FieldConstant(a, b if extended else 0, q), parts, parts)

    p = draw(polys(8, constants(draw(st.booleans()), small_fractions)))
    return p, draw(constants(draw(st.booleans()), st.one_of(small_fractions, wide)))


class TestShiftOnVectors:
    @given(shift_cases())
    @example((Poly(), root2 / 3))
    @example((Poly.const(3), FieldConstant(Fraction(1, 2), Fraction(1, 3), -1)))
    @example((Poly([-2 * ONE, ZERO, ONE]), root2))
    def test_agrees_with_horner_on_polys(self, case):
        p, r = case
        assert p.shift(r) == reference_kernels.shift(p, r)
        assert canonical(p.shift(r))

    def test_no_poly_products_or_sums(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(Poly, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("__mul__", "__add__"):
            monkeypatch.setattr(Poly, name, counting(name))
        p = Poly([ONE, root5, 3 * ONE, -ONE])
        for r in (ONE / 7, root5 / 2, FieldConstant.of(Fraction(10**12 + 1, 10**12))):
            p.shift(r)
        assert calls == []
        assert (p * p + p).degree == 6  # the counters are live
        assert calls == ["__mul__", "__add__"]


class TestRepresentationEdges:
    def test_constructor_refuses_two_fields(self):
        # a constant numerator takes no gcd and a monic denominator no scaling
        for num, den, qs in [(Poly([root2]), Poly([-root3, ONE]), (2, 3)),
                             (Poly([-root3, ONE]), Poly([root2]), (3, 2))]:
            with pytest.raises(IncompatibleExtensionsError) as err:
                RatFunc(num, den)
            assert (err.value.q1, err.value.q2) == qs

    def test_two_extensions_are_incompatible(self):
        with pytest.raises(IncompatibleExtensionsError):
            Poly([root2, root3])
        p2, p3 = Poly([ONE, root2]), Poly([root3, ONE])
        for op in (Poly.__add__, Poly.__sub__, Poly.__mul__, Poly.divmod, poly_gcd):
            with pytest.raises(IncompatibleExtensionsError):
                op(p2, p3)
        with pytest.raises(IncompatibleExtensionsError):
            p2.shift(root3)

    def test_zero_polynomial(self):
        zero = Poly()
        assert zero.degree == -1 and zero.is_zero and zero.coeffs == ()
        assert (zero.a, zero.b, zero.d, zero.q) == ((), (), 1, 0)
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert Poly([ZERO, ZERO]) == zero == Poly([ONE]) - Poly([ONE])
        assert Poly([root5]) - Poly([root5]) == zero and zero * Poly([root5]) == zero

    def test_rational_results_drop_the_extension(self):
        p = Poly([root5, ONE]) * Poly([-root5, ONE])  # z^2 - 5
        assert (p.a, p.b, p.d, p.q) == ((-5, 0, 1), (), 1, 0)

    @given(poly_pairs(4))
    def test_equal_polynomials_from_different_routes_hash_equal(self, pair):
        p, q = pair
        half = FieldConstant.of(Fraction(1, 2))
        routes = [
            p,
            Poly(p.coeffs),
            (p * q).divmod(q)[0] if not q.is_zero else p,
            (p + q) - q,
            p.scale(half).scale(2 * ONE),
            -(-p),
            p.shift(half).shift(-half),
        ]
        for other in routes:
            assert other == p and hash(other) == hash(p)


# -- the printer: vectors against the FieldConstant reference ---------------------------

# rational parts that exercise the printer's shapes: unit and zero coefficients,
# signs, fractions, and integers of 40 digits
render_parts = st.one_of(
    st.sampled_from([0, 0, 1, -1]).map(Fraction),
    small_fractions,
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
)


@st.composite
def render_polys(draw):
    """(p, var): p over Q or Q(sqrt 5) with up to 7 coefficients."""
    if draw(st.booleans()):
        constants = render_parts.map(FieldConstant.of)
    else:
        constants = st.builds(lambda a, b: FieldConstant(a, b, 5), render_parts, render_parts)
    return Poly(draw(st.lists(constants, max_size=7))), draw(st.sampled_from(["z", "c1"]))


class TestRendererAgainstReference:
    @given(render_polys())
    def test_poly_to_str_equals_the_field_constant_printer(self, case):
        p, var = case
        assert poly_to_str(p, var) == reference_kernels.poly_to_str(p, var)

    def test_fixed_shapes(self):
        half = FieldConstant.of(Fraction(1, 2))
        cases = {
            "-z^3 + z": Poly([ZERO, ONE, ZERO, -ONE]),
            "-sqrt(5)*z^2 - 1": Poly([-ONE, ZERO, -root5]),
            "(1/2 - sqrt(5))*z + (1 + 1/2*sqrt(5))": Poly([ONE + half * root5, half - root5]),
            "-1/2*z^4 + 123456789012345678901234567890": Poly(
                [FieldConstant.of(123456789012345678901234567890), ZERO, ZERO, ZERO, -half]),
        }
        for text, p in cases.items():
            assert poly_to_str(p) == reference_kernels.poly_to_str(p) == text

    def test_printing_refusal_is_the_same(self):
        limit = sys.get_int_max_str_digits()
        big = FieldConstant.of(10**limit)
        for cs in ([big, ONE], [ONE, ZERO, 1 / big], [-big * root2], [ONE, big + root2]):
            p = Poly(cs)
            with pytest.raises(LimitExceededError) as got:
                poly_to_str(p)
            with pytest.raises(LimitExceededError) as want:
                reference_kernels.poly_to_str(p)
            assert str(got.value) == str(want.value)
            assert f"{limit}-digit printing limit" in str(got.value)


class TestRendererCost:
    # the gamma input of the D-poly-6 entries of perfbench/data/classify-ladder.json
    GAMMA = ("-4*z^12 - 30*z^11 - 66*z^10 - 3*z^9 + 134*z^8 + 93*z^7 - 30*z^6 - 28*z^5"
             " - 27*z^4 - 29*z^3 - 6*z^2 - 3*z - 1")

    def test_poly_to_str_builds_no_field_constant(self, monkeypatch):
        p = RatFunc.z() ** 12 * 4 - RatFunc.z() * 30 + Fraction(-1, 3)
        q = Poly([FieldConstant(Fraction(1, 2), Fraction(-3), 5), ZERO, -ONE])
        made = []
        real_trusted, real_init = field._trusted, FieldConstant.__init__

        def trusted(*args):
            made.append(args)
            return real_trusted(*args)

        def init(self, *args):
            made.append(args)
            real_init(self, *args)

        monkeypatch.setattr(field, "_trusted", trusted)
        monkeypatch.setattr(FieldConstant, "__init__", init)
        assert poly_to_str(p.num) == "4*z^12 - 30*z - 1/3"
        assert poly_to_str(q) == "-z^2 + (1/2 - 3*sqrt(5))"
        assert ratfunc_to_str(parse_ratfunc(self.GAMMA)) == self.GAMMA  # parse makes none either
        assert made == []
        # the counter is live: a coefficient handed out as a constant is one
        assert p.num[0] == FieldConstant.of(Fraction(-1, 3))
        assert len(made) == 2
