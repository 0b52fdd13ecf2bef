"""Exponential sums: ring laws, calculus, exact integration, expansion, text."""

from __future__ import annotations

import cmath
import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from merosolve import expsum, ratfunc
from merosolve.cli import main
from merosolve.errors import IncompatibleExtensionsError, NearPoleError
from merosolve.expsum import (
    ExpSum,
    ObstructionReport,
    guarded_sample_points,
    integrate_exp,
    numeric_residual_bound_ok,
    residual,
    spot_check,
)
from merosolve.field import ONE, ZERO, FieldConstant
from merosolve.parse import parse_expsum, parse_ratfunc
from merosolve.ratfunc import Poly, RatFunc

import reference_kernels
from conftest import (
    expsums,
    extended_constants,
    nonzero_extended_constants,
    nonzero_polys,
    nonzero_rational_constants,
    polynomial_expsums,
    polys,
    rational_constants,
)

Z = RatFunc.z()
RF0 = RatFunc(Poly())


def exp_of(rate, coeff=1) -> ExpSum:
    return ExpSum.exponential(rate, coeff)


class TestRingLaws:
    @given(expsums(), expsums())
    def test_addition_commutes(self, x, y):
        assert x + y == y + x

    @given(expsums(), expsums())
    def test_multiplication_commutes(self, x, y):
        assert x * y == y * x

    @given(expsums(max_terms=2), expsums(max_terms=2), expsums(max_terms=2))
    def test_multiplication_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(expsums(max_terms=2), expsums(max_terms=2), expsums(max_terms=2))
    def test_distributive_law(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(expsums())
    def test_additive_inverse(self, x):
        assert (x - x).is_zero

    @given(expsums())
    def test_canonical_form_is_sorted_and_clean(self, x):
        keys = [r.sort_key() for r, _ in x.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(not c.is_zero for _, c in x.terms)


class TestCalculus:
    @given(expsums(max_terms=2), expsums(max_terms=2))
    def test_derivative_product_rule(self, x, y):
        assert (x * y).derivative() == x.derivative() * y + x * y.derivative()

    @given(expsums(), expsums())
    def test_derivative_additive(self, x, y):
        assert (x + y).derivative() == x.derivative() + y.derivative()

    def test_derivative_of_exponential(self):
        x = exp_of(3, Z)  # z * exp(3z)
        assert x.derivative() == ExpSum([(FieldConstant.of(3), 3 * Z + 1)])

    @given(polynomial_expsums())
    def test_integrate_then_differentiate(self, x):
        for r, c in x.terms:
            s = integrate_exp(c, r)
            assert s.derivative() + s * r == c


class TestIntegrateExp:
    def test_simple_pole_obstruction(self):
        out = integrate_exp(1 / Z, ONE)
        assert isinstance(out, ObstructionReport)
        assert out.offending_pole == ZERO
        assert out.residue_coefficient == ONE
        assert "logarithmic obstruction" in out.describe()

    def test_rate_zero_simple_pole_obstruction(self):
        out = integrate_exp(1 / (Z - 2), ZERO)
        assert isinstance(out, ObstructionReport)
        assert out.offending_pole == FieldConstant.of(2)

    def test_order_two_pole_integrates(self):
        # int exp(2z)*(2/z - 1/z^2) dz = exp(2z)/z
        out = integrate_exp(2 / Z - 1 / (Z * Z), FieldConstant.of(2))
        assert out == 1 / Z
        assert out.derivative() + out * 2 == 2 / Z - 1 / (Z * Z)

    def test_rate_zero_polynomial_and_high_poles(self):
        # int (3z^2 + 1/z^3) dz = z^3 - 1/(2 z^2)
        out = integrate_exp(3 * Z * Z + 1 / Z ** 3, ZERO)
        expected = Z ** 3 - RatFunc.const(Fraction(1, 2)) / (Z * Z)
        assert out == expected
        assert out.derivative() == 3 * Z * Z + 1 / Z ** 3

    def test_order_k_pole_closed_form(self):
        # int c/(z - r)^k dz = -c/(k-1) * (z - r)^(1-k) for k >= 2
        c, r, k = FieldConstant.of(6), FieldConstant.of(1), 4
        out = integrate_exp(RatFunc(Poly.const(c), Poly((-r, ONE)).pow(k)), ZERO)
        expected = RatFunc(Poly.const(-c / (k - 1)), Poly((-r, ONE)).pow(k - 1))
        assert out == expected
        assert out.derivative() == RatFunc(Poly.const(c), Poly((-r, ONE)).pow(k))

    def test_polynomial_times_exponential(self):
        # int z*exp(z) dz = (z - 1)*exp(z)
        out = integrate_exp(Z, ONE)
        assert out == Z - 1
        assert out.derivative() + out == Z

    def test_cancelling_residues_integrate(self):
        # After parts the accumulated order-1 coefficient can vanish:
        # coeff = 1/z^2 - rate/z with rate = 2 integrates cleanly.
        out = integrate_exp(1 / (Z * Z) - 2 / Z, FieldConstant.of(2))
        assert not isinstance(out, ObstructionReport)
        assert out.derivative() + out * 2 == 1 / (Z * Z) - 2 / Z


class TestObstructionNaming:
    @pytest.mark.parametrize("field", [None, 2])
    def test_naming_finds_the_poles_in_the_field(self, field):
        # the poles +-sqrt(2) lie in any field naming may open, and in Q(sqrt(2))
        out = integrate_exp(1 / (Z * Z - 2), -ONE, field)
        root2 = FieldConstant(Fraction(0), Fraction(1), 2)
        assert out == ObstructionReport(-root2, -ONE, -root2 / 4)

    def test_naming_in_another_field_names_the_factor(self):
        out = integrate_exp(1 / (Z * Z - 2), -ONE, 3)
        assert out == ObstructionReport(Poly.z().pow(2) - Poly.const(2), -ONE, None)

    def test_a_factor_with_no_root_in_the_field_is_named(self):
        # at rate 0 the double pole at 1 has no residue, so the obstruction lies
        # at the roots of z^3 - 2
        out = integrate_exp(1 / (Z**3 - 2) - 1 / (Z - 1) ** 2, ZERO)
        assert out == ObstructionReport(Poly.z().pow(3) - Poly.const(2), ZERO, None)
        assert out.describe() == "logarithmic obstruction at the roots of z^3 - 2 on rate 0"

    def test_a_pole_of_the_field_is_named_before_a_factor(self):
        out = integrate_exp(1 / (Z**3 - 2) + 1 / (Z - 1), ZERO)
        assert (out.offending_pole, out.residue_coefficient) == (ONE, ONE)

    def test_the_named_factor_is_square_free(self):
        out = integrate_exp(1 / (Z * Z - 3) ** 2, ONE, 2)
        assert out.describe() == "logarithmic obstruction at the roots of z^2 - 3 on rate 1"


class TestIntegrableRates:
    # the residue of coeff*exp(a*z) at a pole z0 is exp(a*z0) times
    # sum_k c_k*a**(k-1)/(k-1)!, c_k the coefficient of (z - z0)**(-k)

    def test_a_polynomial_integrates_at_every_rate(self):
        assert expsum.integrable_rates(Z * Z + 1) is None

    def test_a_simple_pole_integrates_at_no_rate(self):
        assert expsum.integrable_rates(1 / (Z**3 - Z + 3)) == (Poly.const(1), False)

    def test_a_double_pole_allows_the_rate_that_clears_its_residue(self):
        # 1/z + 1/z^2: residue 1 + a, so g = a + 1; at a = 0 the residue is 1
        assert expsum.integrable_rates(1 / Z + 1 / (Z * Z)) == (Poly((ONE, ONE)), False)
        # 1/z^2: residue a, so g = 1 once the factor a goes, and a = 0 integrates
        assert expsum.integrable_rates(1 / (Z * Z)) == (Poly.const(1), True)


@st.composite
def pole_integrands(draw):
    """A polynomial of degree <= 2 plus up to three rational poles of order 1-3."""
    f = RatFunc(draw(polys(2)))
    for pole in draw(st.lists(st.integers(-3, 3), max_size=3, unique=True)):
        order = draw(st.integers(1, 3))
        cs = draw(st.lists(rational_constants, min_size=order - 1, max_size=order - 1))
        cs.append(draw(nonzero_rational_constants))
        linear = Poly((FieldConstant.of(-pole), ONE))
        for k, c in enumerate(cs, 1):
            f = f + RatFunc(Poly.const(c), linear.pow(k))
    return f


integration_rates = st.sampled_from([0, 1, -2, Fraction(1, 2)]).map(FieldConstant.of)


class TestIntegrateExpPoles:
    @given(pole_integrands(), integration_rates)
    def test_antiderivative_differentiates_back(self, coeff, rate):
        out = integrate_exp(coeff, rate)
        if not isinstance(out, ObstructionReport):
            assert out.derivative() + out * rate == coeff

    @given(pole_integrands(), integration_rates)
    def test_removing_the_reported_residue_lifts_the_obstruction(self, coeff, rate):
        out, last = integrate_exp(coeff, rate), None
        while isinstance(out, ObstructionReport):
            pole = out.offending_pole
            assert last is None or pole.sort_key() > last.sort_key()
            coeff = coeff - RatFunc(Poly.const(out.residue_coefficient), Poly((-pole, ONE)))
            out, last = integrate_exp(coeff, rate), pole
        assert out.derivative() + out * rate == coeff


@st.composite
def antiderivatives(draw):
    """(S, rate) over K = Q or Q(sqrt 5), rate 0 or nonzero in K: S a polynomial
    plus num/den, den a product of at most two factors raised to powers 1-3,
    each z - r with r in K or (not splitting) an integer cubic z^3 + a*z + b
    with no rational root, which is irreducible over K."""
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    den = Poly.const(1)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            factor = Poly((-draw(constants), ONE))
        else:
            a, b = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
                lambda ab: all(r**3 + ab[0] * r + ab[1] for r in range(-9, 10))))
            factor = Poly((FieldConstant.of(b), FieldConstant.of(a), ZERO, ONE))
        den = den * factor.pow(draw(st.integers(1, 3)))
    s = RatFunc(draw(polys(2, constants))) + RatFunc(draw(polys(3, constants)), den)
    return s, draw(st.one_of(st.just(ZERO), constants.filter(lambda c: not c.is_zero)))


@st.composite
def split_integrands(draw):
    """(coeff, rate) over K = Q or Q(sqrt 5) with one or two poles in K: a
    polynomial plus principal parts of order at most 1-3 there (mostly
    obstructed), plus S' + rate*S for an S with those poles (integrable when
    the principal parts are empty)."""
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    rate = draw(st.one_of(st.just(ZERO), constants.filter(lambda c: not c.is_zero)))
    coeff, den = RatFunc(draw(polys(2, constants))), Poly.const(1)
    for pole in draw(st.lists(constants, min_size=1, max_size=2, unique=True)):
        linear, order = Poly((-pole, ONE)), draw(st.integers(1, 3))
        den = den * linear.pow(order)
        for k, c in enumerate(draw(st.lists(constants, max_size=order)), 1):
            coeff = coeff + RatFunc(Poly.const(c), linear.pow(k))
    s = RatFunc(draw(polys(2, constants)), den)
    return coeff + s.derivative() + s * rate, rate


class TestIntegrateExpRootFree:
    @given(antiderivatives())
    def test_returns_the_rational_antiderivative(self, draw):
        s, rate = draw
        coeff = s.derivative() + s * rate
        out = integrate_exp(coeff, rate)
        assert out.derivative() + out * rate == coeff
        assert rate.is_zero or out == s  # at rate 0, up to a constant

    @given(split_integrands())
    def test_agrees_with_integration_by_parts_at_each_pole(self, draw):
        coeff, rate = draw
        out, want = integrate_exp(coeff, rate), reference_kernels.integrate_exp(coeff, rate)
        assert type(out) is type(want) and out == want  # S, or the three report fields

    @settings(max_examples=50)
    @given(antiderivatives())
    def test_integrable_rates_holds_the_rate_of_every_antiderivative(self, draw):
        s, rate = draw
        coeff = s.derivative() + s * rate
        rates = expsum.integrable_rates(coeff)
        if rates is None:
            assert coeff.den.degree == 0
        else:
            g, at_zero = rates
            assert not g[0].is_zero
            assert at_zero if rate.is_zero else reference_kernels.horner(g.coeffs, rate).is_zero

    @settings(max_examples=50)
    @given(antiderivatives())
    def test_finds_no_root_when_s_exists(self, draw):
        s, rate = draw
        calls, real = [], ratfunc.linear_roots
        with pytest.MonkeyPatch.context() as mp:
            for module in (ratfunc, expsum):
                mp.setattr(module, "linear_roots",
                           lambda *args: calls.append(args) or real(*args))
            integrate_exp(s.derivative() + s * rate, rate)
        assert calls == []


class TestLaurent:
    @given(expsums(max_terms=2, max_degree=2), expsums(max_terms=2, max_degree=2))
    def test_product_expansion_is_cauchy_product(self, x, y):
        if x.is_zero or y.is_zero:
            return
        n = 6
        ex = reference_kernels.laurent_at(x, ZERO, n)
        ey = reference_kernels.laurent_at(y, ZERO, n)
        exy = reference_kernels.laurent_at(x * y, ZERO, n)
        assert exy.p == ex.p + ey.p
        for k in range(n + 1):
            conv = sum(
                (ex.coefficients[j] * ey.coefficients[k - j] for j in range(k + 1)),
                ZERO,
            )
            assert exy.coefficients[k] == conv

    def test_zero_sum_convention(self):
        e = reference_kernels.laurent_at(ExpSum(), ZERO, 4)
        assert e.p == 0
        assert e.coefficients == tuple([ZERO] * 5)

    def test_exponential_series_at_origin(self):
        e = reference_kernels.laurent_at(exp_of(1), ZERO, 5)
        assert e.p == 0
        fact = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6),
                Fraction(1, 24), Fraction(1, 120)]
        assert [c.a for c in e.coefficients] == fact

    def test_pole_shifts_leading_power(self):
        x = ExpSum([(ONE, 1 / (Z * Z))])
        e = reference_kernels.laurent_at(x, ZERO, 3)
        assert e.p == -2
        # exp(z)/z^2 = z^-2 + z^-1 + 1/2 + z/6 + ...
        assert [c.a for c in e.coefficients] == [
            Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)
        ]

    def test_nonzero_rate_away_from_origin_raises(self):
        x = exp_of(1)
        with pytest.raises(reference_kernels.TranscendentalShift):
            reference_kernels.laurent_at(x, FieldConstant.of(2), 3)

    def test_rate_zero_part_expands_anywhere(self):
        x = ExpSum.from_ratfunc(1 / (Z - 1))
        e = reference_kernels.laurent_at(x, FieldConstant.of(1), 3)
        assert e.p == -1 and e.coefficients[0] == ONE


class TestNumeric:
    def test_eval_matches_closed_form(self):
        x = exp_of(1) + exp_of(-1)  # 2*cosh(z)
        z = 0.3 + 0.7j
        assert abs(x.eval_complex(z) - 2 * cmath.cosh(z)) < 1e-12

    def test_eval_ratfunc_coefficient(self):
        x = ExpSum([(ONE, 1 / (Z - 1))])
        z = 2.0 + 0j
        assert abs(x.eval_complex(z) - cmath.exp(z) / (z - 1)) < 1e-12

    def test_near_pole_guard(self):
        x = ExpSum.from_ratfunc(1 / Z)
        with pytest.raises(NearPoleError):
            x.eval_complex(1e-9 + 0j)

    @pytest.mark.parametrize("m", [3, 4])
    def test_multiple_pole_is_guarded(self, m):
        # a float root finder on (z - 2/5)^m scatters the root by about
        # eps^(1/m), which is more than the guard
        x = ExpSum.from_ratfunc(1 / (Z - Fraction(2, 5)) ** m)
        with pytest.raises(NearPoleError):
            x.eval_complex(0.4)

    def test_guarded_points_deterministic_and_guarded(self):
        alpha, beta, gamma = RatFunc.const(2), RF0, RF0
        w = exp_of(1) + exp_of(-1) + ExpSum.from_ratfunc(2)
        pts = guarded_sample_points(alpha, beta, gamma, w)
        assert pts == guarded_sample_points(alpha, beta, gamma, w)
        assert len(pts) == 20
        assert all(abs(z) <= 2.0 for z in pts)

    def test_numeric_residual_check(self):
        alpha, beta, gamma = RatFunc.const(2), RF0, RF0
        w = exp_of(1) + exp_of(-1) + ExpSum.from_ratfunc(2)
        assert residual(alpha, beta, gamma, w).is_zero
        pts = guarded_sample_points(alpha, beta, gamma, w)
        assert numeric_residual_bound_ok(alpha, beta, gamma, w, pts)
        # and a wrong candidate fails the same bound
        bad = w + ExpSum.from_ratfunc(1)
        assert not numeric_residual_bound_ok(alpha, beta, gamma, bad, pts)

    def test_spot_check_rule(self):
        # |w|^2 = 9, so the bound is SPOT_CHECK_TOL * 10 and is met with equality
        w = ExpSum.from_ratfunc(3)
        bound = expsum.SPOT_CHECK_TOL * 10
        assert spot_check(lambda z: bound, w, 0.5) == (bound, bound, True)
        assert spot_check(lambda z: 1j * bound, w, 0.5)[2]
        assert not spot_check(lambda z: bound * 1.01, w, 0.5)[2]

        def overflows(z):
            raise OverflowError

        # an overflow in the value or in the bound propagates
        with pytest.raises(OverflowError):
            spot_check(overflows, w, 0.5)
        with pytest.raises(OverflowError):
            spot_check(lambda z: 0, ExpSum.from_ratfunc(10**200), 0.5)

    @pytest.mark.parametrize("rate", [1000, 400])
    def test_overflowing_points_fail_the_numeric_check(self, rate):
        # exp(rate*z) solves the all-zero equation exactly; where w or its
        # bound overflows the spot check raises, so no such point is sampled
        w = exp_of(rate)
        r = residual(RF0, RF0, RF0, w)
        assert r.is_zero
        with pytest.raises(OverflowError):
            spot_check(r.eval_complex, w, 1.9)
        pts = guarded_sample_points(RF0, RF0, RF0, w)
        assert len(pts) == 20
        checks = [spot_check(r.eval_complex, w, z) for z in pts]
        assert all(ok and bound < cmath.inf for _, bound, ok in checks)
        assert numeric_residual_bound_ok(RF0, RF0, RF0, w, [0.001 + 0j])

    def test_numeric_check_skips_a_non_finite_residual(self):
        # at one guarded point w*w'' of exp(400*z) is nan-infj, with no
        # OverflowError; the exact solution passes and a non-solution still fails
        w = exp_of(400)
        pts = guarded_sample_points(RF0, RF0, RF0, w)
        assert numeric_residual_bound_ok(RF0, RF0, RF0, w, pts)
        bad = exp_of(2) + ExpSum.from_ratfunc(1)
        assert not numeric_residual_bound_ok(RF0, RF0, RF0, bad,
                                             guarded_sample_points(RF0, RF0, RF0, bad))


# (z - 1) and (z - 1)^2 repeat a factor; z^2 + 1 does not split over Q
gate_denominators = st.sampled_from([RatFunc.const(1), Z - 1, (Z - 1) ** 2, Z + 2, Z * Z + 1])
gate_coefficients = st.builds(lambda p, d: RatFunc(p) / d, nonzero_polys(2), gate_denominators)
gate_rates = st.one_of(st.just(ZERO), rational_constants, extended_constants)


@st.composite
def gate_cases(draw):
    """(alpha, beta, gamma, w, forced); when forced, gamma cancels the residual
    of a w built so that every nonzero rate of it cancels already.  Unforced
    cases take random rates, or rates whose pairwise sums collide: {0, k, 2k}
    (0 + 2k = k + k) and {k, -k, 0}, with k over Q or over Q(sqrt 5)."""
    kind = draw(st.sampled_from(["random", "colliding", "forced"]))
    if kind == "random":
        terms = st.lists(st.tuples(gate_rates, gate_coefficients), min_size=1, max_size=3,
                         unique_by=lambda term: term[0].sort_key())
        w = ExpSum(draw(terms))
        return (*(draw(gate_coefficients) for _ in range(3)), w, False)
    if kind == "colliding":
        k = draw(st.one_of(nonzero_rational_constants, nonzero_extended_constants))
        rates = draw(st.sampled_from([(ZERO, k, 2 * k), (k, -k, ZERO)]))
        w = ExpSum([(r, draw(gate_coefficients)) for r in rates])
        return (*(draw(gate_coefficients) for _ in range(3)), w, False)
    t = draw(gate_coefficients)
    t1 = t.derivative()
    t2 = t1.derivative()
    rate = draw(gate_rates)
    k = RatFunc.const(rate)
    c, d = draw(extended_constants), draw(extended_constants)
    shape = draw(st.sampled_from(["rational", "D", "two-sided"]))
    if shape == "rational":  # w = T
        terms = [(ZERO, t)]
        alpha, beta = draw(gate_coefficients), draw(gate_coefficients)
    elif shape == "D":  # w = c*exp(k*z) + T, any beta
        terms = [(rate, c), (ZERO, t)]
        beta = draw(gate_coefficients)
        alpha = k * k * t - 2 * k * t1 + t2 - k * beta
    else:  # w = c*exp(k*z) + d*exp(-k*z) + T
        terms = [(rate, c), (-rate, d), (ZERO, t)]
        alpha, beta = k * k * t + t2, -2 * t1
    w = ExpSum(terms)
    return alpha, beta, residual(alpha, beta, RF0, w).rate_zero_part(), w, True


class TestResidualIsZero:
    @given(gate_cases())
    def test_agrees_with_the_normalised_residual(self, case):
        alpha, beta, gamma, w, forced = case
        want = reference_kernels.residual(alpha, beta, gamma, w)
        assert residual(alpha, beta, gamma, w) == want
        assert want.is_zero or not forced

    @staticmethod
    def agree_over_pool(monkeypatch, capsys, pool, verbs):
        """Run the pool's entries for verbs through main, checking every gate
        call against the reference residual."""
        module = importlib.import_module("merosolve.classify")
        agreed = []

        def gate(alpha, beta, gamma, w):
            got = residual(alpha, beta, gamma, w)
            agreed.append(got == reference_kernels.residual(alpha, beta, gamma, w))
            return got

        monkeypatch.setattr(module, "residual", gate)
        data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
        entries = json.loads((data / f"{pool}.json").read_text())["entries"]
        entries = [entry for entry in entries if entry["argv"][0] in verbs]
        for entry in entries:
            assert main(entry["argv"]) == entry["exit"]
        capsys.readouterr()
        assert entries and len(agreed) >= len(entries) and all(agreed)

    def test_agrees_on_every_member_gated_for_the_classify_ladder_pool(self, monkeypatch, capsys):
        self.agree_over_pool(monkeypatch, capsys, "classify-ladder", ("classify",))

    def test_agrees_on_every_member_gated_for_the_cli_oneshot_pool(self, monkeypatch, capsys):
        # the README and acceptance fixtures: irrational and two-sided rates
        self.agree_over_pool(monkeypatch, capsys, "cli-oneshot", ("classify", "transform"))

    def test_rates_are_summed_as_integers(self, monkeypatch):
        # rates {0, k, 2k} with k in Q(sqrt 5): 0 + 2k = k + k, and every pair is summed
        k = FieldConstant(Fraction(1, 2), Fraction(3, 4), 5)
        w = ExpSum([(ZERO, Z + 1), (k, 1 / (Z - 1)), (2 * k, RatFunc.const(3))])
        calls = []
        real = FieldConstant.__add__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(FieldConstant, "__add__", counting)
        monkeypatch.setattr(FieldConstant, "__radd__", counting)
        alpha, beta, gamma = RatFunc.const(2), Z, 1 / (Z + 2)
        assert not residual(alpha, beta, gamma, w).is_zero
        assert calls == []
        assert k + k == 2 * k and len(calls) == 1  # the counter is live

    def test_interleaved_equations_each_agree(self):
        # one tail T with the same D = (z - 1)**2*(z + 2) in both members, and
        # two equations, so a memo answering for the other one would show
        t = Z + 3 / ((Z - 1) ** 2 * (Z + 2))
        t1 = t.derivative()
        alpha = t1.derivative() - 2 * t1 + t
        gamma = t * t1.derivative() - t1 * t1 - alpha * t
        equations = [(alpha, RF0, gamma), (alpha + 1, Z, gamma)]
        members = [ExpSum([(ONE, RatFunc.const(c)), (ZERO, t)]) for c in (1, 2)]
        for w in members + members[::-1]:
            for a, b, g in equations + equations[::-1]:
                assert residual(a, b, g, w) == reference_kernels.residual(a, b, g, w)
        assert residual(*equations[0], members[0]).is_zero
        assert not residual(*equations[1], members[0]).is_zero

    @pytest.mark.parametrize("solution, operands", [
        ("exp(sqrt(2)*z) + exp(sqrt(3)*z)", (2, 3)),
        # the coefficient sqrt(5) meets Q(sqrt(2)) before the two rates meet
        ("sqrt(5) + sqrt(2)*exp(sqrt(2)*z) + exp(sqrt(3)*z)", (5, 2)),
    ])
    def test_two_extensions_among_the_rates(self, solution, operands):
        w = parse_expsum(solution)
        with pytest.raises(IncompatibleExtensionsError) as caught:
            residual(RF0, RF0, RF0, w)
        assert (caught.value.q1, caught.value.q2) == operands


class TestResidualGcds:
    """residual reduces each nonzero numerator once; a zero residual meets no gcd."""

    @given(gate_cases())
    def test_at_most_one_gcd_per_nonzero_rate(self, case):
        alpha, beta, gamma, w, _ = case
        calls = []
        real = ratfunc._cofactors

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratfunc, "_cofactors", counting)
            r = residual(alpha, beta, gamma, w)
        assert len(calls) <= len(r.terms)  # so a zero residual meets none

    def test_gcd_counter_is_live(self, monkeypatch):
        calls = []
        real = ratfunc._cofactors
        w = ExpSum([(ONE, RatFunc.const(2)), (ZERO, Z + 3 / ((Z - 1) ** 2 * (Z + 2)))])
        monkeypatch.setattr(ratfunc, "_cofactors", lambda a, b: calls.append(a) or real(a, b))
        r = residual(RF0, RF0, RF0, w)
        assert r.terms and len(calls) == len(r.terms)


# non-split, complex, Q(sqrt 2), Q(sqrt -3) and repeated-root denominators
DENOMINATORS = [
    "z^3 - 2",
    "z^5 - z - 1",
    "z^4 + 4",
    "100*z^6 - 7*z + 3",
    "(z - sqrt(2))*(z^3 - 2)",
    "(z - sqrt(-3))*(z^3 + 2)",
    "(z - 1)^2*(z^3 + z + 1)",
    "z^2 + z + 1",
    "(z - 2/5)^3",
]


def _known_roots(text: str) -> list[complex]:
    z = sympy.Symbol("z")
    expr = sympy.sympify(text.replace("^", "**"))
    return [complex(r) for r in sympy.Poly(sympy.sqf_part(expr), z).nroots(n=30)]


class TestPoleSet:
    @pytest.mark.parametrize("text", DENOMINATORS)
    def test_poles_are_the_distinct_roots(self, text):
        den = parse_ratfunc(text).num
        known = _known_roots(text)
        poles = expsum._pole_set(den)
        assert len(poles) == len(known)
        for pole in poles:
            assert min(abs(pole - r) for r in known) <= 1e-12
        for r in known:
            assert min(abs(pole - r) for pole in poles) <= 1e-12

    @pytest.mark.parametrize("text", DENOMINATORS)
    def test_guard_fires_within_and_not_outside(self, text):
        x = ExpSum.from_ratfunc(1 / parse_ratfunc(text))
        for r in _known_roots(text):
            with pytest.raises(NearPoleError):
                x.eval_complex(r + 1e-7)
            x.eval_complex(r + 1e-5)

    def test_poles_found_once_per_term(self, monkeypatch):
        dens = []
        pole_set = expsum._pole_set

        def counting(den):
            dens.append(den)
            return pole_set(den)

        monkeypatch.setattr(expsum, "_pole_set", counting)
        x = ExpSum([
            (ZERO, 1 / (Z ** 3 - 2)),
            (ONE, Z + 1),
            (FieldConstant.of(2), 1 / (Z ** 2 + 1) ** 2),
        ])
        for k in range(60):
            x.eval_complex(3 * cmath.exp(2j * cmath.pi * k / 60))
        assert dens == [c.den for _, c in x.terms]
        assert [d.degree for d in dens] == [3, 0, 4]


class TestText:
    def test_zero(self):
        assert ExpSum().to_text() == "0"

    def test_rate_unit_conventions(self):
        x = exp_of(-1) + ExpSum.from_ratfunc(2) + exp_of(1)
        assert x.to_text() == "(1) * exp(-z) + (2) + (1) * exp(z)"

    def test_general_rate(self):
        assert exp_of(2, 3).to_text() == "(3) * exp(2 * z)"
        half = FieldConstant.of(Fraction(-1, 2))
        assert exp_of(half).to_text() == "(1) * exp(-1/2 * z)"

    def test_ratfunc_coefficient_rendering(self):
        x = ExpSum([(ONE, 1 / (Z + 1))])
        assert x.to_text() == "((1)/(z + 1)) * exp(z)"
