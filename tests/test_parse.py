"""Expression parsing: grammar, precedence, errors with positions, round-trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from merosolve.errors import (
    ExpressionSyntaxError,
    IncompatibleExtensionsError,
    LimitExceededError,
    NestedExtensionError,
    ZeroDenominatorLiteralError,
)
from merosolve.expsum import ExpSum
from merosolve.field import FieldConstant
from merosolve.parse import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING_DEPTH,
    MAX_POWER_BITS,
    MAX_POWER_SIZE,
    parse_constant,
    parse_expsum,
    parse_ratfunc,
)
from merosolve.ratfunc import RatFunc, ratfunc_to_str

from conftest import expsums, ratfuncs

Z = RatFunc.z()


class TestRatFuncGrammar:
    def test_basic_shapes(self):
        assert parse_ratfunc("z") == Z
        assert parse_ratfunc("42") == RatFunc.const(42)
        assert parse_ratfunc("(z^2+1)/(z-2)") == (Z * Z + 1) / (Z - 2)
        assert parse_ratfunc("1/2") == RatFunc.const(Fraction(1, 2))

    def test_whitespace_insignificant(self):
        assert parse_ratfunc(" z ^ 2 -  1 ") == Z * Z - 1

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_ratfunc("-z^2") == -(Z * Z)
        assert parse_ratfunc("(-z)^2") == Z * Z

    def test_term_precedence(self):
        assert parse_ratfunc("2*z+1") == 2 * Z + 1
        assert parse_ratfunc("2*(z+1)") == 2 * (Z + 1)
        assert parse_ratfunc("1/2*z") == Z / 2
        assert parse_ratfunc("z^2*z") == Z ** 3

    def test_division_chains_left(self):
        assert parse_ratfunc("8/2/2") == RatFunc.const(2)

    def test_zero_power(self):
        assert parse_ratfunc("z^0") == RatFunc.const(1)

    def test_sqrt_constant_inside(self):
        f = parse_ratfunc("sqrt(2)*z")
        root2 = FieldConstant(Fraction(0), Fraction(1), 2)
        assert f == Z * root2


class TestExpSumGrammar:
    def test_exponential_sum(self):
        x = parse_expsum("1/2*exp(2*z) - z + 3")
        expected = ExpSum.exponential(2, Fraction(1, 2)) + ExpSum.from_ratfunc(3 - Z)
        assert x == expected

    def test_unit_rates(self):
        assert parse_expsum("exp(z)") == ExpSum.exponential(1, 1)
        assert parse_expsum("exp(-z)") == ExpSum.exponential(-1, 1)

    def test_sqrt_rate(self):
        x = parse_expsum("exp(1/2*sqrt(-2) * z)")
        rate = FieldConstant(Fraction(0), Fraction(1, 2), -2)
        assert x == ExpSum.exponential(rate, 1)

    def test_division_by_single_exponential(self):
        x = parse_expsum("1/exp(z)")
        assert x == ExpSum.exponential(-1, 1)

    def test_rational_coefficient_times_exponential(self):
        x = parse_expsum("(z+1)*exp(z) + 1/(z-1)")
        assert x == ExpSum([(FieldConstant.of(1), Z + 1)]) + ExpSum.from_ratfunc(
            1 / (Z - 1)
        )

    def test_params_bind_names(self):
        params = {"c1": FieldConstant.of(3), "k1": FieldConstant.of(-2)}
        x = parse_expsum("c1 * exp(k1*z)", params=params)
        assert x == ExpSum.exponential(-2, 3)


class TestConstants:
    def test_rationals(self):
        assert parse_constant("-3/2") == FieldConstant.of(Fraction(-3, 2))
        assert parse_constant("0") == FieldConstant.of(0)

    def test_extended(self):
        assert parse_constant("1/2*sqrt(-2)") == FieldConstant(
            Fraction(0), Fraction(1, 2), -2
        )
        assert parse_constant("1 - sqrt(2)") == FieldConstant(
            Fraction(1), Fraction(-1), 2
        )

    def test_square_discriminants_collapse(self):
        assert parse_constant("sqrt(9)") == FieldConstant.of(3)
        assert parse_constant("sqrt(8)") == FieldConstant(Fraction(0), Fraction(2), 2)

    def test_non_constant_rejected(self):
        with pytest.raises(ExpressionSyntaxError, match="constant expression"):
            parse_constant("z")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_ratfunc("z @ 1")
        assert e.value.position == 2

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError, match="unexpected trailing") as e:
            parse_ratfunc("z z")
        assert e.value.position == 2

    def test_dangling_operator(self):
        with pytest.raises(ExpressionSyntaxError, match="expected a value") as e:
            parse_ratfunc("1 + ")
        assert e.value.position == 4

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError, match="expected a value"):
            parse_ratfunc("")

    def test_nesting_up_to_the_limit_parses(self):
        nested = "(" * MAX_NESTING_DEPTH + "z" + ")" * MAX_NESTING_DEPTH
        assert parse_ratfunc(nested) == RatFunc.z()

    # parentheses, sqrt( and exp( each open one nesting level
    @pytest.mark.parametrize("opener, inner", [("(", "z"), ("sqrt(", "4"), ("exp(", "z")])
    def test_one_level_past_the_limit_is_a_limit_error(self, opener, inner):
        text = opener + "(" * MAX_NESTING_DEPTH + inner + ")" * (MAX_NESTING_DEPTH + 1)
        with pytest.raises(LimitExceededError, match="deeper than 100 levels"):
            parse_expsum(text)

    @given(expsums(max_terms=2), st.integers(min_value=0, max_value=4))
    def test_power_is_repeated_multiplication(self, x, n):
        expected = ExpSum.from_ratfunc(RatFunc.const(1))
        for _ in range(n):
            expected = expected * x
        assert parse_expsum(f"({x.to_text()})^{n}") == expected

    def test_powers_at_the_caps_parse(self):
        assert parse_constant(f"2^{MAX_EXPONENT}") == FieldConstant.of(2 ** MAX_EXPONENT)
        assert parse_constant(f"2^000{MAX_EXPONENT}") == FieldConstant.of(2 ** MAX_EXPONENT)
        # (z+1)^n has size n + 1, and (exp(z)+1)^n has n + 1 constant terms
        assert parse_ratfunc(f"(z+1)^{MAX_POWER_SIZE - 1}").num.degree == MAX_POWER_SIZE - 1
        assert len(parse_expsum(f"(exp(z)+1)^{MAX_POWER_SIZE - 1}").terms) == MAX_POWER_SIZE

    @pytest.mark.parametrize("text, message", [
        (f"2^{MAX_EXPONENT + 1}", "exponent exceeds"),
        ("z^100000", "exponent exceeds"),
        ("z^" + "9" * 5000, "exponent exceeds"),  # more digits than int() converts
        (f"(z+1)^{MAX_POWER_SIZE}", "power of size"),
        (f"(exp(z)+1)^{MAX_POWER_SIZE}", "power of size"),
        ("(2*z+3)^1000", "power of size"),
        ("(z^2+z+1)^500", "power of size"),
        ("((z+1)^100)^100", "power of size 10001"),
        ("(exp(z)+exp(2*z)+1)^20", "power of size 231"),  # comb(22, 2) terms
    ])
    def test_power_over_a_cap_is_a_limit_error(self, text, message):
        with pytest.raises(LimitExceededError, match=message):
            parse_expsum(text)

    def test_powers_under_the_bit_cap_parse(self):
        assert MAX_POWER_BITS == 3322  # the bit length of a 1000-digit literal
        assert parse_constant("7^1000") == FieldConstant.of(7 ** 1000)  # 3 * 1000 bits
        # 1234567 has 21 bits: 21 * 149 = 3129
        assert parse_ratfunc("(1234567*z + 1)^149").num[149] == FieldConstant.of(1234567 ** 149)

    @pytest.mark.parametrize("text, message", [
        ("9999999^1000", "power of 1000 times 24-bit coefficients exceeds 3322 bits"),
        ("9^1000", "power of 1000 times 4-bit"),
        # 123456789/987654321 = 13717421/109739369, a 27-bit denominator
        ("((123456789/987654321)*z+sqrt(7)/1234567)^149", "power of 149 times 27-bit"),
        # the discriminant counts too: sqrt(q)^100 = q^50
        ("(z + sqrt(999999999999989))^100", "power of 100 times 50-bit"),
    ])
    def test_power_of_large_coefficients_is_a_limit_error(self, text, message):
        with pytest.raises(LimitExceededError, match=message):
            parse_expsum(text)

    def test_literal_at_the_cap_parses(self):
        digits = "9" * MAX_LITERAL_DIGITS
        assert parse_constant(f"z - z + {digits}") == FieldConstant.of(int(digits))

    @pytest.mark.parametrize("length", [MAX_LITERAL_DIGITS + 1, 5000])
    def test_longer_literal_is_a_limit_error(self, length):
        with pytest.raises(LimitExceededError, match="more than 1000 digits") as e:
            parse_ratfunc("z + " + "9" * length)
        assert "(at position 4)" in str(e.value)

    def test_unknown_name(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown name 'w'") as e:
            parse_ratfunc("w + 1")
        assert e.value.position == 0

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExpressionSyntaxError, match="end of input") as e:
            parse_ratfunc("(z + 1")
        assert e.value.position == 6

    def test_non_integer_exponent(self):
        with pytest.raises(ExpressionSyntaxError, match="expected 'int'") as e:
            parse_ratfunc("z^x")
        assert e.value.position == 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError, match="expected 'int'"):
            parse_ratfunc("z^-2")

    def test_zero_denominator_literal(self):
        with pytest.raises(ZeroDenominatorLiteralError) as e:
            parse_ratfunc("1/0")
        assert e.value.position == 1
        with pytest.raises(ZeroDenominatorLiteralError):
            parse_ratfunc("z/(z - z)")

    def test_exp_not_allowed_in_ratfunc_mode(self):
        with pytest.raises(ExpressionSyntaxError, match="not allowed") as e:
            parse_ratfunc("exp(z)")
        assert e.value.position == 0

    def test_exp_argument_must_be_linear(self):
        with pytest.raises(ExpressionSyntaxError, match="constant multiple of z"):
            parse_expsum("exp(z^2)")
        with pytest.raises(ExpressionSyntaxError, match="constant multiple of z"):
            parse_expsum("exp(z + 1)")
        with pytest.raises(ExpressionSyntaxError, match="constant multiple of z"):
            parse_expsum("exp(1/z)")

    def test_sqrt_argument_must_be_constant(self):
        with pytest.raises(ExpressionSyntaxError, match="sqrt argument") as e:
            parse_expsum("sqrt(z)")
        assert e.value.position == 0

    def test_division_by_exponential_sum(self):
        with pytest.raises(ExpressionSyntaxError, match="sum of exponential"):
            parse_expsum("1/(exp(z)+1)")

    def test_nested_extension_propagates(self):
        with pytest.raises(NestedExtensionError):
            parse_constant("sqrt(1 + sqrt(5))")

    def test_incompatible_extensions_propagate(self):
        with pytest.raises(IncompatibleExtensionsError):
            parse_constant("sqrt(2) + sqrt(3)")

    def test_position_is_in_the_message(self):
        with pytest.raises(ExpressionSyntaxError, match=r"at position 2"):
            parse_ratfunc("z @ 1")


class TestRoundTrip:
    @given(ratfuncs(max_degree=6))
    def test_ratfunc_render_parse_identity(self, f):
        assert parse_ratfunc(ratfunc_to_str(f)) == f

    @given(expsums())
    def test_expsum_render_parse_identity(self, x):
        assert parse_expsum(x.to_text()) == x

    def test_extended_coefficients_round_trip(self):
        c = FieldConstant(Fraction(1), Fraction(1), 5)
        x = ExpSum([(FieldConstant.of(2), RatFunc.const(c))])
        assert parse_expsum(x.to_text()) == x

    def test_extended_rate_round_trips(self):
        rate = FieldConstant(Fraction(0), Fraction(-1, 2), -2)
        x = ExpSum.exponential(rate, 1)
        assert parse_expsum(x.to_text()) == x
