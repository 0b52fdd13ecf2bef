"""Expression parsing: grammar, precedence, errors with positions, round-trips."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merosolve import parse as parse_module, ratfunc
from merosolve.errors import (
    ExpressionSyntaxError,
    IncompatibleExtensionsError,
    LimitExceededError,
    NestedExtensionError,
    ZeroDenominatorLiteralError,
)
from merosolve.expsum import ExpSum
from merosolve.field import TRIAL_DIVISION_BOUND, FieldConstant
from merosolve.parse import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING_DEPTH,
    MAX_ORDER,
    MAX_POWER_BITS,
    MAX_POWER_SIZE,
    RESONANCE_CAP_DEFAULT,
    names_read,
    parse_constant,
    parse_expsum,
    parse_ratfunc,
)
from merosolve.ratfunc import Poly, RatFunc, ratfunc_to_str

import reference_kernels
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

    def test_decimal_digits_of_any_script(self):
        # int() reads every Unicode decimal digit; superscripts are refused below
        assert parse_constant("٣") == FieldConstant.of(3)
        assert parse_ratfunc("z^٣") == Z ** 3


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


# -- the parser against values built directly -------------------------------------------

ROOT5 = FieldConstant(Fraction(0), Fraction(1), 5)


@st.composite
def expression_trees(draw, allow_exp: bool, depth: int = 3):
    """(text, value) of a random expression: ints, z, sqrt of a constant in
    Q(sqrt 5), + - * / ^ and unary minus, and exp(c*z) when allow_exp.  Every
    node is parenthesized; value is built with RatFunc arithmetic, or with
    ExpSum arithmetic throughout when allow_exp."""
    lift = ExpSum.from_ratfunc if allow_exp else (lambda f: f)
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["int", "z", "sqrt"] + ["exp"] * allow_exp))
        if kind == "int":
            n = draw(st.integers(0, 12))
            return str(n), lift(RatFunc.const(n))
        if kind == "z":
            return "z", lift(Z)
        if kind == "sqrt":
            k, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            five = draw(st.booleans())
            c = Fraction(k, m) * ROOT5 if five else FieldConstant.of(Fraction(k, m))
            return f"sqrt({5 if five else 1}*{k}^2/{m}^2)", lift(RatFunc.const(c))
        c = draw(st.sampled_from([-2, -1, 0, 1, 2, "sqrt(5)"]))
        rate = ROOT5 if c == "sqrt(5)" else FieldConstant.of(c)
        return f"exp(({c})*z)", ExpSum.exponential(rate, 1)
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg"]))
    a_text, a = draw(expression_trees(allow_exp, depth - 1))
    if op == "neg":
        return f"-({a_text})", -a
    if op == "^":
        coeffs = [c for _, c in a.terms] if allow_exp else [a] * (not a.is_zero)
        degree = max((max(c.num.degree, c.den.degree) for c in coeffs), default=0)
        n = draw(st.integers(0, 3 if len(coeffs) < 3 and degree < 5 else 1))
        power = lift(RatFunc.const(1))
        for _ in range(n):
            power = power * a
        return f"({a_text})^{n}", power
    b_text, b = draw(expression_trees(allow_exp, depth - 1))
    if op == "/" and (b.is_zero or allow_exp and len(b.terms) > 1):
        op = "*"  # division by zero or by a sum of exponentials is an error
    text = f"({a_text}){op}({b_text})"
    if op == "+":
        return text, a + b
    if op == "-":
        return text, a - b
    if op == "*":
        return text, a * b
    if not allow_exp:
        return text, a / b
    rate, coeff = b.terms[0]
    return text, a * ExpSum.exponential(-rate, 1 / coeff)


class TestParserAgainstDirectValues:
    @given(expression_trees(allow_exp=False))
    def test_parse_ratfunc_and_constant(self, case):
        text, value = case
        assert parse_ratfunc(text) == value
        c = value.constant_value()
        if c is None:
            with pytest.raises(ExpressionSyntaxError, match="expected a constant expression"):
                parse_constant(text)
        else:
            assert parse_constant(text) == c

    @given(expression_trees(allow_exp=True))
    def test_parse_expsum(self, case):
        text, value = case
        assert parse_expsum(text) == value

    @pytest.mark.parametrize("text, value", [
        ("(z+1)*exp(2*z)/z", ExpSum.exponential(2, (Z + 1) / Z)),
        ("z - exp(z)*z^2", ExpSum.from_ratfunc(Z) + ExpSum.exponential(1, -Z * Z)),
        ("exp(z)^3", ExpSum.exponential(3, 1)),
        ("(exp(z)+z)^2", ExpSum.exponential(2, 1) + ExpSum.exponential(1, 2 * Z)
         + ExpSum.from_ratfunc(Z * Z)),
        ("1/exp(z)", ExpSum.exponential(-1, 1)),
        ("0^0", ExpSum.from_ratfunc(RatFunc.const(1))),
        ("(z-z)^3", ExpSum()),
        ("exp(z)^0", ExpSum.from_ratfunc(RatFunc.const(1))),
        ("exp(z)/exp(z) + z", ExpSum.from_ratfunc(Z + 1)),
        ("exp(z) - exp(z)", ExpSum()),
        ("sqrt(exp(z) - exp(z) + 4)*z", ExpSum.from_ratfunc(2 * Z)),
        ("exp((exp(z) - exp(z) + 2)*z)", ExpSum.exponential(2, 1)),
    ])
    def test_type_changes_mid_expression(self, text, value):
        assert parse_expsum(text) == value

    def test_rational_results_keep_their_type(self):
        assert type(parse_ratfunc("(z+1)^2/(z-1)")) is RatFunc
        assert type(parse_constant("sqrt(5)/2 + 1")) is FieldConstant
        assert type(parse_expsum("z + 1")) is ExpSum


# (function, text, error type, message, position) for every refusal of the
# parser, as the ExpSum-based parser gave them (from "z" for parse_constant
# on, as the RatFunc-based one did), so a rewrite keeps each; the nesting
# cases are built from MAX_NESTING_DEPTH = 100
_DEEP = "(" * (MAX_NESTING_DEPTH + 1) + "z" + ")" * (MAX_NESTING_DEPTH + 1)
ERROR_CASES = [
    (parse_ratfunc, "z @ 1", ExpressionSyntaxError, "unexpected character '@' (at position 2)", 2),
    (parse_ratfunc, "z z", ExpressionSyntaxError, "unexpected trailing 'z' (at position 2)", 2),
    # superscripts are digits to str.isdigit but not decimal, and int() refuses them
    (parse_ratfunc, "2¹", ExpressionSyntaxError, "unexpected character '¹' (at position 1)", 1),
    (parse_ratfunc, "1²", ExpressionSyntaxError, "unexpected character '²' (at position 1)", 1),
    (parse_ratfunc, "z^²", ExpressionSyntaxError, "unexpected character '²' (at position 2)", 2),
    # a name stops before a superscript, which is alphanumeric but neither a
    # letter nor a decimal digit
    (parse_ratfunc, "z²", ExpressionSyntaxError, "unexpected character '²' (at position 1)", 1),
    (parse_ratfunc, "z¹ + 1", ExpressionSyntaxError, "unexpected character '¹' (at position 1)", 1),
    (parse_ratfunc, "1 + ", ExpressionSyntaxError,
     "expected a value but found end of input (at position 4)", 4),
    (parse_ratfunc, "", ExpressionSyntaxError,
     "expected a value but found end of input (at position 0)", 0),
    (parse_expsum, _DEEP, LimitExceededError,
     "expression nests deeper than 100 levels (at position 101)", None),
    (parse_expsum, "sqrt(" + _DEEP[1:-1] + ")", LimitExceededError,
     "expression nests deeper than 100 levels (at position 105)", None),
    (parse_expsum, "exp(" + _DEEP[1:-1] + ")", LimitExceededError,
     "expression nests deeper than 100 levels (at position 104)", None),
    (parse_expsum, "2^1001", LimitExceededError, "exponent exceeds 1000 (at position 2)", None),
    (parse_ratfunc, "z^0001001", LimitExceededError, "exponent exceeds 1000 (at position 2)", None),
    (parse_expsum, "(z+1)^150", LimitExceededError,
     "power of size 151 exceeds 150 (at position 6)", None),
    (parse_expsum, "(exp(z)+1)^150", LimitExceededError,
     "power of size 151 exceeds 150 (at position 11)", None),
    (parse_expsum, "(exp(z)+exp(2*z)+1)^20", LimitExceededError,
     "power of size 231 exceeds 150 (at position 20)", None),
    (parse_ratfunc, "((z+1)^100)^100", LimitExceededError,
     "power of size 10001 exceeds 150 (at position 12)", None),
    (parse_expsum, "(exp(z)*z^3)^50", LimitExceededError,
     "power of size 151 exceeds 150 (at position 13)", None),
    (parse_expsum, "9999999^1000", LimitExceededError,
     "power of 1000 times 24-bit coefficients exceeds 3322 bits (at position 8)", None),
    (parse_ratfunc, "(z/8388607 + 1/8388605)^145", LimitExceededError,
     "power of 145 times 23-bit coefficients exceeds 3322 bits (at position 24)", None),
    (parse_expsum, "(exp(z)/8388607 + 1/8388605)^145", LimitExceededError,
     "power of 145 times 23-bit coefficients exceeds 3322 bits (at position 29)", None),
    (parse_expsum, "((123456789/987654321)*z+sqrt(7)/1234567)^149", LimitExceededError,
     "power of 149 times 27-bit coefficients exceeds 3322 bits (at position 42)", None),
    (parse_expsum, "(z + sqrt(999999999999989))^100", LimitExceededError,
     "power of 100 times 50-bit coefficients exceeds 3322 bits (at position 28)", None),
    (parse_ratfunc, "z + " + "9" * 1001, LimitExceededError,
     "integer literal has more than 1000 digits (at position 4)", None),
    (parse_ratfunc, "w + 1", ExpressionSyntaxError, "unknown name 'w' (at position 0)", 0),
    (parse_expsum, "exp(z) + w", ExpressionSyntaxError, "unknown name 'w' (at position 9)", 9),
    (parse_ratfunc, "(z + 1", ExpressionSyntaxError,
     "expected ')' but found end of input (at position 6)", 6),
    (parse_ratfunc, "z^x", ExpressionSyntaxError, "expected 'int' but found 'x' (at position 2)", 2),
    (parse_ratfunc, "1/0", ZeroDenominatorLiteralError,
     "division by an expression that is identically zero (at position 1)", 1),
    (parse_ratfunc, "z/(z - z)", ZeroDenominatorLiteralError,
     "division by an expression that is identically zero (at position 1)", 1),
    (parse_expsum, "exp(z)/(exp(z)-exp(z))", ZeroDenominatorLiteralError,
     "division by an expression that is identically zero (at position 6)", 6),
    (parse_expsum, "exp(z)/0", ZeroDenominatorLiteralError,
     "division by an expression that is identically zero (at position 6)", 6),
    (parse_ratfunc, "exp(z)", ExpressionSyntaxError,
     "exp(...) is not allowed in a rational function (at position 0)", 0),
    (parse_constant, "1 + exp(0*z)", ExpressionSyntaxError,
     "exp(...) is not allowed in a rational function (at position 4)", 4),
    (parse_expsum, "exp(z + 1)", ExpressionSyntaxError,
     "exp argument must be a constant multiple of z (at position 0)", 0),
    (parse_expsum, "exp(1/z)", ExpressionSyntaxError,
     "exp argument must be a constant multiple of z (at position 0)", 0),
    (parse_expsum, "exp(exp(z))", ExpressionSyntaxError,
     "exp argument must be a constant multiple of z (at position 0)", 0),
    (parse_expsum, "sqrt(exp(z))", ExpressionSyntaxError,
     "sqrt argument must be a constant (at position 0)", 0),
    (parse_constant, "2 + sqrt(z)", ExpressionSyntaxError,
     "sqrt argument must be a constant (at position 4)", 4),
    (parse_expsum, "(z+1)/(exp(z)+z)", ExpressionSyntaxError,
     "cannot divide by a sum of exponential terms (at position 5)", 5),
    (parse_constant, "sqrt(1 + sqrt(5))", NestedExtensionError,
     "1 + sqrt(5) lies in Q(sqrt(5)) and is not a square there", None),
    (parse_constant, "sqrt(2) + sqrt(3)", IncompatibleExtensionsError,
     "cannot combine values from Q(sqrt(2)) and Q(sqrt(3))", None),
    (parse_constant, "1/z", ExpressionSyntaxError,
     "expected a constant expression (at position 0)", 0),
    (parse_constant, "z", ExpressionSyntaxError,
     "expected a constant expression (at position 0)", 0),
    (parse_ratfunc, "z $ 1", ExpressionSyntaxError, "unexpected character '$' (at position 2)", 2),
    (parse_ratfunc, "z^2^2", ExpressionSyntaxError, "unexpected trailing '^' (at position 3)", 3),
    (parse_ratfunc, "z +", ExpressionSyntaxError,
     "expected a value but found end of input (at position 3)", 3),
    (parse_ratfunc, "--z", ExpressionSyntaxError,
     "expected a value but found '-' (at position 1)", 1),
    (parse_ratfunc, "(z+1", ExpressionSyntaxError,
     "expected ')' but found end of input (at position 4)", 4),
    (parse_ratfunc, "z^-1", ExpressionSyntaxError,
     "expected 'int' but found '-' (at position 2)", 2),
    (parse_ratfunc, "1/(z-z)", ZeroDenominatorLiteralError,
     "division by an expression that is identically zero (at position 1)", 1),
    (parse_ratfunc, "sqrt(z)", ExpressionSyntaxError,
     "sqrt argument must be a constant (at position 0)", 0),
    (parse_ratfunc, "sqrt(2)*sqrt(3)", IncompatibleExtensionsError,
     "cannot combine values from Q(sqrt(2)) and Q(sqrt(3))", None),
    (parse_ratfunc, "sqrt(sqrt(2))", NestedExtensionError,
     "sqrt(2) lies in Q(sqrt(2)) and is not a square there", None),
    (parse_ratfunc, "w", ExpressionSyntaxError, "unknown name 'w' (at position 0)", 0),
    (parse_ratfunc, "(z)^1000", LimitExceededError,
     "power of size 1001 exceeds 150 (at position 4)", None),
    (parse_ratfunc, "(z+1)^150", LimitExceededError,
     "power of size 151 exceeds 150 (at position 6)", None),
    (parse_ratfunc, "z^1001", LimitExceededError, "exponent exceeds 1000 (at position 2)", None),
    (parse_ratfunc, "9999999^1000", LimitExceededError,
     "power of 1000 times 24-bit coefficients exceeds 3322 bits (at position 8)", None),
    (parse_ratfunc, "1" * 1001, LimitExceededError,
     "integer literal has more than 1000 digits (at position 0)", None),
    (parse_ratfunc, _DEEP, LimitExceededError,
     "expression nests deeper than 100 levels (at position 101)", None),
    (parse_expsum, "exp(z^2)", ExpressionSyntaxError,
     "exp argument must be a constant multiple of z (at position 0)", 0),
    (parse_expsum, "1/(exp(z)+1)", ExpressionSyntaxError,
     "cannot divide by a sum of exponential terms (at position 1)", 1),
    (parse_expsum, "(exp(z) + 9)^150", LimitExceededError,
     "power of size 151 exceeds 150 (at position 13)", None),
]


class TestErrorsUnchanged:
    @pytest.mark.parametrize("parse, text, error, message, position", ERROR_CASES,
                             ids=[f"{case[0].__name__}:{case[1][:40]}" for case in ERROR_CASES])
    def test_message_and_position(self, parse, text, error, message, position):
        with pytest.raises(error) as e:
            parse(text)
        assert type(e.value) is error and str(e.value) == message
        assert getattr(e.value, "position", None) == position

    def test_bit_cap_reads_each_coefficient_reduced_on_its_own(self):
        # z/8388607 + 1/8388605 has two 23-bit denominators over a common
        # denominator of 46 bits; 144 * 23 = 3312 and 145 * 23 = 3335 bits
        p = parse_ratfunc("z/8388607 + 1/8388605").num
        assert p.d.bit_length() == 46 and p.d != 8388607 and p.d != 8388605
        assert parse_ratfunc("(z/8388607 + 1/8388605)^144").num.degree == 144
        with pytest.raises(LimitExceededError, match="power of 145 times 23-bit"):
            parse_ratfunc("(z/8388607 + 1/8388605)^145")
        assert parse_constant("(1/8388607 + sqrt(5)/8388605)^144").q == 5
        with pytest.raises(LimitExceededError, match="power of 145 times 23-bit"):
            parse_constant("(1/8388607 + sqrt(5)/8388605)^145")


class TestParserCost:
    # the D-poly-6 input of perfbench/data/classify-ladder.json (id #80)
    ALPHA = "-4*z^6 - 26*z^5 - 44*z^4 + 6*z^3 + 28*z^2 + 14*z + 2"
    BETA = "z^5 + z^4 + z^3 - 2*z^2 + 3*z"
    GAMMA = ("-4*z^12 - 30*z^11 - 66*z^10 - 3*z^9 + 134*z^8 + 93*z^7 - 30*z^6 - 28*z^5"
             " - 27*z^4 - 29*z^3 - 6*z^2 - 3*z - 1")

    def test_parse_ratfunc_builds_no_expsum(self, monkeypatch):
        built = []
        real_init = ExpSum.__init__

        def init(self, terms=()):
            built.append(terms)
            real_init(self, terms)

        monkeypatch.setattr(ExpSum, "__init__", init)
        for text in (self.ALPHA, self.BETA, self.GAMMA):
            assert ratfunc_to_str(parse_ratfunc(text)) == text
        assert parse_constant("(1 + sqrt(5))^3/2") == FieldConstant.of(8) + 4 * ROOT5
        assert built == []
        # the counter is live: parse_expsum wraps a rational result once
        parse_expsum(self.BETA)
        assert len(built) == 1

    def test_polynomial_coefficients_make_no_ratfunc_arithmetic(self, monkeypatch):
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__"):
            real = getattr(RatFunc, name)
            monkeypatch.setattr(RatFunc, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        for text in (self.ALPHA, self.BETA, self.GAMMA):
            assert ratfunc_to_str(parse_ratfunc(text)) == text
        assert calls == []
        # the counter is live: a sum with a pole adds RatFuncs
        assert ratfunc_to_str(parse_ratfunc("1/(z + 1) + 1")) == "(z + 2)/(z + 1)"
        assert calls == ["__add__"]

    def test_each_sum_builds_one_canonical_poly(self, monkeypatch):
        calls, real_poly = [], ratfunc._poly
        for module in (ratfunc, parse_module):
            monkeypatch.setattr(module, "_poly", lambda *args: calls.append("_poly")
                                or real_poly(*args), raising=False)
        for name in ("__add__", "__mul__", "pow"):
            real = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
        for text in (self.ALPHA, self.BETA, self.GAMMA):
            calls.clear()
            assert ratfunc_to_str(parse_ratfunc(text)) == text
            assert calls == ["_poly"]
        # one Poly per side, then the normal form of their quotient
        num, den = parse_ratfunc("z^3 + 2*z^2 + 24").num, parse_ratfunc("z^5").num
        calls.clear()
        RatFunc(num, den)
        normal_form = list(calls)
        calls.clear()
        f = parse_ratfunc("(z^3 + 2*z^2 + 24)/(z^5)")
        assert ratfunc_to_str(f) == "(z^3 + 2*z^2 + 24)/(z^5)"
        assert calls == ["_poly", "_poly", *normal_form]


# -- the parser against the token-object reference ---------------------------------------

# atoms of the grammar and near it: literals (one near each bit cap's base),
# z, the bound params names, unbound names (one Unicode), a name that runs
# into digits, a Unicode digit and the function names with no argument
_ATOMS = ["z"] * 6 + ["0", "1", "1", "2", "7", "12", "9999999", "8388607", "c1", "k1", "w",
                     "x_1", "é", "z2", "٣", "sqrt", "exp"]
# exponents near MAX_EXPONENT, MAX_POWER_SIZE and the bit cap (145 * 23 bits),
# with leading zeros, a Unicode digit, a name and a sign
_EXPONENTS = ["0", "1", "2", "3", "144", "145", "149", "150", "151", "999", "1000", "1001",
              "0001000", "٢", "x", "-1"]
_JUNK = ["@", "¹", "²", "$", "é", "٣", "\u00a0", "\t", "(", ")", "^", "*", "-"]
_PARAMS = {"c1": FieldConstant.of(3), "k1": FieldConstant(Fraction(0), Fraction(1), 5)}


@st.composite
def grammar_texts(draw, depth: int = 3) -> str:
    """A string from the grammar, often with no parentheses where precedence
    decides, and some literals at MAX_LITERAL_DIGITS."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 15)) == 0:
            return "9" * draw(st.sampled_from([MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1]))
        return draw(st.sampled_from(_ATOMS))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "^", "^", "()", "sqrt", "exp", "exp"]))
    a = draw(grammar_texts(depth - 1))
    if kind == "neg":
        return "-" + a
    if kind == "^":
        base = a if draw(st.booleans()) else f"({a})"
        return f"{base}^{draw(st.sampled_from(_EXPONENTS))}"
    if kind == "()":
        return f"({a})"
    if kind == "sqrt":
        return f"sqrt({a})"
    if kind == "exp":
        return f"exp({a}*z)" if draw(st.booleans()) else f"exp({a})"
    space = draw(st.sampled_from(["", " ", "  "]))
    return f"{a}{space}{kind}{space}{draw(grammar_texts(depth - 1))}"


@st.composite
def parser_inputs(draw) -> str:
    """A grammar string, sometimes nested near MAX_NESTING_DEPTH in
    parentheses, sqrt( or exp(, then sometimes cut short or given a junk
    character."""
    text = draw(grammar_texts())
    if draw(st.integers(0, 3)) == 0:
        levels = draw(st.integers(MAX_NESTING_DEPTH - 3, MAX_NESTING_DEPTH + 1))
        opener = draw(st.sampled_from(["(", "sqrt(", "exp("]))
        text = opener + "(" * (levels - 1) + text + ")" * levels
    edit = draw(st.sampled_from(["none", "none", "cut", "junk"]))
    if edit != "none" and text:
        i = draw(st.integers(0, len(text)))
        text = text[:i] if edit == "cut" else text[:i] + draw(st.sampled_from(_JUNK)) + text[i:]
    return text


def _outcome(function, *args):
    """What function(*args) gives: its value and type, or its error's type,
    message and position."""
    try:
        value = function(*args)
    except Exception as e:  # noqa: BLE001 - any error must match the reference's
        return "error", type(e), str(e), getattr(e, "position", None)
    return "value", type(value), value


# each cap from both sides, and every recorded refusal
_NEAR_CAPS = [
    *(f"{base}^{n}" for base in ("z", "(z+1)", "(1/(z+1))", "exp(z)", "(exp(z)+1)", "(exp(z)*z)")
      for n in (MAX_POWER_SIZE - 1, MAX_POWER_SIZE, MAX_POWER_SIZE + 1)),
    *(f"{base}^{n}" for base in ("2", "-2", "(z-z)", "0")
      for n in ("999", "1000", "1001", "01000")),
    *(f"(z/8388607 + 1/8388605)^{n}" for n in (144, 145)),
    *(f"(exp(z)/8388607 + 1/8388605)^{n}" for n in (144, 145)),
    # monomial bases: the size cap, the 23-bit cap, the bit cap on a base
    # that reduces from 11 bits to 8, a zero, a sign, and 500 cancelling
    # quotients whose unreduced product would pass the bit cap
    *(f"(3/7*z^2)^{n}" for n in (74, 75)),
    *(f"(z/8388607)^{n}" for n in (144, 145)),
    *(f"(1000/1024)^{n}" for n in (415, 416)),
    "(0*z)^1000", "(-z)^149", f"({'*'.join(['9/9'] * 500)})^1000",
    *(f"{opener}{'(' * (levels - 1)}z{')' * levels}" for opener in ("(", "sqrt(", "exp(")
      for levels in (MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1)),
    *("9" * n for n in (MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1)),
    "1/(exp(z)+1)", "exp(z)/exp(2*z)", "c1*exp(k1*z)/(c1 - 3)",
    *(case[1] for case in ERROR_CASES),
]


def _assert_as_the_reference(text: str) -> None:
    assert _outcome(parse_ratfunc, text) == _outcome(reference_kernels.parse_ratfunc, text)
    assert _outcome(parse_constant, text) == _outcome(reference_kernels.parse_constant, text)
    assert _outcome(parse_expsum, text, _PARAMS) == _outcome(
        reference_kernels.parse_expsum, text, _PARAMS)
    assert _outcome(names_read, text) == _outcome(reference_kernels.names_read, text)


class TestParserAgainstReference:
    """Each entry point gives the reference's value, or its error's type,
    message and position."""

    @settings(max_examples=400)
    @given(parser_inputs())
    def test_drawn_inputs(self, text):
        _assert_as_the_reference(text)

    @pytest.mark.parametrize("text", _NEAR_CAPS, ids=range(len(_NEAR_CAPS)))
    def test_near_the_caps(self, text):
        _assert_as_the_reference(text)


# README's "Inputs past a fixed limit" list, one bullet per entry, whitespace folded
_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_LIMIT_BULLETS = [
    " ".join(item.split())
    for item in _README[_README.index("Inputs past a fixed limit"):].split("\n\n")[1].split("\n* ")
]
# (bullet index, pattern whose one group is a figure, the constant it states)
_README_FIGURES = [
    (0, r"nested more than (\S+) levels deep", MAX_NESTING_DEPTH),
    (1, r"literal of more than (\S+) digits", MAX_LITERAL_DIGITS),
    (2, r"with `n` above (\S+),", MAX_EXPONENT),
    (2, r"plus one\) is above (\S+):", MAX_POWER_SIZE),
    (3, r"is above (\S+) \(the bits", MAX_POWER_BITS),
    (3, r"the bits of a (\S+)-digit literal", MAX_LITERAL_DIGITS),
    (4, r"the primes up to (\S+) cannot", TRIAL_DIVISION_BOUND),
    (4, r"or at most (\S+)\.", TRIAL_DIVISION_BOUND**3),
    (4, r"every integer radicand up to (\S+) works", TRIAL_DIVISION_BOUND**3),
    (5, r"`expand --cap` above (\S+);", MAX_ORDER),
    (5, r"`expand --cap` above (\S+);", RESONANCE_CAP_DEFAULT),
    (6, r"`sys.get_int_max_str_digits\(\)`, (\S+) by default", sys.int_info.default_max_str_digits),
]


def _figure(text: str) -> int:
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power) if power else int(base)


class TestReadmeLimits:
    @pytest.mark.parametrize("bullet, pattern, value", _README_FIGURES,
                             ids=[f"{i}:{value}" for i, _, value in _README_FIGURES])
    def test_figure_is_the_constant(self, bullet, pattern, value):
        match = re.search(pattern, _LIMIT_BULLETS[bullet])
        assert match, (pattern, _LIMIT_BULLETS[bullet])
        assert _figure(match[1]) == value

    def test_every_bullet_is_checked(self):
        assert _LIMIT_BULLETS[0].startswith("* parentheses")
        assert {i for i, _, _ in _README_FIGURES} == set(range(len(_LIMIT_BULLETS)))
