"""Exact constant field Q(sqrt(q)): axioms, square roots, extension budget."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from merosolve import field
from merosolve.errors import (
    DivisionByZeroError,
    IncompatibleExtensionsError,
    LimitExceededError,
    NestedExtensionError,
    UnsupportedExtensionError,
)
from merosolve.field import (
    TRIAL_DIVISION_BOUND,
    ExtensionContext,
    FieldConstant,
    format_constant,
    sqrt_constant,
    square_free_decomposition,
)

import reference_kernels
from conftest import (
    extended_constants,
    nonzero_extended_constants,
    rational_constants,
)


class TestNormalization:
    def test_square_discriminant_collapses(self):
        c = FieldConstant(Fraction(1), Fraction(2), 9)
        assert c.q == 0 and c.a == 7  # 1 + 2*sqrt(9) = 7

    def test_square_factor_extracted(self):
        c = FieldConstant(Fraction(0), Fraction(1), 8)
        assert c.q == 2 and c.b == 2  # sqrt(8) = 2*sqrt(2)

    def test_zero_b_collapses(self):
        assert FieldConstant(Fraction(3), Fraction(0), 7).q == 0

    def test_square_free_decomposition(self):
        assert square_free_decomposition(8) == (2, 2)
        assert square_free_decomposition(1) == (1, 1)
        assert square_free_decomposition(-18) == (3, -2)
        assert square_free_decomposition(0) == (1, 0)


def _square_free_by_sympy(n: int) -> tuple[int, int]:
    import sympy

    s, m = 1, 1 if n > 0 else -1
    for prime, e in sympy.factorint(abs(n)).items():
        s *= prime ** (e // 2)
        m *= prime ** (e % 2)
    return s, m


class TestBoundedSquareFree:
    """Trial division stops at TRIAL_DIVISION_BOUND = 10**5; what is left is
    a square, square-free (at most 10**15), or refused."""

    @given(st.integers(min_value=-10**15, max_value=10**15).filter(bool))
    def test_exact_up_to_ten_to_the_fifteen(self, n):
        assert square_free_decomposition(n) == _square_free_by_sympy(n)

    @pytest.mark.parametrize("n", [
        10**12 + 39,                        # a prime
        100003 * 1000003,                   # two primes above the bound
        8 * 3 * 100003**2,                  # a square of a prime above the bound
        7 * (100003 * 1000003) ** 2,        # a square cofactor above 10**15
        2**200 * 3**7,                      # only small primes
        -(10**15 - 11),
    ])
    def test_cofactors_past_the_bound(self, n):
        assert square_free_decomposition(n) == _square_free_by_sympy(n)

    @pytest.mark.parametrize("n", [
        1000000007 * 1000000009,
        100003**2 * 100019,                 # not square-free, and above 10**15
        2**64 * (10**16 + 61),
    ])
    def test_undecided_cofactor_is_a_limit_error(self, n):
        with pytest.raises(LimitExceededError, match="trial division"):
            square_free_decomposition(n)
        with pytest.raises(LimitExceededError):
            sqrt_constant(FieldConstant.of(n))


_BRUTE_FORCE = reference_kernels.square_free_decomposition


def _primes(low: int, high: int) -> list[int]:
    return [n for n in range(max(low, 2), high) if all(n % d for d in range(2, math.isqrt(n) + 1))]


class TestTrialDivisionStopsAtTheCubeRoot:
    """Trial division ends once p**3 exceeds the cofactor: what is left then
    has at most two prime factors, each at least p, so it is a square or
    square-free.  Checked against unbounded trial division, and near
    TRIAL_DIVISION_BOUND, where that is slow, against factors built in."""

    def test_every_small_integer(self):
        for n in range(-3000, 3000):
            assert square_free_decomposition(n) == _BRUTE_FORCE(n)

    # p > (p*q)**(1/3) exactly when q < p**2: two primes above the cube root
    @pytest.mark.parametrize("p", _primes(990, 1010))
    def test_semiprimes_above_the_cube_root(self, p):
        for q in _primes(p, p + 60) + _primes(p * p - 100, p * p):
            for n in (p * q, -6 * p * q, 4 * p * q, 45 * p * q):
                assert square_free_decomposition(n) == _BRUTE_FORCE(n)

    @given(st.lists(st.sampled_from(_primes(2, 60) + _primes(1000, 1040)), max_size=4),
           st.sampled_from([-1, 1]))
    def test_products_of_small_and_cube_root_primes(self, factors, sign):
        n = sign * math.prod(factors)
        assert square_free_decomposition(n) == _BRUTE_FORCE(n)

    # primes on both sides of the bound: two of them, or one squared, times a
    # cofactor of small primes, are decided; three, or a square and one more,
    # are past 10**15 and decided only when trial division reaches p
    @pytest.mark.parametrize("p", _primes(99900, 100000)[-3:] + _primes(100000, 100100)[:3])
    def test_primes_near_the_bound(self, p):
        q, r = _primes(p + 1, p + 100)[:2]
        for c, s in ((1, 1), (-1, 1), (6, 1), (-28, 2), (9, 3)):
            assert square_free_decomposition(c * p * q) == (s, c // s**2 * p * q)
            assert square_free_decomposition(c * p * p) == (s * p, c // s**2)
        if p < TRIAL_DIVISION_BOUND:
            assert square_free_decomposition(p * q * r) == (1, p * q * r)
            assert square_free_decomposition(p * p * q) == (p, q)
            return
        for n in (p * q * r, p * p * q):
            with pytest.raises(LimitExceededError, match="trial division"):
                square_free_decomposition(n)


class TestFieldAxioms:
    @given(extended_constants, extended_constants, extended_constants)
    def test_add_associative_commutative(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x

    @given(extended_constants, extended_constants, extended_constants)
    def test_mul_associative_commutative(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(extended_constants, extended_constants, extended_constants)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(extended_constants)
    def test_additive_identity_inverse(self, x):
        zero = FieldConstant.of(0)
        assert x + zero == x
        assert x + (-x) == zero

    @given(nonzero_extended_constants)
    def test_multiplicative_inverse(self, x):
        one = FieldConstant.of(1)
        assert x * x.inverse() == one
        assert x * (1 / x) == one

    @given(nonzero_extended_constants, extended_constants)
    def test_division_roundtrip(self, x, y):
        assert (y / x) * x == y

    @given(extended_constants)
    def test_negative_power(self, x):
        if not x.is_zero:
            assert x ** -2 == (x * x).inverse()
        assert x ** 0 == FieldConstant.of(1)

    @given(extended_constants, extended_constants)
    def test_conjugation_is_a_field_automorphism(self, x, y):
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x
        assert (x.conjugate() == x) == x.is_rational
        c = x.conjugate()
        assert _parts(c) == _parts(FieldConstant(c.a, c.b, c.q))
        assert (c.a, c.b) == (x.a, -x.b)

    @given(extended_constants, extended_constants)
    def test_embedding_is_homomorphic(self, x, y):
        scale = max(1.0, abs(x.embed()), abs(y.embed()))
        assert abs((x + y).embed() - (x.embed() + y.embed())) <= 1e-14 * scale
        assert abs((x * y).embed() - x.embed() * y.embed()) <= 1e-14 * scale * scale


def _parts(c: FieldConstant) -> tuple:
    return (c.a, c.b, c.q, type(c.a), type(c.b))


def _arithmetic_results(x: FieldConstant, y: FieldConstant) -> list[FieldConstant]:
    out = [x + y, x - y, -x, x * y, x * 3, Fraction(2, 7) * y, 1 - x, x ** 2]
    if not y.is_zero:
        out += [y.inverse(), x / y, 2 / y]
    return out


constants = st.one_of(rational_constants, extended_constants)


class TestTrustedConstructor:
    """Arithmetic results skip the public constructor's canonicalisation; they
    must still be exactly what that constructor would build."""

    @given(constants, constants)
    def test_results_are_canonical(self, x, y):
        for r in _arithmetic_results(x, y):
            assert _parts(r) == _parts(FieldConstant(r.a, r.b, r.q))

    @given(rational_constants, extended_constants)
    def test_square_roots_are_canonical(self, c, x):
        for root in (sqrt_constant(c), sqrt_constant(x * x)):
            assert _parts(root) == _parts(FieldConstant(root.a, root.b, root.q))

    def test_cancellation_drops_the_extension(self):
        root5 = FieldConstant(Fraction(0), Fraction(1), 5)
        for r in (root5 - root5, root5 + (-root5), root5 * 0):
            assert (r.a, r.b, r.q) == (0, 0, 0)
        square = root5 * root5
        assert (square.a, square.b, square.q) == (5, 0, 0)
        assert square == FieldConstant.of(5)
        assert hash(square) == hash(FieldConstant.of(5))
        assert root5 * root5.inverse() == FieldConstant.of(1)

    def test_arithmetic_never_redecomposes_the_discriminant(self, monkeypatch):
        # trial division of 10**12 + 39 takes tens of milliseconds per call
        q = 10**12 + 39
        x = FieldConstant(Fraction(1), Fraction(2), q)
        y = FieldConstant(Fraction(-3, 7), Fraction(1, 5), q)
        assert x.q == y.q == q
        calls = []

        def counting(n):
            calls.append(n)
            return (1, n)

        monkeypatch.setattr(field, "square_free_decomposition", counting)
        results = [x * y, x + y, x.inverse(), x - y, -x, x / y, x * 2, x ** 3]
        assert calls == []
        assert all(r.q == q for r in results)
        # the counter is live: the public constructor still decomposes
        FieldConstant(Fraction(1), Fraction(1), q)
        assert calls == [q]


class TestMixedExtensions:
    def test_rational_and_extended_mix(self):
        r = FieldConstant.of(Fraction(1, 2))
        s = FieldConstant(Fraction(0), Fraction(1), 5)
        assert (r + s).q == 5
        assert (r * s).q == 5

    def test_incompatible_extensions_raise(self):
        a = FieldConstant(Fraction(0), Fraction(1), 2)
        b = FieldConstant(Fraction(0), Fraction(1), 3)
        with pytest.raises(IncompatibleExtensionsError):
            a + b

    def test_zero_division_raises(self):
        with pytest.raises(DivisionByZeroError):
            FieldConstant.of(1).inverse() / FieldConstant.of(0)


class TestSqrt:
    @given(rational_constants)
    def test_rational_square_roundtrip(self, c):
        root = sqrt_constant(c * c)
        assert root.q == 0
        assert root * root == c * c

    def test_extension_request(self):
        root = sqrt_constant(FieldConstant.of(2))
        assert root.q == 2
        assert root * root == FieldConstant.of(2)

    def test_negative_discriminant(self):
        root = sqrt_constant(FieldConstant.of(-4))
        assert root.q == -1
        assert root * root == FieldConstant.of(-4)

    @given(extended_constants)
    def test_extended_square_roundtrip(self, c):
        sq = c * c
        if sq.q == 0:
            return  # falls back to the rational branches above
        root = sqrt_constant(sq)
        assert isinstance(root, FieldConstant)
        assert root * root == sq

    def test_nested_extension_rejected(self):
        c = FieldConstant(Fraction(1), Fraction(1), 5)  # 1 + sqrt(5): not a square
        with pytest.raises(NestedExtensionError):
            sqrt_constant(c)


class TestExtensionContext:
    def test_adopts_single_extension(self):
        ctx = ExtensionContext()
        assert ctx.q is None
        r = ctx.sqrt(FieldConstant.of(2))
        assert r * r == FieldConstant.of(2)
        assert ctx.q == 2

    def test_same_extension_reused(self):
        ctx = ExtensionContext()
        ctx.sqrt(FieldConstant.of(2))
        r = ctx.sqrt(FieldConstant.of(8))
        assert r * r == FieldConstant.of(8)
        assert ctx.q == 2

    def test_second_extension_rejected(self):
        ctx = ExtensionContext()
        ctx.sqrt(FieldConstant.of(2))
        with pytest.raises(UnsupportedExtensionError):
            ctx.sqrt(FieldConstant.of(3))

    def test_rational_square_does_not_consume_budget(self):
        ctx = ExtensionContext()
        assert ctx.sqrt(FieldConstant.of(Fraction(9, 4))) == FieldConstant.of(Fraction(3, 2))
        assert ctx.q is None

    def test_in_field_root_of_an_extension_element_does_not_consume_budget(self):
        ctx = ExtensionContext()
        c = FieldConstant(Fraction(6), Fraction(2), 5)  # (1 + sqrt(5))^2
        r = ctx.sqrt(c)
        assert r.q == 5 and r * r == c
        assert ctx.q is None


class TestDisplay:
    def test_integers_past_the_printing_limit_are_refused(self):
        limit = sys.get_int_max_str_digits()
        big = 10**limit  # limit + 1 digits
        assert len(format_constant(FieldConstant.of(big - 1))) == limit
        for c in (FieldConstant.of(big), FieldConstant.of(Fraction(1, big)),
                  FieldConstant.of(-big), FieldConstant(Fraction(0), Fraction(big), 2)):
            with pytest.raises(LimitExceededError, match=f"{limit}-digit printing limit"):
                format_constant(c)

    def test_format_pure_rational(self):
        assert format_constant(FieldConstant.of(Fraction(-3, 2))) == "-3/2"
        assert format_constant(FieldConstant.of(0)) == "0"

    def test_format_pure_root(self):
        assert format_constant(FieldConstant(Fraction(0), Fraction(1), 2)) == "sqrt(2)"
        assert format_constant(FieldConstant(Fraction(0), Fraction(-1), 2)) == "-sqrt(2)"

    def test_format_mixed(self):
        c = FieldConstant(Fraction(-3), Fraction(1), -2)
        assert format_constant(c) == "-3 + sqrt(-2)"
        assert format_constant(FieldConstant(Fraction(1), Fraction(-1), 2)) == "1 - sqrt(2)"
        d = FieldConstant(Fraction(0), Fraction(1, 2), 2)
        assert format_constant(d) == "1/2*sqrt(2)"

    def test_integer_predicates(self):
        assert FieldConstant.of(5).is_positive_integer()
        assert not FieldConstant.of(Fraction(5, 2)).is_positive_integer()
        assert not FieldConstant.of(-5).is_positive_integer()
        assert FieldConstant.of(5).as_integer() == 5
