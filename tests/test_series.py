"""Local series engine: leading balances, resonances, exact expansion."""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from merosolve import series
from merosolve.errors import (DivisionByZeroError, IncompatibleExtensionsError, MerosolveError,
                              NestedExtensionError, PointInPhiError)
from merosolve.expsum import ExpSum
from merosolve.field import (
    ONE,
    ZERO,
    FieldConstant,
    common_discriminant,
    format_constant,
    from_integers,
)
from merosolve.ratfunc import Poly, RatFunc, over_common_denominator, ratfunc_to_str
from merosolve.series import (
    RESONANCE_CAP_DEFAULT,
    branch_resonance,
    expand,
    expand_branches,
    leading_candidates,
)

import reference_kernels
from reference_kernels import eval_at, in_excluded_set, pole_order_at
from conftest import (
    extended_constants,
    nonzero_rational_constants,
    rational_constants,
    small_fractions,
)

Z = RatFunc.z()
RF0 = RatFunc(Poly())
_LADDER = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "classify-ladder.json"


def fc(x) -> FieldConstant:
    return FieldConstant.of(x)


class TestLeadingCandidates:
    def test_all_zero_coefficients_give_nothing(self):
        assert leading_candidates(RF0, RF0, RF0, ZERO) == []

    def test_double_zero_branch(self):
        cands = leading_candidates(RatFunc.const(2), RF0, RF0, ZERO)
        assert len(cands) == 1
        assert cands[0].p == 2 and cands[0].a0 == fc(-1)

    def test_simple_zero_branch_meets_its_side_condition_at_r_one(self):
        # gamma = 0, beta != 0: p = 1 and a0 = -beta(z0), so r = beta(z0)/a0 + 2
        # = 1, and the order-1 condition is E(z0)*(alpha(z0) + beta'(z0)) = 0
        for alpha, side in ((RatFunc.const(-1), True), (RatFunc.const(1), False)):
            cands = leading_candidates(alpha, Z + 2, RF0, ZERO)
            assert cands == [type(cands[0])(1, fc(-2))]
            assert reference_kernels.side_condition(alpha, Z + 2, ZERO) is side
            e = expand(alpha, Z + 2, RF0, ZERO, 1, fc(-2), 3)
            assert (e.resonance.r, e.resonance.index) == (ONE, 1)
            assert e.resonance.condition_satisfied is side

    def test_generic_quadratic_balance(self):
        cands = leading_candidates(RF0, RatFunc.const(-3), RatFunc.const(-4), ZERO)
        assert [(c.p, c.a0) for c in cands] == [(1, fc(4)), (1, fc(-1))]

    def test_double_root_of_leading_equation(self):
        cands = leading_candidates(RF0, RatFunc.const(2), RatFunc.const(1), ZERO)
        assert len(cands) == 1
        assert cands[0].a0 == fc(-1)
        assert cands[0].note == "double root of the leading equation"

    def test_extension_adopted_for_irrational_roots(self):
        cands = leading_candidates(RF0, RF0, RatFunc.const(-2), ZERO)
        assert {c.a0.q for c in cands} == {2}
        root2 = FieldConstant(Fraction(0), Fraction(1), 2)
        assert {c.a0 for c in cands} == {root2, -root2}

    def test_point_in_excluded_set_rejected(self):
        with pytest.raises(PointInPhiError):
            leading_candidates(Z, RF0, RatFunc.const(1), ZERO)
        with pytest.raises(PointInPhiError):
            leading_candidates(1 / Z, RF0, RatFunc.const(1), ZERO)
        # a zero of alpha and a pole of beta; gamma = 0 is ignored
        for z0 in (ONE, ZERO):
            with pytest.raises(PointInPhiError):
                leading_candidates(Z - 1, 1 / Z, RF0, z0)
        cand, = leading_candidates(Z - 1, 1 / Z, RF0, fc(5))
        assert cand.a0 == fc(Fraction(-1, 5))


class TestExpand:
    def test_needs_room_past_the_leading_block(self):
        with pytest.raises(ValueError):
            expand(RatFunc.const(2), RF0, RF0, ZERO, 2, fc(-1), 3)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            expand(RatFunc.const(2), RF0, RF0, ZERO, 2, ZERO, 6)

    def test_rejects_unbalanced_leading_data(self):
        with pytest.raises(ValueError):
            expand(RatFunc.const(2), RF0, RF0, ZERO, 2, fc(7), 6)

    def test_point_in_phi_rejected(self):
        with pytest.raises(PointInPhiError):
            expand(Z, RF0, RatFunc.const(1), ZERO, 1, ONE, 6)

    def test_double_zero_second_coefficient(self):
        # beta = gamma = 0: w = -alpha(z0)/2 (z-z0)^2 + a1 (z-z0)^3 + ...
        # with a1 = -alpha'(z0)/2; here alpha = z + 1 at z0 = 1.  beta = 0
        # makes r = beta(z0)/a0 + 2 = 2, where the slope
        # E(z0)*a0*(n + 1)*(n - 2) vanishes.  For this alpha the n = 2
        # compatibility fails (-3 a1^2 - a1 = -1/4), so the branch halts
        # right after the forced coefficients.
        e = expand(Z + 1, RF0, RF0, ONE, 2, fc(-1), 6)
        assert e.p == 2
        assert e.coefficients == (fc(-1), fc(Fraction(-1, 2)))
        assert e.resonance.r == fc(2) and e.resonance.r_is_positive_integer
        assert e.resonance.index == 2
        assert e.halted_at == 2
        assert e.resonance.condition_satisfied is False

    def test_double_zero_branch_can_satisfy_its_compatibility(self):
        # Tune alpha''(z0)/2 = 1/4 so the n = 2 condition holds and the
        # coefficient a2 becomes free: alpha = 2 + (z-1) + (z-1)^2/4.
        alpha = RatFunc.const(2) + (Z - 1) + (Z - 1) * (Z - 1) / 4
        e = expand(alpha, RF0, RF0, ONE, 2, fc(-1), 6)
        assert e.halted_at is None
        assert e.resonance.index == 2
        assert e.resonance.condition_satisfied is True
        assert e.resonance.free_coefficient_index == 2
        assert e.coefficients[2] == ZERO
        assert e.alternate_coefficients is not None
        assert e.alternate_coefficients[2] == ONE

    def test_violated_side_condition_halts_at_one(self):
        # gamma = 0, alpha(z0) + beta'(z0) = 2 != 0: resonance n = 1 fails.
        e = expand(RatFunc.const(1), Z + 1, RF0, ONE, 1, fc(-2), 6)
        assert e.halted_at == 1
        assert e.coefficients == (fc(-2),)
        assert e.resonance.index == 1
        assert e.resonance.condition_satisfied is False

    def test_satisfied_side_condition_frees_first_coefficient(self):
        e = expand(RatFunc.const(-1), Z + 2, RF0, ZERO, 1, fc(-2), 6)
        assert e.halted_at is None
        assert e.resonance.index == 1
        assert e.resonance.condition_satisfied is True
        assert e.resonance.free_coefficient_index == 1
        assert e.coefficients[1] == ZERO
        assert e.alternate_coefficients is not None
        assert e.alternate_coefficients[1] == ONE


# -- resubstitution property -----------------------------------------------------


def _maybe_coeff(draw, kind, c0, c1):
    if kind == 0:
        return RF0
    return RatFunc(Poly((fc(c0), fc(c1))))


@st.composite
def _fixtures(draw):
    nz = small_fractions.filter(lambda f: f != 0)
    out = []
    for _ in range(3):
        kind = draw(st.integers(min_value=0, max_value=2))
        out.append(_maybe_coeff(draw, kind, draw(nz), draw(small_fractions)))
    return tuple(out)


class TestResubstitution:
    @given(_fixtures())
    def test_truncated_series_kills_residual_orders(self, coeffs):
        alpha, beta, gamma = coeffs
        n = 6
        try:
            cands = leading_candidates(alpha, beta, gamma, ZERO)
        except PointInPhiError:
            return
        for cand in cands:
            e = expand(alpha, beta, gamma, ZERO, cand.p, cand.a0, n)
            w = RatFunc(Poly([ZERO] * cand.p + [c for c in e.coefficients]))
            wp = w.derivative()
            res = w * wp.derivative() - wp * wp - alpha * w - beta * wp - gamma
            if e.halted_at is None:
                need = n + 2 * cand.p - 1
            else:
                need = e.halted_at + 2 * cand.p - 2
            if res.is_zero:
                continue
            offset, cs = res.taylor_at(ZERO, need + 3)
            vanish = next(
                (offset + i for i, c in enumerate(cs) if not c.is_zero), None
            )
            if e.halted_at is None:
                assert vanish is None or vanish >= need
            else:
                assert vanish == need


# -- the resonance fixture, against a brute-force oracle --------------------------


def _oracle_branch(a0, n_max, free_value=0):
    """Order-matching with sympy: solve each series coefficient directly."""
    import sympy

    t = sympy.Symbol("t")
    beta, gamma = sympy.Integer(-3), sympy.Integer(-4)
    coeffs = [sympy.Rational(a0)]
    resonance_at = None
    condition = None
    for n in range(1, n_max + 1):
        an = sympy.Symbol("an")
        w = sum(c * t ** (1 + k) for k, c in enumerate(coeffs)) + an * t ** (1 + n)
        res = sympy.expand(
            w * sympy.diff(w, t, 2)
            - sympy.diff(w, t) ** 2
            - beta * sympy.diff(w, t)
            - gamma
        )
        eq = res.coeff(t, n)
        lin = sympy.diff(eq, an)
        const = sympy.expand(eq.subs(an, 0))
        if lin == 0:
            resonance_at = n
            condition = bool(const == 0)
            if not condition:
                break
            coeffs.append(sympy.Rational(free_value))
        else:
            coeffs.append(sympy.cancel(-const / lin))
    return coeffs, resonance_at, condition


def _records(alpha, beta, gamma, z0, order=4, cap=RESONANCE_CAP_DEFAULT):
    """Each branch's BranchResonance and the ResonanceInfo of its expansion,
    as the CLI builds them: leading_candidates, expand_branches to order, then
    branch_resonance of each expansion."""
    cands = leading_candidates(alpha, beta, gamma, z0)
    expansions = expand_branches(alpha, beta, gamma, z0, cands, order)
    return [(branch_resonance(alpha, beta, gamma, z0, cand, e, cap), e.resonance)
            for cand, e in zip(cands, expansions)]


class TestResonanceFixture:
    ALPHA, BETA, GAMMA = RF0, RatFunc.const(-3), RatFunc.const(-4)

    def test_branch_resonance_values(self):
        report = _records(self.ALPHA, self.BETA, self.GAMMA, ZERO)
        assert [b.candidate.a0 for b, _ in report] == [fc(4), fc(-1)]
        (r0, info0), (r1, info1) = report
        # r = beta(z0)/a0 + 2 exactly
        assert info0.r == fc(Fraction(5, 4)) and r0.status == "no-resonance"
        assert not info0.r_is_positive_integer
        assert info1.r == fc(5) and r1.status == "evaluated"
        assert info1.r_is_positive_integer
        assert r1.condition_satisfied is True
        assert r1.free_coefficient_index == 5

    def test_expansion_matches_oracle_default_branch(self):
        e = expand(self.ALPHA, self.BETA, self.GAMMA, ZERO, 1, fc(-1), 10)
        coeffs, res_at, cond = _oracle_branch(-1, 10, free_value=0)
        assert res_at == 5 and cond is True
        assert e.resonance.index == 5
        assert e.resonance.condition_satisfied is True
        assert len(e.coefficients) == len(coeffs)
        for mine, theirs in zip(e.coefficients, coeffs):
            assert mine.b == 0 and theirs == mine.a

    def test_alternate_continuation_matches_oracle(self):
        e = expand(self.ALPHA, self.BETA, self.GAMMA, ZERO, 1, fc(-1), 10)
        coeffs, _, _ = _oracle_branch(-1, 10, free_value=1)
        assert e.alternate_coefficients is not None
        assert e.alternate_coefficients[5] == ONE
        assert e.alternate_coefficients[10] == fc(Fraction(-6, 55))
        for mine, theirs in zip(e.alternate_coefficients, coeffs):
            assert mine.b == 0 and theirs == mine.a

    def test_non_resonant_branch_matches_oracle(self):
        import sympy

        e = expand(self.ALPHA, self.BETA, self.GAMMA, ZERO, 1, fc(4), 8)
        t = sympy.Symbol("t")
        w = sum(
            sympy.Rational(c.a) * t ** (1 + k) for k, c in enumerate(e.coefficients)
        )
        res = sympy.expand(
            w * sympy.diff(w, t, 2)
            - sympy.diff(w, t) ** 2
            + 3 * sympy.diff(w, t)
            + 4
        )
        for m in range(0, 9):
            assert res.coeff(t, m) == 0

    def test_runtime_under_a_second_at_order_twenty(self):
        start = time.perf_counter()
        expand(self.ALPHA, self.BETA, self.GAMMA, ZERO, 1, fc(-1), 20)
        expand(self.ALPHA, self.BETA, self.GAMMA, ZERO, 1, fc(4), 20)
        assert time.perf_counter() - start < 1.0


class TestResonanceStatuses:
    def test_double_zero_branch_is_evaluated_at_r_two(self):
        # beta = 0: r = beta(z0)/a0 + 2 = 2; alpha = 2 frees a_2
        (b, info), = _records(RatFunc.const(2), RF0, RF0, ZERO)
        assert (b.candidate.p, b.status, info.r, info.index) == (2, "evaluated", fc(2), 2)
        assert (b.condition_satisfied, b.free_coefficient_index) == (True, 2)
        (b, info), = _records(RatFunc.const(2), RF0, RF0, ZERO, cap=1)
        assert (b.status, info.r, b.condition_satisfied) == ("cap-exceeded", fc(2), None)

    def test_cap_exceeded_is_a_reported_outcome(self):
        report = _records(RF0, RatFunc.const(98), RatFunc.const(-99), ZERO)
        by_a0 = {b.candidate.a0: (b, info) for b, info in report}
        deep, info = by_a0[fc(1)]
        assert deep.status == "cap-exceeded"
        assert info.r == fc(100) and info.r_is_positive_integer
        assert deep.condition_satisfied is None
        other, info = by_a0[fc(-99)]
        assert other.status == "no-resonance"
        assert info.r == fc(Fraction(100, 99))

    def test_cap_is_adjustable(self):
        report = _records(RF0, RatFunc.const(98), RatFunc.const(-99), ZERO, cap=128)
        by_a0 = {b.candidate.a0: b for b, _ in report}
        assert by_a0[fc(1)].status == "evaluated"
        assert RESONANCE_CAP_DEFAULT == 64


class TestResonanceFromCallerExpansion:
    """branch_resonance reads the condition off the caller's expansion when it
    reaches order r + 2, and expands to r + 2 itself only when it does not;
    either way the record is the one an expansion past r + 2 gives."""

    # r = 5 with the condition satisfied; r = 4 with it violated (branch halts)
    FIXTURES = [
        ((RF0, RatFunc.const(-3), RatFunc.const(-4)), ZERO),
        ((RF0, RatFunc.const(-2), Z - 4), ONE),
    ]

    @pytest.mark.parametrize("coeffs, z0", FIXTURES)
    @pytest.mark.parametrize("order", range(3, 10))
    def test_same_record_at_every_order(self, monkeypatch, coeffs, z0, order):
        reports = _records(*coeffs, z0, order=12)  # past r + 2 on every branch
        assert any(r.status == "evaluated" for r, _ in reports)
        probes = []
        real = series.expand

        def counting(*args, **kwargs):
            probes.append(args[6])
            return real(*args, **kwargs)

        monkeypatch.setattr(series, "expand", counting)
        for report, info in reports:
            cand = report.candidate
            given = expand(*coeffs, z0, cand.p, cand.a0, max(order, cand.p + 2))
            probes.clear()
            assert branch_resonance(*coeffs, z0, cand, given) == report
            assert given.resonance.r == info.r
            evaluated = report.status == "evaluated"
            short = evaluated and given.truncation_order < info.r.as_integer() + 2
            assert probes == ([info.r.as_integer() + 2] if short else [])


class TestClosedFormAgreement:
    def test_expansion_matches_exact_solution_coefficients(self):
        # w = -(z + 3)^2/2 - 1 solves the fixture alpha=1, beta=0, gamma=2;
        # expand at its zero z0 = -3 + sqrt(-2) and compare exactly.
        alpha, beta, gamma = RatFunc.const(1), RF0, RatFunc.const(2)
        w = ExpSum.from_ratfunc(-(Z + 3) * (Z + 3) / 2 - 1)
        z0 = FieldConstant(Fraction(-3), Fraction(1), -2)
        es = reference_kernels.laurent_at(w, z0, 12)
        assert es.p == 1
        e = expand(
            alpha, beta, gamma, z0, 1, es.coefficients[0], 12,
            resonance_value=es.coefficients[2],
        )
        assert len(e.coefficients) == 13
        assert e.coefficients == es.coefficients

    def test_leading_candidates_cover_the_solution(self):
        alpha, beta, gamma = RatFunc.const(1), RF0, RatFunc.const(2)
        z0 = FieldConstant(Fraction(-3), Fraction(1), -2)
        cands = leading_candidates(alpha, beta, gamma, z0)
        root = FieldConstant(Fraction(0), Fraction(1), -2)
        assert {c.a0 for c in cands} == {root, -root}

    @given(st.sampled_from(["E.c", "A-quadratic"]),
           st.sampled_from([rational_constants, extended_constants]).flatmap(
               lambda cs: st.tuples(*[cs.filter(lambda c: not c.is_zero)] * 2, cs)),
           st.booleans(), st.booleans())
    def test_quadratic_family_members_through_a_zero_are_branches(self, label, consts,
                                                                    square, sign):
        # ROADMAP item 11 for the quadratic families: an E.c member
        # -(alpha/2)*(z + c1)**2 - gamma/(2*alpha) vanishes at
        # z0 = -c1 +- sqrt(-gamma)/alpha, in Q(sqrt(q)) unless -gamma is a
        # square (it is drawn one when square, and over Q(sqrt(5)) so that
        # z0 stays in the field); an A-quadratic member -(alpha/2)*(z + c2)**2 has a
        # double zero at -c2, the p = 2 balance.  The member's Taylor
        # coefficients there are one of expand's branches, the resonance at
        # index 2 met and its free coefficient pinned to the member's.
        from merosolve.classify import classify, instantiate
        from merosolve.field import sqrt_constant

        av, root, c = consts
        if label == "E.c":
            gv = -root * root if square or av.q or root.q else root
            root = sqrt_constant(-gv)
            z0 = -c + (root if sign else -root) / av
        else:
            gv, z0 = ZERO, -c
        alpha, gamma = RatFunc.const(av), RatFunc.const(gv)
        fam, = [f for f in classify(alpha, RF0, gamma).families if f.case_label == label]
        (name, _), = fam.generic_assignment
        member = reference_kernels.laurent_at(instantiate(fam, {name: c}), z0, 8)
        a = member.coefficients
        cand, = [k for k in leading_candidates(alpha, RF0, gamma, z0)
                 if (k.p, k.a0) == (member.p, a[0])]
        e = expand(alpha, RF0, gamma, z0, cand.p, cand.a0, 8)
        assert (e.resonance.index, e.resonance.condition_satisfied) == (2, True)
        e = expand(alpha, RF0, gamma, z0, cand.p, cand.a0, 8, resonance_value=a[2])
        assert e.halted_at is None and e.coefficients == a

    def test_ladder_family_members_through_a_point_are_branches(self):
        # ROADMAP item 11, local-global agreement: each D, E.d and E.e family
        # classify emits on the classify-ladder pool is c*U + V, U one term
        # exp(rate*z)*f and V rational.  At the first ordinary point z0 where
        # f(z0) != 0, c*exp(rate*z0) = -V(z0)/f(z0) makes the member vanish,
        # and its exact Taylor coefficients there (of the member translated
        # to 0) must be one of expand's branches at z0, its free coefficient
        # pinned to the member's, with the resonance condition met.
        from merosolve.classify import classify, instantiate
        from merosolve.parse import parse_ratfunc

        def translated(w: ExpSum, t: FieldConstant) -> ExpSum:
            return ExpSum([(r, RatFunc(f.num.shift(t), f.den.shift(t))) for r, f in w.terms])

        order, points = 8, [fc(x) for x in (1, -1, 2, -2, Fraction(1, 2), 0)]
        entries = json.loads(_LADDER.read_text())["entries"]
        seen = []
        for entry in entries:
            argv = entry["argv"]
            coeffs = [parse_ratfunc(argv[argv.index(f"--{k}") + 1])
                      for k in ("alpha", "beta", "gamma")]
            for fam in classify(*coeffs).families:
                if fam.case_label not in ("D", "E.d", "E.e"):
                    continue
                signs = {p.name: "+" for p in fam.parameters if p.kind == "sign"}
                v = instantiate(fam, {**signs, "c1": ZERO})
                (rate, f), = (instantiate(fam, {**signs, "c1": ONE}) - v).terms
                v = v.rate_zero_part()
                z0 = next(z for z in points if not in_excluded_set(*coeffs, z)
                          and not pole_order_at(f, z) and not pole_order_at(v, z)
                          and not eval_at(f, z).is_zero)
                c = -eval_at(v, z0) / eval_at(f, z0)
                w = translated(ExpSum([(rate, f * RatFunc.const(c))]) + ExpSum.from_ratfunc(v), z0)
                member = reference_kernels.laurent_at(w, ZERO, order)
                a = member.coefficients
                cand, = [k for k in leading_candidates(*coeffs, z0)
                         if (k.p, k.a0) == (member.p, a[0])]
                e = expand(*coeffs, z0, cand.p, cand.a0, order)
                free = e.resonance.index
                if free is not None:
                    assert e.resonance.condition_satisfied, (entry["id"], fam.case_label)
                    e = expand(*coeffs, z0, cand.p, cand.a0, order, resonance_value=a[free])
                assert e.halted_at is None and e.coefficients == a, (entry["id"], fam.case_label)
                seen.append((fam.case_label, free is not None, z0.is_zero))
        assert {label for label, _, _ in seen} == {"D", "E.d", "E.e"}
        assert (True, False) in {k[1:] for k in seen} and len(seen) >= 50


# -- one residual pass per order, against the two-evaluation definition ------------


def _direct_residual(m, a, p, al, be, ga):
    """Order-m coefficient of w*w'' - (w')**2 - alpha*w - beta*w' - gamma for
    w = sum a[k] zeta**(p+k): the plain convolution over ordered pairs."""
    t = ZERO
    s = m - 2 * p + 2
    for i in range(len(a)):
        for j in range(len(a)):
            if i + j == s:
                t = t + a[i] * a[j] * ((p + j) * (p + j - 1) - (p + i) * (p + j))
    for i in range(len(a)):
        if 0 <= m - p - i < len(al):
            t = t - al[m - p - i] * a[i]
        if 0 <= m - p - i + 1 < len(be):
            t = t - be[m - p - i + 1] * a[i] * (p + i)
    if 0 <= m < len(ga):
        t = t - ga[m]
    return t


def _reference_pair(m, a, p, al, be, ga):
    """(base, slope) by definition: the residual at a_n = 0, and at a_n = 1
    minus that."""
    base = _direct_residual(m, a + [ZERO], p, al, be, ga)
    return base, _direct_residual(m, a + [ONE], p, al, be, ga) - base


def _shared_denominators(draw, constants, z0):
    """A coefficient num/den whose den is a product of some of three factors
    with no zero at z0, so that the coefficients' denominators share factors
    and differ; num has degree 0-2 (or is zero)."""
    zeta = Z - RatFunc.const(z0)
    factors = (zeta - 1, zeta + 2, zeta * zeta + 3)
    picks = draw(st.lists(st.sampled_from(range(3)), unique=True, max_size=3))
    num = RatFunc(Poly(draw(st.lists(constants, max_size=3))))
    return num / math.prod((factors[i] for i in picks), start=RatFunc.const(1))


@st.composite
def _cleared_orders(draw):
    """m, a, p, alpha, beta, gamma, z0: m is a balance order (m <= 2p - 2) or
    the order n + 2p - 2 where a_n, n = len(a), first enters."""
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    z0 = draw(constants)
    p = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=7))
    a = draw(st.lists(constants, min_size=n, max_size=n))
    alpha, beta, gamma = (_shared_denominators(draw, constants, z0) for _ in range(3))
    m = draw(st.sampled_from([*range(2 * p - 1), n + 2 * p - 2]))
    return m, a, p, alpha, beta, gamma, z0


def _cleared_pair(m, a, p, alpha, beta, gamma, z0):
    """(base, slope) of order m of E*R by definition, E the product of the
    coefficients' distinct denominators and R the residual: the sum over k of
    E's Taylor coefficient e_k times the two-evaluation pair at order m - k,
    all from FieldConstant Taylor lists at z0."""
    e, dens = (ONE,), []
    for f in (alpha, beta, gamma):
        if f.den.degree > 0 and f.den not in dens:
            dens.append(f.den)
            e = reference_kernels.mul(e, f.den.coeffs)
    e = reference_kernels.synthetic_shift(e, z0)
    al, be, ga = (reference_kernels.taylor_at(f, z0, m + 1)[1] for f in (alpha, beta, gamma))
    base = slope = ZERO
    for k, ek in enumerate(e[:m + 1]):
        b, s = _reference_pair(m - k, a, p, al, be, ga)
        base, slope = base + ek * b, slope + ek * s
    return base, slope


def _kernel_pair(m, a, p, alpha, beta, gamma, z0):
    """series._residual_order on the cleared Taylor lists at z0 and the
    integer view of a, its (u, v, d) triples read back as constants."""
    t = series._Taylor(alpha, beta, gamma, z0)
    prefix = series._Prefix(a, common_discriminant(a, t.q), p, len(t.ex) - 1)
    base, slope, _ = series._residual_order(m, prefix, p, t)
    return tuple(from_integers(u, v, d, prefix.q) for u, v, d in (base, slope))


class TestResidualOrder:
    @given(_cleared_orders())
    def test_base_and_slope_match_the_two_evaluations(self, data):
        assert _kernel_pair(*data) == _cleared_pair(*data)

    @given(_cleared_orders())
    def test_resonant_slope_vanishes(self, data):
        # beta + b*zeta**(p-1) moves the slope at order n + 2p - 2 by
        # e_0*(p+n)*b: tune b so that the reference slope is zero, a resonance at n
        _, a, p, alpha, beta, gamma, z0 = data
        m = len(a) + 2 * p - 2
        bump = (Z - RatFunc.const(z0)) ** (p - 1)
        slopes = [_cleared_pair(m, a, p, alpha, beta + b * bump, gamma, z0)[1] for b in (0, 1)]
        assert slopes[0] != slopes[1]
        beta = beta + RatFunc.const(-slopes[0] / (slopes[1] - slopes[0])) * bump
        base, slope = _kernel_pair(m, a, p, alpha, beta, gamma, z0)
        assert slope.is_zero
        assert (base, slope) == _cleared_pair(m, a, p, alpha, beta, gamma, z0)

    @given(st.sampled_from([rational_constants, extended_constants]).flatmap(
        lambda cs: st.lists(cs, min_size=1, max_size=9)),
        st.sampled_from([1, 2]), st.integers(min_value=0, max_value=4))
    def test_appended_window_equals_the_rebuilt_one(self, a, p, width):
        # appending a_n completes order n from its _square and rescales the
        # window when den grows; rebuilding convolves each order afresh
        q = common_discriminant(a)
        grown = series._Prefix(a[:1], q, p, width)
        for n in range(1, len(a)):
            grown.append(a[n], series._square(n, grown, p))
        rebuilt = series._Prefix(a, q, p, width)
        assert (grown.den, grown.x, grown.y, grown.window) == (
            rebuilt.den, rebuilt.x, rebuilt.y, rebuilt.window)

    @pytest.mark.parametrize("coeffs, z0", [
        ((1 / (Z + 3), Z * Z - 2, (Z + 2) / (Z * Z + 3)), ONE),
        ((RatFunc.const(1), RF0, RatFunc.const(2)), FieldConstant(Fraction(-3), Fraction(1), -2)),
        ((Z * Z * Z + 1, 3 / (Z - 2) ** 2, (Z - 1) / ((Z - 2) * (Z + 5))), fc(Fraction(1, 2))),
        # p = 2, its resonance at n = 2 met by the zeta**2 term
        (((Z - 1) / ((Z - 2) * (Z + 5)) - Fraction(49, 512) * (Z - 3) ** 2, RF0, RF0), fc(3)),
    ])
    def test_linear_part_meets_at_most_deg_plus_two_terms(self, monkeypatch, coeffs, z0):
        # every read of the shifted E*alpha list is one term of an order's linear part
        reads, per_order = [], []

        class Counted(list):
            def __getitem__(self, k):
                reads.append(k)
                return list.__getitem__(self, k)

        class Taylor(series._Taylor):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                self.ax = Counted(self.ax)

        real = series._residual_order

        def one_order(m, *args):
            reads.clear()
            out = real(m, *args)
            per_order.append(len(reads))
            return out

        monkeypatch.setattr(series, "_last_taylor", None)
        monkeypatch.setattr(series, "_Taylor", Taylor)
        monkeypatch.setattr(series, "_residual_order", one_order)
        nums, e = over_common_denominator(coeffs)
        deg = max(f.degree for f in (*nums, e))
        for cand in leading_candidates(*coeffs, z0):
            expand(*coeffs, z0, cand.p, cand.a0, 40)
        assert len(per_order) > 80 and 0 < max(per_order) <= deg + 2

    def test_one_pass_per_matched_order(self, monkeypatch):
        seen = []
        one_pass = series._residual_order

        def counting(m, *args):
            seen.append(m)
            return one_pass(m, *args)

        monkeypatch.setattr(series, "_residual_order", counting)
        order = 15
        # the a0 = 4 branch of the resonance fixture: r = 5/4, no resonance
        e = expand(RF0, RatFunc.const(-3), RatFunc.const(-4), ZERO, 1, fc(4), order)
        assert e.resonance.index is None and e.halted_at is None
        assert len(e.coefficients) == order + 1
        # orders 0 .. order + 2p - 2, each evaluated exactly once
        assert sorted(seen) == list(range(order + 1))


# -- the integer engine against the FieldConstant reference -------------------------


@st.composite
def _branches(draw, shared: bool = False):
    """alpha, beta, gamma, z0, p, a0, order with a0*(z-z0)**p a leading balance.

    Coefficients are polynomials in zeta = z - z0 plus a term with a pole
    away from z0, over Q or Q(sqrt(5)); when shared, z0 is in Q(sqrt(5)) and
    each pole term's denominator is a product of factors the coefficients
    share (_shared_denominators), so E has degree up to 12.  For p = 1 half
    the draws put the resonance r = beta(z0)/a0 + 2 at a positive integer
    inside the order; p = 2 (beta = gamma = 0) is resonant at n = 2.  A
    resonance's condition is then
    met or violated at random: meeting it moves one Taylor coefficient of gamma
    (p = 1) or alpha (p = 2) by the reference's base at that order.
    """
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    nonzero = constants.filter(lambda c: not c.is_zero)
    z0 = draw(extended_constants if shared else constants)
    zeta = Z - RatFunc.const(z0)
    p = draw(st.sampled_from([1, 2]))
    a0 = draw(nonzero)
    order = draw(st.integers(min_value=p + 2, max_value=10))

    def tail():
        if shared:
            return zeta * _shared_denominators(draw, constants, z0)
        cs = draw(st.lists(constants, min_size=2, max_size=2))
        return zeta * (RatFunc.const(cs[0]) + RatFunc.const(cs[1]) / (1 + 2 * zeta))

    if p == 2:
        alpha, beta, gamma = RatFunc.const(-2 * a0) + tail(), RF0, RF0
    else:
        alpha = draw(st.sampled_from([RF0, RatFunc.const(draw(nonzero)) + tail()]))
        if draw(st.booleans()):
            r = draw(st.integers(min_value=3, max_value=order))
            b0 = (r - 2) * a0
        else:
            b0 = draw(nonzero)
        beta = RatFunc.const(b0) + tail()
        gamma = RatFunc.const(-(a0 * a0 + b0 * a0)) + tail()
        if in_excluded_set(alpha, beta, gamma, z0):
            alpha = RF0
    coeffs, halted, _ = reference_kernels.expand(alpha, beta, gamma, z0, p, a0, order)
    if halted is not None and draw(st.booleans()):
        m = halted + 2 * p - 2
        al, be, ga = (reference_kernels.taylor_at(f, z0, m + 1)[1] for f in (alpha, beta, gamma))
        base, _ = reference_kernels.residual_order(m, list(coeffs), p, al, be, ga)
        if p == 1:
            gamma = gamma + RatFunc.const(base) * zeta ** m
        else:
            alpha = alpha + RatFunc.const(base / a0) * zeta ** 2
    return alpha, beta, gamma, z0, p, a0, order


class TestExpandAgainstReference:
    @given(_branches())
    def test_expand_equals_the_field_constant_recurrence(self, branch):
        alpha, beta, gamma, z0, p, a0, order = branch
        if in_excluded_set(alpha, beta, gamma, z0):
            return
        e = expand(alpha, beta, gamma, z0, p, a0, order)
        expected = reference_kernels.expand(alpha, beta, gamma, z0, p, a0, order)
        assert (e.coefficients, e.halted_at, e.alternate_coefficients) == expected

    @given(_branches(shared=True))
    def test_shared_denominators_at_an_irrational_point(self, branch):
        alpha, beta, gamma, z0, p, a0, order = branch
        if in_excluded_set(alpha, beta, gamma, z0):
            return
        e = expand(alpha, beta, gamma, z0, p, a0, order)
        expected = reference_kernels.expand(alpha, beta, gamma, z0, p, a0, order)
        assert (e.coefficients, e.halted_at, e.alternate_coefficients) == expected

    def test_shared_draws_cover_both_powers_and_deep_denominators(self):
        seen = set()

        @given(_branches(shared=True))
        def collect(branch):
            alpha, beta, gamma, z0, p, a0, order = branch
            if not in_excluded_set(alpha, beta, gamma, z0):
                degree = over_common_denominator((alpha, beta, gamma))[1].degree
                seen.add((p, not z0.is_rational, degree >= 4))

        collect()
        assert {(1, True, True), (2, True, True)} <= seen

    def test_draws_cover_met_and_violated_resonances(self):
        seen = set()

        @given(_branches())
        def collect(branch):
            alpha, beta, gamma, z0, p, a0, order = branch
            if not in_excluded_set(alpha, beta, gamma, z0):
                e = expand(alpha, beta, gamma, z0, p, a0, order)
                met = e.alternate_coefficients is not None
                seen.add((p, e.resonance.index is not None, met, not z0.is_rational))

        collect()
        for p in (1, 2):
            assert (p, True, True) in {k[:3] for k in seen}
            assert (p, True, False) in {k[:3] for k in seen}
        assert (1, False, False) in {k[:3] for k in seen}
        assert any(k[3] for k in seen)


class TestOrderMatchingCost:
    def test_rational_order_forty_makes_no_field_products(self, monkeypatch):
        inside, products = [], []
        real_mul, real_match = FieldConstant.__mul__, series._match_orders

        def mul(self, other):
            if inside:
                products.append(other)
            return real_mul(self, other)

        def match(*args):
            inside.append(True)
            try:
                return real_match(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(FieldConstant, "__mul__", mul)
        monkeypatch.setattr(FieldConstant, "__rmul__", mul)
        monkeypatch.setattr(series, "_match_orders", match)
        alpha = 1 / (Z + 3)
        beta = Z * Z - 2
        gamma = (Z + 2) / (Z * Z + 3)
        cands = leading_candidates(alpha, beta, gamma, ONE)
        for cand in cands:
            e = expand(alpha, beta, gamma, ONE, cand.p, cand.a0, 40)
            assert len(e.coefficients) == 41
        assert len(cands) == 2 and products == []
        # the counter sees a product made inside the loop
        inside.append(True)
        fc(2) * fc(3)
        assert len(products) == 1

    def test_matched_order_slopes_stay_small_at_order_forty(self, monkeypatch):
        # a_n meets only a_0 in the square, so a matched order's slope is
        # built from a_0 and the Taylor terms, while the prefix's common
        # denominator grows past a thousand bits
        slopes, dens = [], []
        real = series._residual_order

        def watching(m, a, p, t):
            out = real(m, a, p, t)
            if m - 2 * p + 2 == len(a.x):
                slopes.append(max(abs(v).bit_length() for v in out[1]))
                dens.append(a.den.bit_length())
            return out

        monkeypatch.setattr(series, "_residual_order", watching)
        alpha, beta, gamma, z0 = 1 / (Z + 4), Z * Z - 1, (Z - 1) / (Z * Z + 7), fc(2)
        for cand in leading_candidates(alpha, beta, gamma, z0):
            assert len(expand(alpha, beta, gamma, z0, cand.p, cand.a0, 40).coefficients) == 41
        assert len(slopes) == 80 and max(slopes) < 64 and max(dens) > 1000


# -- conjugate branches: one expansion per pair over rational data --------------------


@st.composite
def _conjugate_pairs(draw):
    """alpha, beta, gamma, z0, order over Q whose two leading roots are
    conjugate in Q(sqrt(q)), q > 0 or q < 0.

    Numerators have degree 0-2 and integer coefficients in -3..3, over 1 or a
    linear denominator.  In one stratum beta = 0 (beta(z0) = 0 would put z0 in
    the excluded set), so r = 2 on both branches and the condition at a_2 is
    met or violated; a constant gamma over alpha = 0 meets it.
    """
    def ratfunc() -> RatFunc:  # nonzero
        cs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        assume(any(cs))
        den = draw(st.sampled_from([1, Z + 1, 2 * Z - 3]))
        return RatFunc(Poly([fc(c) for c in cs])) / den

    z0 = FieldConstant.of(draw(small_fractions))
    order = draw(st.integers(min_value=3, max_value=14))
    alpha = draw(st.sampled_from([RF0, ratfunc()]))
    if draw(st.booleans()):
        beta = RF0
        gamma = draw(st.sampled_from([RatFunc.const(draw(st.integers(1, 9))), ratfunc()]))
    else:
        beta, gamma = ratfunc(), ratfunc()
    assume(not in_excluded_set(alpha, beta, gamma, z0))
    cands = leading_candidates(alpha, beta, gamma, z0)
    assume(len(cands) == 2 and not cands[0].a0.is_rational)
    return alpha, beta, gamma, z0, order


def _direct(alpha, beta, gamma, z0, cands, order):
    return [expand(alpha, beta, gamma, z0, c.p, c.a0, max(order, c.p + 2)) for c in cands]


# expand_branches must expand every branch of these: an irrational z0 (the
# README's fixture), a coefficient in Q(sqrt(2)) with roots +-sqrt(2), and
# rational roots 4 and -1
_CONTROLS = {
    "irrational-z0": ((RatFunc.const(1), RF0, RatFunc.const(2)),
                      FieldConstant(Fraction(-3), Fraction(1), -2)),
    "irrational-coefficient": ((RatFunc.const(FieldConstant(0, 1, 2)) * Z, RF0,
                                RatFunc.const(-2)), ONE),
    "rational-roots": ((RF0, RatFunc.const(-3), RatFunc.const(-4)), ZERO),
}


class TestConjugateBranches:
    @given(_conjugate_pairs())
    def test_equals_expanding_each_branch(self, data):
        alpha, beta, gamma, z0, order = data
        cands = leading_candidates(alpha, beta, gamma, z0)
        assert cands[1].a0 == cands[0].a0.conjugate()
        got = expand_branches(alpha, beta, gamma, z0, cands, order)
        assert got == _direct(alpha, beta, gamma, z0, cands, order)

    def test_draws_cover_both_signs_and_both_outcomes_at_r_2(self):
        seen = set()

        @given(_conjugate_pairs())
        def collect(data):
            alpha, beta, gamma, z0, order = data
            cands = leading_candidates(alpha, beta, gamma, z0)
            e = expand_branches(alpha, beta, gamma, z0, cands, order)[0]
            if beta.is_zero:
                assert e.resonance.r == fc(2) and e.resonance.index == 2
                seen.add(("met" if e.alternate_coefficients else "violated", e.halted_at))
            seen.add(cands[0].a0.q > 0)

        collect()
        assert {True, False, ("met", None), ("violated", 2)} <= seen

    @pytest.mark.parametrize("name", sorted(_CONTROLS))
    def test_controls_expand_every_branch(self, name):
        coeffs, z0 = _CONTROLS[name]
        cands = leading_candidates(*coeffs, z0)
        got = expand_branches(*coeffs, z0, cands, 9)
        assert len(cands) == 2 and got == _direct(*coeffs, z0, cands, 9)
        # conjugating the first branch would not give the second
        assert got[1] != got[0].conjugate()

    @pytest.mark.parametrize("name", ["conjugate-pair", *sorted(_CONTROLS)])
    def test_expand_runs_once_per_conjugate_pair(self, monkeypatch, name):
        if name == "conjugate-pair":
            coeffs, z0 = (1 / (Z + 3), Z * Z - 2, (Z + 2) / (Z * Z + 3)), ONE
        else:
            coeffs, z0 = _CONTROLS[name]
        calls = []
        real = series.expand

        def counting(*args, **kwargs):
            calls.append(args[5])
            return real(*args, **kwargs)

        monkeypatch.setattr(series, "expand", counting)
        cands = leading_candidates(*coeffs, z0)
        expand_branches(*coeffs, z0, cands, 40)
        expanded = 1 if name == "conjugate-pair" else 2
        assert calls == [c.a0 for c in cands][:expanded]

    def test_any_candidate_list_in_its_order(self):
        # roots (1 +- sqrt(-3))/2: the second first, a repeat, then the p = 2
        # balance of beta = gamma = 0, which needs order p + 2 = 4
        coeffs, z0 = (RatFunc.const(2), RatFunc.const(-1), RatFunc.const(1)), ONE
        c0, c1 = leading_candidates(*coeffs, z0)
        double_zero = (coeffs[0], RF0, RF0)
        for cands, eq in (([c1, c0, c1], coeffs),
                          (leading_candidates(*double_zero, z0), double_zero)):
            got = expand_branches(*eq, z0, cands, 3)
            assert got == _direct(*eq, z0, cands, 3)
            assert [e.truncation_order for e in got] == [max(3, c.p + 2) for c in cands]


# -- the resonance index: one formula, computed once per branch -------------------------


@st.composite
def _resonance_draws(draw):
    """alpha, beta, gamma, z0, order.

    Each coefficient is a polynomial of degree <= 3 or a numerator over a
    linear or quadratic denominator; the constants lie in Q or, sometimes,
    in Q(sqrt(5)), and so does z0.  In one stratum gamma is moved by a
    constant so that a leading root a0 has r = beta(z0)/a0 + 2 equal to a
    drawn integer in 3..9: the order then lies below, at or above r + 2.
    Draws with z0 in the excluded set, or whose leading roots need a second
    extension, are skipped.
    """
    constants = draw(st.sampled_from([rational_constants, extended_constants]))

    def coeff() -> RatFunc:
        num = RatFunc(Poly(draw(st.lists(constants, max_size=4))))
        den = Poly(draw(st.lists(constants, min_size=1, max_size=2)) + [ONE])
        return num / RatFunc(den) if draw(st.booleans()) else num

    z0 = draw(draw(st.sampled_from([rational_constants, extended_constants])))
    alpha, beta, gamma = coeff(), coeff(), coeff()
    order = draw(st.integers(min_value=3, max_value=12))
    if draw(st.booleans()) and not beta.is_zero and not in_excluded_set(alpha, beta, gamma, z0):
        # a0 = b0/(r - 2) solves a0**2 + b0*a0 + g0 = 0 for g0 = -a0*(a0 + b0)
        r = draw(st.integers(min_value=3, max_value=9))
        b0 = eval_at(beta, z0)
        a0 = b0 / (r - 2)
        gamma = gamma + RatFunc.const(-a0 * (a0 + b0) - eval_at(gamma, z0))
        order = r + 2 + draw(st.sampled_from([-2, -1, 0, 1]))
    assume(not in_excluded_set(alpha, beta, gamma, z0))
    try:
        cands = leading_candidates(alpha, beta, gamma, z0)
        common_discriminant((alpha, beta, gamma, z0, *(c.a0 for c in cands)))
    except (NestedExtensionError, IncompatibleExtensionsError):
        assume(False)
    return alpha, beta, gamma, z0, order


class TestResonanceIndexOnce:
    """expand's r is beta(z0)/a0 + 2 with beta(z0) read off the shifted E*beta
    and E, and branch_resonance gives one record whichever expansion of the
    branch it is handed: expand's at any order from p + 2 on, or a conjugate
    twin of expand_branches."""

    @given(_resonance_draws())
    def test_expand_and_branch_resonance_agree_with_the_formula(self, data):
        alpha, beta, gamma, z0, order = data
        cands = leading_candidates(alpha, beta, gamma, z0)
        direct = _direct(alpha, beta, gamma, z0, cands, order)
        branches = expand_branches(alpha, beta, gamma, z0, cands, order)
        for cand, e, twin in zip(cands, direct, branches):
            report = branch_resonance(alpha, beta, gamma, z0, cand, e)
            assert e.resonance.r == twin.resonance.r == eval_at(beta, z0) / cand.a0 + 2
            assert branch_resonance(alpha, beta, gamma, z0, cand, twin) == report
            for n in range(cand.p + 2, order + 2):
                at_n = expand(alpha, beta, gamma, z0, cand.p, cand.a0, n)
                assert branch_resonance(alpha, beta, gamma, z0, cand, at_n) == report

    def test_draws_cover_twins_resonances_and_the_field(self):
        seen = set()

        @given(_resonance_draws())
        def collect(data):
            alpha, beta, gamma, z0, order = data
            cands = leading_candidates(alpha, beta, gamma, z0)
            rational = not any(x.q for x in (alpha, beta, gamma, z0))
            if rational and len(cands) == 2 and cands[0].a0.q:
                seen.add("twin")
            seen.add("z0 in Q(sqrt(5))" if z0.q else "z0 rational")
            if any(f.den.degree for f in (alpha, beta, gamma)):
                seen.add("denominator")
            for report, info in _records(alpha, beta, gamma, z0, order):
                seen.add(report.status)
                if info.r_is_positive_integer:
                    n = info.r.as_integer()
                    seen.add("below" if order < n + 2 else "at" if order == n + 2 else "above")

        collect()
        assert {"twin", "z0 in Q(sqrt(5))", "z0 rational", "denominator", "no-resonance",
                "evaluated", "below", "at", "above"} <= seen


class TestResonanceEvaluatedOnce:
    """The leading balance and each branch's r are read off the one Taylor
    shift, whatever the requested order."""

    # the r = 5 branch (a0 = -1) is probed to order 7 when --order is 4
    @pytest.mark.parametrize("order", ["8", "4"])
    def test_resonance_status_at_either_order(self, capsys, order):
        from merosolve import cli

        argv = ["expand", "--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0",
                "--order", order, "--json"]
        assert cli.main(argv) == 0
        branches = json.loads(capsys.readouterr().out)["branches"]
        assert [(b["resonance_status"], b["free_coefficient_index"]) for b in branches] == [
            ("no-resonance", None), ("evaluated", 5)]


# -- one shift per point, against the evaluating reference --------------------------


@st.composite
def _balances(draw):
    """alpha, beta, gamma, z0 for each leading balance: p = 2 (beta = gamma =
    0), gamma = 0 with the side condition alpha(z0) + beta'(z0) = 0 made true
    at random, the generic quadratic and, rarely, the degenerate equation.

    Each nonzero coefficient is a polynomial over Q or Q(sqrt(5)), sometimes
    times a linear factor and over another, and z0 is one of those factors'
    roots (a zero or pole of a coefficient) or a constant of Q, Q(sqrt(5)) or
    Q(sqrt(-3)), the last a field no coefficient shares.
    """
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    nonzero = constants.filter(lambda c: not c.is_zero)
    roots = []

    def coeff() -> RatFunc:
        f = RatFunc(Poly(draw(st.lists(constants, max_size=2)) + [draw(nonzero)]))
        for shape in draw(st.lists(st.sampled_from(["zero", "pole"]), max_size=2)):
            r = draw(constants)
            roots.append(r)
            f = f * (Z - RatFunc.const(r)) if shape == "zero" else f / (Z - RatFunc.const(r))
        return f

    kind = draw(st.sampled_from(["p = 2", "gamma = 0", "gamma = 0", "generic", "generic",
                                 "degenerate"]))
    alpha = coeff() if kind == "p = 2" or kind != "degenerate" and draw(st.booleans()) else RF0
    beta = coeff() if kind in ("gamma = 0", "generic") else RF0
    gamma = coeff() if kind == "generic" else RF0
    other_field = st.builds(lambda a, b: FieldConstant(a, b, -3), small_fractions,
                            small_fractions.filter(bool))
    z0 = draw(st.one_of(*([st.sampled_from(roots)] if roots else []), rational_constants,
                        extended_constants, other_field))
    if kind == "gamma = 0" and draw(st.booleans()):
        try:  # move alpha by a constant so that alpha(z0) + beta'(z0) = 0
            alpha = alpha - RatFunc.const(eval_at(alpha, z0) + eval_at(beta.derivative(), z0))
        except (DivisionByZeroError, IncompatibleExtensionsError):
            pass
    return alpha, beta, gamma, z0


def _outcome(leading, alpha, beta, gamma, z0):
    """leading(alpha, beta, gamma, z0), or the type and message of its error."""
    try:
        return leading(alpha, beta, gamma, z0)
    except MerosolveError as exc:
        return type(exc), str(exc)


class TestSharedShift:
    """leading_candidates and expand read every fact at z0 (the excluded set,
    the coefficients' values and beta'(z0)) off the one Taylor shift at z0;
    the reference evaluates each coefficient there."""

    @given(_balances())
    def test_leading_candidates_equal_the_evaluating_reference(self, data):
        alpha, beta, gamma, z0 = data
        got = _outcome(leading_candidates, *data)
        assert got == _outcome(reference_kernels.leading_candidates, *data)
        refused = isinstance(got, tuple)
        if got and (not refused or got[0] is PointInPhiError):
            t = series._last_taylor
            assert t.key == (alpha, beta, gamma, z0)
            assert t.excluded == in_excluded_set(alpha, beta, gamma, z0)

    def test_draws_cover_every_balance_and_refusal(self):
        seen = set()

        @given(_balances())
        def collect(data):
            alpha, beta, gamma, z0 = data
            got = _outcome(leading_candidates, *data)
            if isinstance(got, tuple):
                pole = got[0] is PointInPhiError and any(
                    pole_order_at(f, z0) for f in (alpha, beta, gamma))
                seen.add((got[0].__name__, pole))
                return
            for cand in got:
                side = (reference_kernels.side_condition(alpha, beta, z0)
                        if cand.p == 1 and gamma.is_zero else None)
                seen.add((cand.p, side, cand.a0.q != 0, bool(cand.note)))
            if not got:
                seen.add("degenerate")

        collect()
        assert {("PointInPhiError", True), ("PointInPhiError", False),
                ("IncompatibleExtensionsError", False), (2, None, False, False),
                (1, True, False, False), (1, False, False, False), (1, None, True, False),
                "degenerate"} <= seen

    @settings(max_examples=60)
    @given(_balances(), st.integers(min_value=4, max_value=25))
    def test_expand_equals_the_reference_on_every_branch(self, data, order):
        try:
            cands = leading_candidates(*data)
            assume(cands and common_discriminant((*data, *(c.a0 for c in cands))))
        except MerosolveError:
            assume(False)
        for cand in cands:
            e = expand(*data, cand.p, cand.a0, order)
            expected = reference_kernels.expand(*data, cand.p, cand.a0, order)
            assert (e.coefficients, e.halted_at, e.alternate_coefficients) == expected


# -- each resonance fact of a report, read off the branch's expansion -----------------------


@st.composite
def _report_draws(draw):
    """alpha, beta, gamma, z0 of _balances, an order of 1..8 and a cap of 0,
    1, 2 or the default, drawn with 0 twice as often as the others."""
    alpha, beta, gamma, z0 = draw(_balances())
    order = draw(st.integers(min_value=1, max_value=8))
    cap = draw(st.sampled_from([0, 0, 1, 2, RESONANCE_CAP_DEFAULT]))
    return alpha, beta, gamma, z0, order, cap


def _json_branches(alpha, beta, gamma, z0, order, cap):
    """The branches of `expand --json` at z0, or None when it exits nonzero."""
    from merosolve import cli

    argv = ["expand", "--alpha", ratfunc_to_str(alpha), "--beta", ratfunc_to_str(beta),
            "--gamma", ratfunc_to_str(gamma), "--at", format_constant(z0),
            "--order", str(order), "--cap", str(cap), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return json.loads(out.getvalue())["branches"] if code == 0 else None


class TestResonanceFactsInTheReport:
    """Every branch record carries r = beta(z0)/a0 + 2 from its expansion: r = 2
    on the p = 2 balance (beta = gamma = 0), r = 1 only on the gamma = 0
    balance, whose side condition alpha(z0) + beta'(z0) = 0 is the condition
    at r; the oracle evaluates by Horner's rule."""

    @given(_report_draws())
    def test_side_condition_and_r_follow_the_balance(self, data):
        alpha, beta, gamma, z0, order, cap = data
        branches = _json_branches(*data)
        for b in branches or ():
            res = b["expansion"]["resonance"]
            a0 = reference_kernels.parse_constant(b["a0"])
            assert b["r"] == res["r"] == format_constant(eval_at(beta, z0) / a0 + 2)
            if gamma.is_zero and beta.is_zero:
                assert (b["leading_power"], b["r"], res["index"]) == (2, "2", 2)
                assert b["resonance_status"] == ("evaluated" if cap >= 2 else "cap-exceeded")
            if gamma.is_zero and not beta.is_zero:
                side = reference_kernels.side_condition(alpha, beta, z0)
                assert (b["r"], b["side_condition_satisfied"]) == ("1", side)
            else:
                assert b["side_condition_satisfied"] is None
            if not gamma.is_zero:
                assert b["r"] != "1"

    def test_draws_cover_both_fields_the_zero_cap_and_every_balance(self):
        seen = set()

        @given(_report_draws())
        def collect(data):
            alpha, beta, gamma, z0, order, cap = data
            branches = _json_branches(*data)
            if not branches:
                return
            seen.add({0: "z0 rational", 5: "z0 in Q(sqrt(5))"}.get(z0.q))
            for b in branches:
                seen.add((b["leading_power"], b["side_condition_satisfied"],
                          b["resonance_status"], cap == 0))

        collect()
        assert {"z0 rational", "z0 in Q(sqrt(5))",
                (2, None, "evaluated", False), (2, None, "cap-exceeded", True),
                (1, True, "evaluated", False), (1, False, "evaluated", False),
                (1, True, "cap-exceeded", True), (1, False, "cap-exceeded", True),
                (1, None, "no-resonance", True)} <= seen


# -- expand under v(z) = mu*w(lam*z + s) ----------------------------------------------------


def _compose(f: RatFunc, lam: FieldConstant, s: FieldConstant) -> RatFunc:
    """f(lam*z + s), by Horner's rule on numerator and denominator."""
    u = RatFunc.const(lam) * Z + RatFunc.const(s)

    def horner(p: Poly) -> RatFunc:
        out = RF0
        for c in reversed(p.coeffs):
            out = out * u + RatFunc.const(c)
        return out

    return horner(f.num) / horner(f.den)


class TestExpandSymmetry:
    """If w solves the equation then v(z) = mu*w(lam*z + s) solves it with
    alpha~ = mu*lam**2*alpha(lam*z + s), beta~ = mu*lam*beta(lam*z + s) and
    gamma~ = mu**2*lam**2*gamma(lam*z + s).  At z0' = (z0 - s)/lam each
    branch a0 maps to mu*lam**p*a0 and a_k to mu*lam**(p+k)*a_k; r, the
    resonance record and the halting index stay the same."""

    @given(_resonance_draws(), st.tuples(nonzero_rational_constants,
                                         nonzero_rational_constants, rational_constants))
    def test_branches_map_to_branches(self, data, transform):
        alpha, beta, gamma, z0, order = data
        mu, lam, s = transform
        moved = (RatFunc.const(mu * lam * lam) * _compose(alpha, lam, s),
                 RatFunc.const(mu * lam) * _compose(beta, lam, s),
                 RatFunc.const(mu * mu * lam * lam) * _compose(gamma, lam, s))
        z1 = (z0 - s) / lam
        cands = leading_candidates(alpha, beta, gamma, z0)
        by_a0 = {c.a0: c for c in leading_candidates(*moved, z1)}
        assert len(by_a0) == len({c.a0 for c in cands})
        for cand in cands:
            image = by_a0[mu * lam ** cand.p * cand.a0]
            assert image.p == cand.p
            n = max(order, cand.p + 2)
            e = expand(alpha, beta, gamma, z0, cand.p, cand.a0, n)
            f = expand(*moved, z1, image.p, image.a0, n)
            assert f.coefficients == tuple(mu * lam ** (cand.p + k) * c
                                           for k, c in enumerate(e.coefficients))
            assert (f.resonance, f.halted_at) == (e.resonance, e.halted_at)
            assert (branch_resonance(*moved, z1, image, expansion=f)[1:]
                    == branch_resonance(alpha, beta, gamma, z0, cand, expansion=e)[1:])
