"""Classifier: case coverage, rejections, sign handling, the shift pipeline."""

from __future__ import annotations

from fractions import Fraction

import pytest

from merosolve.classify import (
    CASE_ORDER,
    ConstraintSet,
    Parameter,
    _Collector,
    _cross_sign,
    applicable_labels,
    classify,
    compute_A,
    eq3_residual,
    instantiate,
    transform_original,
)
from merosolve.errors import DomainViolationError, GammaIdenticallyZeroError
from merosolve.expsum import ExpSum, residual
from merosolve.field import FieldConstant
from merosolve.ratfunc import RatFunc

Z = RatFunc.z()
RF = RatFunc.of


def by_label(rep):
    out = {}
    for f in rep.families:
        out.setdefault(f.case_label, []).append(f)
    return out


def one(rep, label):
    fams = by_label(rep)[label]
    assert len(fams) == 1
    return fams[0]


# every fixture the suite classifies, for the structural audit
FIXTURES = [
    (RF(0), RF(0), RF(0)),
    (RF(2), RF(0), RF(0)),
    (-2 * Z, Z, RF(0)),
    (RF(0), RF(1), RF(0)),
    (1 - Z, RF(0), -Z * Z),
    (RF(0), RF(0), RF(1)),
    (RF(1), RF(0), RF(2)),
    (RF(0), RF(0), RF(-1)),
    (RF(1), RF(2), RF(1)),
    (Z, RF(0), RF(1)),
    (RF(-2), 2 * Z, 1 + 4 * Z * Z),
    (-Z * Z, Z, -Z**4 / 4 + Z * Z / 2 + 1),
    (RF(-1), 2 * Z, Z * Z - 1),
    (1 / (Z * Z), 1 / Z, RF(0)),
    (2 / Z**3, 1 / (Z * Z), RF(0)),
    (1 / (Z * Z) + 2 / Z**3, 1 / Z + 1 / (Z * Z), RF(0)),
]


class TestCaseCoverage:
    def test_constant_alpha_cosh_and_quadratic(self):
        rep = classify(2, 0, 0)
        cosh = one(rep, "A-cosh")
        quad = one(rep, "A-quadratic")
        assert cosh.admissible and quad.admissible
        assert quad.closed_form == "w = -(1) * (z + c2)^2"
        w = instantiate(cosh, {"c1": 1, "C": 1})
        assert w.to_text() == "(1) * exp(-z) + (2) + (1) * exp(z)"
        assert residual(RF(2), RF(0), RF(0), w).is_zero
        w2 = instantiate(quad, {"c2": 3})
        assert residual(RF(2), RF(0), RF(0), w2).is_zero

    def test_case_b_pure_exponential(self):
        rep = classify(-2 * Z, Z, 0)
        fam = one(rep, "B")
        assert fam.admissible
        assert fam.closed_form == "w = c1 * exp(2 * z)"
        w = instantiate(fam, {"c1": 1})
        assert w.to_text() == "(1) * exp(2 * z)"

    def test_case_c_free_rate(self):
        rep = classify(0, 1, 0)
        fam = one(rep, "C")
        assert fam.admissible
        assert fam.notes == ("c1 ranges over the whole constant field",)
        w = instantiate(fam, {"c1": 2, "c2": 3})
        assert residual(RF(0), RF(1), RF(0), w).is_zero
        # w = c2*exp(c1*z) + 1/c1
        assert w.to_text() == "(1/2) + (3) * exp(2 * z)"
        # the companion B family (constant w) is emitted but never admissible
        assert not one(rep, "B").admissible

    def test_case_d_with_rejected_sister_branch(self):
        rep = classify(1 - Z, 0, -Z * Z)
        fam = one(rep, "D")
        assert fam.admissible
        assert fam.closed_form == "w = c1 * exp(z) + (-z - 1)"
        assert fam.notes == ("h = z solves h^2 + beta*h + gamma = 0",)
        w = instantiate(fam, {"c1": 1})
        assert w.to_text() == "(-z - 1) + (1) * exp(z)"
        reasons = {(r.case_label, r.reason) for r in rep.rejected_branches}
        assert ("D", "branch h = -z: k1 = (-z + 2)/(z) is not constant") in reasons

    def test_case_ea_free_rate_cosh(self):
        rep = classify(0, 0, 1)
        fam = one(rep, "E.a")
        assert fam.admissible
        w = instantiate(fam, {"sign": "+", "k1": 1, "C": 1})
        assert w.to_text() == "(1/2) * exp(-z) + (1/2) * exp(z)"
        assert residual(RF(0), RF(0), RF(1), w).is_zero
        assert rep.extension_used == -1

    def test_case_ec_quadratic(self):
        rep = classify(1, 0, 2)
        fam = one(rep, "E.c")
        assert fam.admissible
        assert fam.closed_form == "w = -(1/2) * (z + c1)^2 - (1)"
        w = instantiate(fam, {"c1": 0})
        assert residual(RF(1), RF(0), RF(2), w).is_zero
        assert rep.extension_used == -2

    def test_case_ed_linear(self):
        rep = classify(0, 0, -1)
        fam = one(rep, "E.d")
        assert fam.admissible
        assert fam.closed_form == "w = sign * z + c1"
        w = instantiate(fam, {"sign": "+", "c1": 0})
        assert w.to_text() == "(z)"
        w = instantiate(fam, {"sign": "-", "c1": 5})
        assert residual(RF(0), RF(0), RF(-1), w).is_zero

    def test_case_ee_shifted_exponential(self):
        rep = classify(1, 2, 1)
        fam = one(rep, "E.e")
        assert fam.admissible
        assert fam.closed_form == "w = c1 * exp(-z) - (1)"
        w = instantiate(fam, {"c1": 1})
        assert w.to_text() == "(1) * exp(-z) + (-1)"
        # beta^2 - 4*gamma = 0 collapses the two D branches into one
        d = one(rep, "D")
        assert "double branch: beta^2 - 4*gamma is identically zero" in d.notes

    def test_trivial_all_zero(self):
        rep = classify(0, 0, 0)
        fam = one(rep, "trivial-all-zero")
        assert fam.closed_form == "w = c2 * exp(c1 * z)"
        assert fam.admissible
        w = instantiate(fam, {"c1": 2, "c2": 5})
        assert residual(RF(0), RF(0), RF(0), w).is_zero


class TestNegativeControl:
    def test_no_families_and_named_reasons(self):
        rep = classify(Z, 0, 1)
        assert rep.families == ()
        assert rep.extension_used == -1
        reasons = {(r.case_label, r.reason) for r in rep.rejected_branches}
        assert reasons == {
            ("D", "branch h = sqrt(-1): k1 = sqrt(-1)*z is not constant"),
            ("D", "branch h = -sqrt(-1): k1 = -sqrt(-1)*z is not constant"),
            ("E.a", "beta'' + 2*alpha' = 2 does not vanish identically"),
            ("E.b", "k1^2 = -z^2 is not constant"),
            ("E.c", "alpha = z is not constant"),
            ("E.d", "beta' + 2*alpha = 2*z does not vanish identically"),
            ("E.e", "beta^2/4 - gamma = -1 is not identically zero"),
        }

    def test_every_applicable_label_is_accounted_for(self):
        rep = classify(Z, 0, 1)
        seen = {r.case_label for r in rep.rejected_branches}
        assert set(applicable_labels(rep.alpha, rep.beta, rep.gamma)) <= seen


class TestAuditTotality:
    @pytest.mark.parametrize("idx", range(len(FIXTURES)))
    def test_labels_partition_and_verification(self, idx):
        alpha, beta, gamma = FIXTURES[idx]
        rep = classify(alpha, beta, gamma)
        applicable = set(applicable_labels(rep.alpha, rep.beta, rep.gamma))
        fam_labels = {f.case_label for f in rep.families}
        rej_labels = {r.case_label for r in rep.rejected_branches}
        assert fam_labels <= applicable
        assert rej_labels <= applicable
        assert applicable <= fam_labels | rej_labels
        for fam in rep.families:
            assert fam.case_label in CASE_ORDER
            assert fam.verified
            assert len(fam.verification) >= 3
            assert all(rec.residual_zero for rec in fam.verification)
            names = [p.name for p in fam.parameters]
            assert len(names) == len(set(names))
            assert set(dict(fam.generic_assignment)) == set(names)

    @pytest.mark.parametrize("idx", range(len(FIXTURES)))
    def test_admissibility_matches_the_growth_rule(self, idx):
        alpha, beta, gamma = FIXTURES[idx]
        rep = classify(alpha, beta, gamma)
        constant_coeffs = all(
            f.constant_value() is not None for f in (rep.alpha, rep.beta, rep.gamma)
        )
        for fam in rep.families:
            w = instantiate(fam, dict(fam.generic_assignment))
            if w.has_nonzero_rate():
                expected = True
            elif constant_coeffs:
                expected = w.rate_zero_part().constant_value() is None
            else:
                expected = False
            assert fam.admissible == expected, fam.case_label


class TestSignFamilies:
    def test_sign_parameters_verify_both_signs(self):
        rep = classify(0, 0, -1)
        fam = one(rep, "E.d")
        assert [p.name for p in fam.parameters][0] == "sign"
        assert len(fam.verification) == 6
        for s in ("+", "-"):
            w = instantiate(fam, {"sign": s, "c1": 2})
            assert residual(RF(0), RF(0), RF(-1), w).is_zero

    def test_ea_both_signs(self):
        rep = classify(0, 0, 1)
        fam = one(rep, "E.a")
        assert len(fam.verification) == 6
        for s in ("+", "-"):
            w = instantiate(fam, {"sign": s, "k1": 2, "C": 3})
            assert residual(RF(0), RF(0), RF(1), w).is_zero

    def test_one_failing_sign_is_rejected_and_the_other_emitted(self):
        # no shipped family has a sign that fails alone, so gate a made-up one:
        # c1*exp(z) solves the all-zero equation, the "-" member z + c1 does not
        col = _Collector(RF(0), RF(0), RF(0))

        def build(v):
            if v["sign"] == "+":
                return ExpSum.exponential(1, RF(v["c1"]))
            return ExpSum.from_ratfunc(Z + RF(v["c1"]))

        col.attempt(
            "X", (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K")), "w",
            ConstraintSet(), build, _cross_sign([{"c1": FieldConstant.of(1)}]),
        )
        (fam,) = col.families
        assert fam.parameters[0].domain == "{+}"
        assert [r.assignment for r in fam.verification] == [(("c1", "1"), ("sign", "+"))]
        assert fam.admissible and fam.notes == ("only the + sign verifies",)
        assert [r.reason for r in col.rejected] == [
            "sign - branch: residual at (c1 = 1, sign = -) is (-1)"
        ]


class TestExtensions:
    def test_extension_seeded_from_coefficients(self):
        rep = classify(-Z * Z, Z, -Z**4 / 4 + Z * Z / 2 + 1)
        assert rep.extension_used == 17
        fam = one(rep, "E.a")
        assert fam.admissible
        assert fam.closed_form == (
            "w = sign * 1/8*sqrt(17) * (C * exp(2 * z) + (1/C) * exp(-2 * z))"
            " / 2 + (-1/4*z^2 + 1/8)"
        )

    def test_no_extension_for_rational_fixtures(self):
        assert classify(2, 0, 0).extension_used is None
        assert classify(1, 2, 1).extension_used is None

    def test_extension_reported_even_when_only_rejections_use_it(self):
        assert classify(Z, 0, 1).extension_used == -1


class TestCaseCObstructions:
    def test_unremovable_residue_rejects_the_case(self):
        rep = classify(1 / (Z * Z), 1 / Z, 0)
        assert "C" not in by_label(rep)
        reasons = {r.reason for r in rep.rejected_branches if r.case_label == "C"}
        assert reasons == {
            "integral obstruction for every c1: the residue conditions at the"
            " poles of beta have no common root"
            " (pole z = 0: residue vanishes iff 1 = 0)"
        }

    def test_order_two_pole_pins_c1_to_zero(self):
        rep = classify(2 / Z**3, 1 / (Z * Z), 0)
        fam = one(rep, "C")
        c1 = [p for p in fam.parameters if p.name == "c1"][0]
        assert c1.kind == "finite"
        assert c1.allowed_values == (FieldConstant.of(0),)
        assert "c1 restricted to {0} by the residue conditions" in fam.notes
        w = instantiate(fam, {"c1": 0, "c2": 3})
        assert w.to_text() == "((3*z + 1)/(z))"
        assert not fam.admissible  # rational in z, rational coefficients

    def test_mixed_pole_pins_c1_to_one(self):
        rep = classify(1 / (Z * Z) + 2 / Z**3, 1 / Z + 1 / (Z * Z), 0)
        fam = one(rep, "C")
        c1 = [p for p in fam.parameters if p.name == "c1"][0]
        assert c1.allowed_values == (FieldConstant.of(1),)
        assert fam.admissible
        w = instantiate(fam, {"c1": 1, "c2": 2})
        assert residual(rep.alpha, rep.beta, rep.gamma, w).is_zero


class TestInstantiate:
    def setup_method(self):
        self.ed = one(classify(0, 0, -1), "E.d")
        self.b = one(classify(-2 * Z, Z, 0), "B")
        self.c = one(classify(2 / Z**3, 1 / (Z * Z), 0), "C")

    def test_unknown_parameter(self):
        with pytest.raises(DomainViolationError, match="unknown parameter"):
            instantiate(self.ed, {"sign": "+", "c1": 0, "extra": 1})

    def test_missing_parameter(self):
        with pytest.raises(DomainViolationError, match="missing parameter c1"):
            instantiate(self.ed, {"sign": "+"})

    def test_bad_sign(self):
        with pytest.raises(DomainViolationError, match="sign must be"):
            instantiate(self.ed, {"sign": "x", "c1": 0})

    def test_zero_for_nonzero_kind(self):
        with pytest.raises(DomainViolationError, match="c1 must be nonzero"):
            instantiate(self.b, {"c1": 0})

    def test_outside_finite_set(self):
        with pytest.raises(DomainViolationError, match="outside the allowed set"):
            instantiate(self.c, {"c1": 5, "c2": 0})


class TestComputeA:
    def test_values(self):
        assert compute_A(RF(1), RF(2), RF(1)) == RF(2)
        assert compute_A(RF(1), RF(0), RF(2)) == RF(0)

    def test_undefined_for_zero_gamma(self):
        with pytest.raises(GammaIdenticallyZeroError):
            compute_A(RF(1), RF(2), RF(0))


class TestApplicableLabels:
    def test_signature_partition(self):
        assert applicable_labels(RF(0), RF(0), RF(0)) == ("trivial-all-zero",)
        assert applicable_labels(RF(2), RF(0), RF(0)) == (
            "A-cosh", "A-quadratic", "C",
        )
        assert applicable_labels(-2 * Z, Z, RF(0)) == ("B", "C")
        assert applicable_labels(RF(1), RF(0), RF(2)) == (
            "D", "E.a", "E.b", "E.c", "E.d", "E.e",
        )


class TestTransformPipeline:
    def test_exact_transformed_coefficients(self):
        alpha, beta, gamma = transform_original(1, 0, 0, Z * Z)
        assert alpha == RF(-2)
        assert beta == 2 * Z
        assert gamma == 1 + 4 * Z * Z

    def test_transformed_fixture_classifies_clean(self):
        alpha, beta, gamma = transform_original(1, 0, 0, Z * Z)
        rep = classify(alpha, beta, gamma)
        reasons = {r.reason for r in rep.rejected_branches}
        assert (
            "beta^2 - 4*gamma = -12*z^2 - 4 is not a square in K(z)" in reasons
        )
        assert "A = (-2*z)/(z^2 + 1/4) is not constant" in reasons
        # any emitted family must shift back onto the original equation
        for fam in rep.families:
            w = instantiate(fam, dict(fam.generic_assignment))
            f = w + ExpSum.from_ratfunc(Z * Z)
            assert eq3_residual(1, 0, 0, Z * Z, f).is_zero

    def test_constant_shift_round_trips(self):
        k0, k1, k2, k3 = RF(-6), RF(2), RF(0), RF(3)
        alpha, beta, gamma = transform_original(k0, k1, k2, k3)
        assert (alpha, beta, gamma) == (RF(2), RF(0), RF(0))
        rep = classify(alpha, beta, gamma)
        assert rep.families
        for fam in rep.families:
            w = instantiate(fam, dict(fam.generic_assignment))
            f = w + ExpSum.from_ratfunc(k3)
            assert eq3_residual(k0, k1, k2, k3, f).is_zero

    @pytest.mark.xfail(
        strict=True,
        reason="the shift rule uses beta = k2 + k3', which drops a k3' term"
        " for non-constant k3; round-tripping through the original equation"
        " fails there by construction",
    )
    def test_nonconstant_shift_round_trips(self):
        k0, k1, k2, k3 = -2 * Z, RF(2), RF(-1), Z
        alpha, beta, gamma = transform_original(k0, k1, k2, k3)
        assert (alpha, beta, gamma) == (RF(2), RF(0), RF(0))
        rep = classify(alpha, beta, gamma)
        assert rep.families
        for fam in rep.families:
            w = instantiate(fam, dict(fam.generic_assignment))
            f = w + ExpSum.from_ratfunc(k3)
            assert eq3_residual(k0, k1, k2, k3, f).is_zero


class TestNonAdmissibleFamilies:
    def test_polynomial_solutions_with_nonconstant_coefficients(self):
        rep = classify(-1, 2 * Z, Z * Z - 1)
        fam = one(rep, "E.d")
        assert fam.closed_form == "w = sign * z + c1 - (1/2*z^2)"
        assert not fam.admissible
        assert all(not f.admissible for f in rep.families)
        w = instantiate(fam, {"sign": "+", "c1": 0})
        assert residual(rep.alpha, rep.beta, rep.gamma, w).is_zero
