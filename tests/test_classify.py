"""Classifier: case coverage, rejections, sign handling, the shift pipeline."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merosolve import cli, expsum, ratfunc
from merosolve.classify import (
    ConstraintSet,
    Parameter,
    RejectedBranch,
    Term,
    _Collector,
    _case_Ea,
    _member,
    classify,
    compute_A,
    instantiate,
    transform_original,
)
from merosolve.errors import DomainViolationError, GammaIdenticallyZeroError
from merosolve.expsum import ExpSum, residual
from merosolve.field import FieldConstant, format_constant
from merosolve.parse import parse_constant, parse_ratfunc
from merosolve.ratfunc import Poly, RatFunc

import reference_kernels
from conftest import (
    extended_constants,
    nonzero_polys,
    polys,
    rational_constants,
)

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


def pool_classify_inputs(*workloads):
    """(id, alpha, beta, gamma) of every classify entry of the benchmark pools."""
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    for workload in workloads:
        with open(data / f"{workload}.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for entry in entries:
            argv = entry["argv"]
            if argv[0] == "classify":
                flags = dict(zip(argv[1::2], argv[2::2]))
                yield (f"{workload}:{entry['id']}",
                       *(parse_ratfunc(flags[f"--{n}"]) for n in ("alpha", "beta", "gamma")))


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
        assert set(reference_kernels.applicable_labels(rep.alpha, rep.beta, rep.gamma)) <= seen


class TestAuditTotality:
    @pytest.mark.parametrize("idx", range(len(FIXTURES)))
    def test_labels_partition_and_verification(self, idx):
        alpha, beta, gamma = FIXTURES[idx]
        rep = classify(alpha, beta, gamma)
        applicable = set(reference_kernels.applicable_labels(rep.alpha, rep.beta, rep.gamma))
        fam_labels = {f.case_label for f in rep.families}
        rej_labels = {r.case_label for r in rep.rejected_branches}
        assert fam_labels <= applicable
        assert rej_labels <= applicable
        assert applicable <= fam_labels | rej_labels
        for fam in rep.families:
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


class TestResidualGate:
    # family D with a rational tail: w = c1*exp(z) + T solves the equation
    # with beta = 0, alpha = T'' - 2T' + T, gamma = T*T'' - T'^2 - alpha*T
    T = Z + RF(3) / ((Z - 1) * (Z - 1) * (Z + 2))
    T1 = T.derivative()
    T2 = T1.derivative()
    ALPHA = T2 - 2 * T1 + T
    BETA = RF(0)
    GAMMA = T * T2 - T1 * T1 - ALPHA * T
    ASSIGNMENTS = [{"c1": FieldConstant.of(c)} for c in (1, 2, -1)]
    TERMS = (Term(FieldConstant.of(1), RF(1), (("c1", 1),)), Term(FieldConstant.of(0), T))

    @classmethod
    def member(cls, v) -> ExpSum:
        return ExpSum([(FieldConstant.of(1), RF(v["c1"])), (FieldConstant.of(0), cls.T)])

    def gate(self, terms) -> _Collector:
        col = _Collector(self.ALPHA, self.BETA, self.GAMMA)
        col.label = "D"
        col.run(_Collector.attempt, (Parameter("c1", "K"),), "w", ConstraintSet(), terms,
                self.ASSIGNMENTS)
        return col

    def test_verifying_members_meet_no_gcd_and_one_residual_each(self, monkeypatch):
        module = importlib.import_module("merosolve.classify")
        in_gate, gcds, residuals = [0], [], []
        real_gcd = ratfunc._cofactors

        def counting_gcd(a, b):
            if in_gate[0]:
                gcds.append((a, b))
            return real_gcd(a, b)

        def gate(*args):
            residuals.append(args)
            in_gate[0] += 1
            try:
                return residual(*args)
            finally:
                in_gate[0] -= 1

        # every gcd of two nonconstant polynomials goes through _cofactors
        monkeypatch.setattr(ratfunc, "_cofactors", counting_gcd)
        monkeypatch.setattr(module, "residual", gate)
        col = self.gate(self.TERMS)
        (fam,) = col.families
        records, members = fam.verification, [args[3] for args in residuals]
        assert not col.rejected and [r.residual_zero for r in records] == [True] * 3
        assert members == [self.member(a) for a in self.ASSIGNMENTS]
        assert all(m.rate_zero_part().den.degree == 3 for m in members)
        assert gcds == [] and len(residuals) == len(self.ASSIGNMENTS)
        # the gcd counter is live: a nonzero residual does meet gcds
        w = members[0] + ExpSum.from_ratfunc(RF(1) / (Z - 1))
        in_gate[0] = 1
        assert not residual(self.ALPHA, self.BETA, self.GAMMA, w).is_zero
        assert gcds

    def test_a_report_clears_the_coefficients_once(self, monkeypatch):
        module = importlib.import_module("merosolve.classify")
        cleared, gated = [], []
        real_init = expsum._Cleared.__init__

        def counting_init(self, *coefficients):
            cleared.append(coefficients)
            real_init(self, *coefficients)

        def gate(*args):
            gated.append(args)
            return residual(*args)

        monkeypatch.setattr(expsum._Cleared, "__init__", counting_init)
        monkeypatch.setattr(expsum, "_last_cleared", None)
        monkeypatch.setattr(module, "residual", gate)
        rep = classify(self.ALPHA, self.BETA, self.GAMMA)
        assert [f.case_label for f in rep.families] == ["D"]
        assert len(gated) >= 3 and cleared == [(self.ALPHA, self.BETA, self.GAMMA)]
        # the counter is live: another equation is cleared again
        residual(self.ALPHA + 1, self.BETA, self.GAMMA, self.member(self.ASSIGNMENTS[0]))
        assert len(cleared) == 2

    def test_failing_member_reason_is_the_residual_text(self, monkeypatch):
        module = importlib.import_module("merosolve.classify")
        gated = []

        def gate(*args):
            gated.append(args[3])
            return residual(*args)

        monkeypatch.setattr(module, "residual", gate)
        perturbed = (*self.TERMS, Term(FieldConstant.of(0), RF(1) / (Z - 1)))
        col = self.gate(perturbed)
        w = self.member(self.ASSIGNMENTS[0]) + ExpSum.from_ratfunc(RF(1) / (Z - 1))
        text = residual(self.ALPHA, self.BETA, self.GAMMA, w).to_text()
        assert col.rejected == [RejectedBranch("D", f"residual at (c1 = 1) is {text}")]
        # the gate stopped at the first member, and emitted nothing
        assert gated == [w] and col.families == []


class TestSignFamilies:
    def test_sign_parameters_verify_both_signs(self):
        rep = classify(0, 0, -1)
        fam = one(rep, "E.d")
        assert [p.name for p in fam.parameters][0] == "sign"
        assert [r.assignment for r in fam.verification] == [
            (("c1", c1), ("sign", s)) for s in "+-" for c1 in "012"
        ]
        for s in ("+", "-"):
            w = instantiate(fam, {"sign": s, "c1": 2})
            assert residual(RF(0), RF(0), RF(-1), w).is_zero

    def test_attempt_adds_the_sign_to_base_assignments(self, monkeypatch):
        # w = sign*z + c1 solves w*w'' - (w')^2 = -1 for either sign
        module = importlib.import_module("merosolve.classify")
        col = _Collector(RF(0), RF(0), RF(-1))
        seen = []

        def member(terms, v):
            seen.append(dict(v))
            return _member(terms, v)

        monkeypatch.setattr(module, "_member", member)
        zero = FieldConstant.of(0)
        terms = (Term(zero, Z, (("sign", 1),)), Term(zero, RF(1), (("c1", 1),)))
        base = [{"c1": FieldConstant.of(1)}, {"c1": FieldConstant.of(2)}]
        col.label = "X"
        col.attempt(
            (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K")), "w",
            ConstraintSet(), terms, base,
        )
        (fam,) = col.families
        assert [list(v) for v in seen] == [["c1", "sign"]] * 4
        assert [r.assignment for r in fam.verification] == [
            (("c1", "1"), ("sign", "+")), (("c1", "2"), ("sign", "+")),
            (("c1", "1"), ("sign", "-")), (("c1", "2"), ("sign", "-")),
        ]
        assert fam.parameters[0].domain == "{+, -}" and not col.rejected
        assert base == [{"c1": FieldConstant.of(1)}, {"c1": FieldConstant.of(2)}]

    def test_ea_both_signs(self):
        rep = classify(0, 0, 1)
        fam = one(rep, "E.a")
        assert len(fam.verification) == 6
        for s in ("+", "-"):
            w = instantiate(fam, {"sign": s, "k1": 2, "C": 3})
            assert residual(RF(0), RF(0), RF(1), w).is_zero

    def test_a_family_is_rejected_at_its_first_failing_sign(self):
        # one run gates + then -: c1*exp(z) solves the all-zero equation, the
        # "-" member z + c1 does not, so the whole family is rejected
        col = _Collector(RF(0), RF(0), RF(0))
        col.label = "X"
        # sign + gives c1*exp(z) and sign - gives c1 + z: the rate is 1/2 + sign/2,
        # and z enters as (z/2)*(1 - sign)
        half, zero = FieldConstant.of(Fraction(1, 2)), FieldConstant.of(0)
        terms = (Term((half, "sign", half), RF(1), (("c1", 1),)),
                 Term(zero, Z / 2), Term(zero, -Z / 2, (("sign", 1),)))
        col.run(
            _Collector.attempt,
            (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K")), "w",
            ConstraintSet(), terms, [{"c1": FieldConstant.of(1)}],
        )
        assert col.families == []
        assert [(r.case_label, r.reason) for r in col.rejected] == [
            ("X", "residual at (c1 = 1, sign = -) is (-1)")
        ]


    # the pool's E.a families are all free-rate, so add a k1-from-beta one
    SIGN_INPUTS = [*pool_classify_inputs("classify-ladder"),
                   ("E.a over Q(sqrt 17)", -Z * Z, Z, -Z**4 / 4 + Z * Z / 2 + 1)]

    def test_both_signs_solve_away_from_the_gate_samples(self):
        # the gate emits a sign family only when both signs verify, and
        # rejects it at its first failure; that loses nothing because each
        # family meets its sign only through k1^2 or k2^2, so both signs solve
        off_samples = {"C": FieldConstant.of(-2), "c1": FieldConstant.of(5),
                       "k1": FieldConstant.of(3)}
        seen = set()
        for ident, alpha, beta, gamma in self.SIGN_INPUTS:
            for fam in classify(alpha, beta, gamma).families:
                names = [p.name for p in fam.parameters]
                if "sign" not in names:
                    continue
                seen.add(fam.case_label + (" free" if "k1" in names else ""))
                for sgn in "+-":
                    values = {n: sgn if n == "sign" else off_samples[n] for n in names}
                    shown = {n: v if n == "sign" else format_constant(v) for n, v in values.items()}
                    assert shown not in [dict(r.assignment) for r in fam.verification]
                    w = instantiate(fam, values)
                    assert residual(alpha, beta, gamma, w).is_zero, (ident, fam.case_label, sgn)
        assert seen == {"E.a", "E.a free", "E.b", "E.d"}


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
    # the residue of beta*exp(-c1*z) at a pole z0 of beta is exp(-c1*z0) times
    # sum_k c_k*(-c1)**(k-1)/(k-1)!, c_k the coefficient of (z - z0)**(-k)

    def test_unremovable_residue_rejects_the_case(self):
        # beta = 1/z: the residue is 1 for every c1, so g = 1
        rep = classify(1 / (Z * Z), 1 / Z, 0)
        assert "C" not in by_label(rep)
        reasons = {r.reason for r in rep.rejected_branches if r.case_label == "C"}
        assert reasons == {
            "integral obstruction for every c1: the residues of beta*exp(-c1*z)"
            " vanish at c1 != 0 iff 1 = 0; at c1 = 0 beta has a nonzero residue"
        }

    def test_order_two_pole_pins_c1_to_zero(self):
        rep = classify(2 / Z**3, 1 / (Z * Z), 0)
        fam = one(rep, "C")
        c1 = [p for p in fam.parameters if p.name == "c1"][0]
        assert c1.kind == "finite"
        assert c1.allowed_values == (FieldConstant.of(0),)
        # the residue c2*(-c1) of c2/z^2 vanishes at c1 = 0 only: g = 1
        assert fam.notes == ("c1 restricted to {0} by the residue conditions",
                             "the residues of beta*exp(-c1*z) vanish at c1 != 0 iff 1 = 0")
        w = instantiate(fam, {"c1": 0, "c2": 3})
        assert w.to_text() == "((3*z + 1)/(z))"
        assert not fam.admissible  # rational in z, rational coefficients

    def test_leftover_residue_factor_is_printed_in_c1(self):
        # beta = 1/z + 1/z^2 + 6/z^4: the residue of beta*exp(-c1*z) at 0 is
        # 1 - c1 - c1^3, so g in c1 is c1^3 + c1 - 1, which has no rational
        # root (+-1 give 1 and -3), and at c1 = 0 the residue is 1
        rep = classify((Z**3 + 2 * Z * Z + 24) / Z**5, (Z**3 + Z * Z + 6) / Z**4, 0)
        assert "C" not in by_label(rep)
        reasons = [r.reason for r in rep.rejected_branches if r.case_label == "C"]
        assert reasons == [
            "integral obstruction for every c1 in the constant field: the residues"
            " of beta*exp(-c1*z) vanish at c1 != 0 iff c1^3 + c1 - 1 = 0;"
            " additional residue roots of c1^3 + c1 - 1 = 0 lie outside the"
            " constant field; at c1 = 0 beta has a nonzero residue"
        ]

    def test_mixed_pole_pins_c1_to_one(self):
        # beta = 1/z + 1/z^2: the residue is 1 - c1
        rep = classify(1 / (Z * Z) + 2 / Z**3, 1 / Z + 1 / (Z * Z), 0)
        fam = one(rep, "C")
        c1 = [p for p in fam.parameters if p.name == "c1"][0]
        assert c1.allowed_values == (FieldConstant.of(1),)
        assert fam.notes[1] == "the residues of beta*exp(-c1*z) vanish at c1 != 0 iff c1 - 1 = 0"
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

    @pytest.mark.parametrize("value", ["1", 1.0, None])
    def test_a_value_of_another_type_is_a_domain_violation(self, value):
        fam = one(classify(2, 0, 0), "A-cosh")
        with pytest.raises(DomainViolationError, match="^c1 = .* is not an int, Fraction or"):
            instantiate(fam, {"c1": value, "C": 1})

    def test_ints_fractions_and_field_constants_are_accepted(self):
        fam = one(classify(2, 0, 0), "A-cosh")
        for c1 in (2, Fraction(1, 2), FieldConstant(Fraction(1), Fraction(1), 2)):
            w = instantiate(fam, {"c1": c1, "C": 3})
            assert residual(RF(2), RF(0), RF(0), w).is_zero


class TestFamilyTerms:
    """Each parameter enters a family's terms one way: as a rate (a name in a
    term's rate), as the sign, or as an amplitude, whose powers in the terms'
    monomials are the degrees of w in it."""

    INPUTS = [*pool_classify_inputs("classify-ladder", "cli-oneshot"),
              ("trivial-all-zero", RF(0), RF(0), RF(0)),
              ("E.a from beta", -Z * Z, Z, -Z**4 / 4 + Z * Z / 2 + 1)]
    TABLE = {
        ("trivial-all-zero", (("c1", "rate"), ("c2", (1,)))),
        ("A-cosh", (("c1", "rate"), ("C", (-1, 1)))),
        ("A-quadratic", (("c2", (1, 2)),)),
        ("B", (("c1", (1,)),)),
        ("C", (("c1", "rate"), ("c2", (1,)))),
        ("D", (("c1", (1,)),)),
        ("E.a", (("sign", "sign"), ("C", (-1, 1)))),
        ("E.a", (("sign", "sign"), ("k1", "rate"), ("C", (-1, 1)))),
        ("E.b", (("sign", "sign"), ("c1", (1,)))),
        ("E.c", (("c1", (1, 2)),)),
        ("E.d", (("sign", "sign"), ("c1", (1,)))),
        ("E.e", (("c1", (1,)),)),
    }

    @staticmethod
    def kinds(fam) -> tuple:
        rates = {t.rate[1] for t in fam.terms if isinstance(t.rate, tuple)}
        powers: dict[str, set] = {}
        for t in fam.terms:
            for name, power in t.monomial:
                powers.setdefault(name, set()).add(power)
        names = [p.name for p in fam.parameters]
        assert rates | set(powers) <= set(names), fam.case_label
        out = []
        for name in names:
            if name == "sign":
                out.append((name, "sign"))
            elif name in rates:
                out.append((name, "rate"))
            else:
                assert name in powers, (fam.case_label, name)  # every amplitude is read
                out.append((name, tuple(sorted(powers[name]))))
        return tuple(out)

    def test_every_emitted_family_reads_its_parameters_one_way(self):
        seen = {(fam.case_label, self.kinds(fam))
                for _, *coeffs in self.INPUTS for fam in classify(*coeffs).families}
        assert seen == self.TABLE

    def test_the_gate_and_instantiate_build_the_same_members(self, monkeypatch):
        module = importlib.import_module("merosolve.classify")
        gated = []

        def gate(*args):
            gated.append(args[3])
            return residual(*args)

        monkeypatch.setattr(module, "residual", gate)
        for ident, *coeffs in self.INPUTS:
            gated.clear()
            for fam in classify(*coeffs).families:
                members = [instantiate(fam, {k: v if k == "sign" else parse_constant(v)
                                             for k, v in r.assignment})
                           for r in fam.verification]
                # the gate ran exactly these members, in this order
                n = len(members)
                assert any(gated[i:i + n] == members for i in range(len(gated))), ident


class TestClassifySymmetry:
    """ROADMAP item 11: if w solves the equation, v(z) = mu*w(lam*z + s) solves
    it with alpha~ = mu*lam^2*alpha(lam*z + s), beta~ = mu*lam*beta(lam*z + s)
    and gamma~ = mu^2*lam^2*gamma(lam*z + s), so classify must emit the same
    labels, equally admissible, and exit with the same code on both inputs."""

    @staticmethod
    def run(alpha, beta, gamma) -> tuple[int, list]:
        argv = ["classify", "--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma),
                "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        families = json.loads(out.getvalue()).get("families", [])
        return code, [(f["case_label"], f["admissible"]) for f in families]

    def test_the_ladder_is_invariant(self):
        def moved(f: RatFunc, c: FieldConstant) -> RatFunc:
            """c * f(lam*z + s)."""
            def dilate(p: Poly) -> Poly:
                return Poly([x * lam**i for i, x in enumerate(p.shift(s).coeffs)])
            return RatFunc.const(c) * RatFunc(dilate(f.num), dilate(f.den))

        rng = random.Random(11)
        draws = [n for n in range(-4, 5) if n]
        inputs = list(pool_classify_inputs("classify-ladder"))
        assert len(inputs) == 120
        for ident, alpha, beta, gamma in inputs:
            mu, lam = (FieldConstant.of(Fraction(rng.choice(draws), rng.randint(1, 3)))
                       for _ in range(2))
            s = FieldConstant.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            image = (moved(alpha, mu * lam * lam), moved(beta, mu * lam),
                     moved(gamma, mu * mu * lam * lam))
            assert self.run(*image) == self.run(alpha, beta, gamma), (ident, mu, lam, s)


class TestComputeA:
    def test_values(self):
        assert compute_A(RF(1), RF(2), RF(1)) == RF(2)
        assert compute_A(RF(1), RF(0), RF(2)) == RF(0)

    def test_undefined_for_zero_gamma(self):
        with pytest.raises(GammaIdenticallyZeroError):
            compute_A(RF(1), RF(2), RF(0))


class TestApplicableLabels:
    @pytest.mark.parametrize("coeffs,labels", [
        ((RF(0), RF(0), RF(0)), ("trivial-all-zero",)),
        ((RF(2), RF(0), RF(0)), ("A-cosh", "A-quadratic", "C")),
        ((-2 * Z, Z, RF(0)), ("B", "C")),
        ((RF(1), RF(0), RF(2)), ("D", "E.a", "E.b", "E.c", "E.d", "E.e")),
    ])
    def test_signature_partition(self, coeffs, labels):
        assert reference_kernels.applicable_labels(*coeffs) == labels
        rep = classify(*coeffs)
        assert {x.case_label for x in (*rep.families, *rep.rejected_branches)} == set(labels)


class TestOneGatePerLabel:
    @pytest.mark.parametrize(
        "ident,alpha,beta,gamma",
        [pytest.param(*case, id=case[0])
         for case in pool_classify_inputs("classify-ladder", "cli-oneshot")],
    )
    def test_report_order_follows_the_case_table(self, ident, alpha, beta, gamma):
        labels = reference_kernels.applicable_labels(alpha, beta, gamma)
        order = {label: i for i, label in enumerate(labels)}
        rep = classify(alpha, beta, gamma)
        for labels in ([r.case_label for r in rep.rejected_branches],
                       [f.case_label for f in rep.families]):
            ranks = [order[label] for label in labels]
            assert ranks == sorted(ranks), (ident, labels)
        # each label is settled once, by a family or its first failed check;
        # D once per root branch
        entries = Counter(x.case_label for x in (*rep.families, *rep.rejected_branches))
        assert all(entries[label] in ((1, 2) if label == "D" else (1,))
                   for label in order), (ident, entries)

    def test_a_rejected_a_is_rendered_once_per_report(self, monkeypatch):
        module = importlib.import_module("merosolve.classify")
        alpha, beta, gamma = Z * Z + 1, Z, Z**3 - 2
        A, rendered = compute_A(alpha, beta, gamma), []
        real = module.ratfunc_to_str
        monkeypatch.setattr(module, "ratfunc_to_str", lambda f: rendered.append(f) or real(f))
        rep = classify(alpha, beta, gamma)
        text = f"A = {real(A)} is not constant"
        labels = [r.case_label for r in rep.rejected_branches if r.reason == text]
        assert labels == ["E.a", "E.b", "E.c", "E.d", "E.e"]
        assert [f for f in rendered if f == A] == [A]

    def test_ea_warns_when_k2_squared_is_not_constant(self):
        # A forced to 0 against alpha = z, beta = 1, gamma = z^3: k1^2 = -2 is
        # constant, k2^2 is not, and the gate rejects once and warns once
        col = _Collector(Z, RF(1), Z**3)
        col.__dict__["A"] = RatFunc.const(0)
        col.label = "E.a"
        col.run(_case_Ea)
        assert col.families == []
        assert col.rejected == [
            RejectedBranch("E.a", "k2^2 = -1/2*z^3 + 1/4*z^2 + 1/8 is not constant")
        ]
        assert col.warnings == [
            "E.a: k1^2 is constant yet k2^2 is not; this contradicts the "
            "classification derivation and the branch was rejected"
        ]

    def test_a_generic_equation_rejects_every_label_once_in_order(self):
        alpha, beta, gamma = Z * Z + 1, Z, Z**3 - 2
        rep = classify(alpha, beta, gamma)
        assert rep.families == ()
        labels = tuple(r.case_label for r in rep.rejected_branches)
        assert labels == reference_kernels.applicable_labels(alpha, beta, gamma)


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
            assert reference_kernels.eq3_residual(1, 0, 0, Z * Z, f).is_zero

    def test_constant_shift_round_trips(self):
        k0, k1, k2, k3 = RF(-6), RF(2), RF(0), RF(3)
        alpha, beta, gamma = transform_original(k0, k1, k2, k3)
        assert (alpha, beta, gamma) == (RF(2), RF(0), RF(0))
        rep = classify(alpha, beta, gamma)
        assert rep.families
        for fam in rep.families:
            w = instantiate(fam, dict(fam.generic_assignment))
            f = w + ExpSum.from_ratfunc(k3)
            assert reference_kernels.eq3_residual(k0, k1, k2, k3, f).is_zero

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
            assert reference_kernels.eq3_residual(k0, k1, k2, k3, f).is_zero


class TestNonAdmissibleFamilies:
    def test_polynomial_solutions_with_nonconstant_coefficients(self):
        rep = classify(-1, 2 * Z, Z * Z - 1)
        fam = one(rep, "E.d")
        assert fam.closed_form == "w = sign * z + c1 - (1/2*z^2)"
        assert not fam.admissible
        assert all(not f.admissible for f in rep.families)
        w = instantiate(fam, {"sign": "+", "c1": 0})
        assert residual(rep.alpha, rep.beta, rep.gamma, w).is_zero


class TestPolynomialArithmeticCost:
    # the D-rational-3 input of perfbench/data/classify-ladder.json (id #104)
    ALPHA = ("(4*z^5 - 10*z^4 - 61*z^3 + 115*z^2 + 205*z + 47)"
             "/(z^3 - 9*z^2 + 27*z - 27)")
    BETA = "z^2 + 2*z - 1"
    GAMMA = ("(-12*z^8 + 12*z^7 + 243*z^6 - 64*z^5 - 1330*z^4 - 576*z^3 + 343*z^2"
             " - 52*z + 8)/(z^4 - 12*z^3 + 54*z^2 - 108*z + 81)")

    def test_gcd_and_divmod_make_no_field_products(self, monkeypatch):
        inside, products, calls = [], [], []
        real_mul, real_gcd, real_divmod = FieldConstant.__mul__, ratfunc._cofactors, Poly.divmod

        def mul(self, other):
            if inside:
                products.append(other)
            return real_mul(self, other)

        def counted(real):
            def wrapper(*args):
                inside.append(True)
                calls.append(real)
                try:
                    return real(*args)
                finally:
                    inside.pop()
            return wrapper

        monkeypatch.setattr(FieldConstant, "__mul__", mul)
        monkeypatch.setattr(FieldConstant, "__rmul__", mul)
        monkeypatch.setattr(ratfunc, "_cofactors", counted(real_gcd))
        monkeypatch.setattr(Poly, "divmod", counted(real_divmod))
        alpha, beta, gamma = (parse_ratfunc(t) for t in (self.ALPHA, self.BETA, self.GAMMA))
        rep = classify(alpha, beta, gamma)
        assert [f.case_label for f in rep.families] == ["D"]
        assert real_gcd in calls and real_divmod in calls and products == []
        # the counter sees a product made inside either one
        inside.append(True)
        FieldConstant.of(2) * FieldConstant.of(3)
        assert len(products) == 1


# -- an inverse-problem oracle: equations built from a known case D solution -----------


def d_equation(k, beta: RatFunc, t: RatFunc):
    """(alpha, gamma) for which w = c*exp(k*z) + t solves the equation with beta."""
    t1 = t.derivative()
    t2 = t1.derivative()
    alpha = k * k * t + t2 - 2 * k * t1 - k * beta
    return alpha, t * t2 - t1 * t1 - alpha * t - beta * t1


@st.composite
def d_draws(draw, splitting: bool):
    """(k, beta, t) over K = Q or Q(sqrt 5): t = num/den with den a product of at
    most two factors z - r, r in K, or (not splitting) an integer cubic
    z^3 + a*z + b with no rational root, which is irreducible over K."""
    constants = draw(st.sampled_from([rational_constants, extended_constants]))
    k = draw(constants.filter(lambda c: not c.is_zero))
    beta = RatFunc(draw(polys(1, constants)))
    if splitting:
        den = Poly.const(1)
        for r in draw(st.lists(constants, max_size=2)):
            den = den * Poly((-r, FieldConstant.of(1)))
    else:
        a, b = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
            lambda ab: all(r**3 + ab[0] * r + ab[1] for r in range(-9, 10))))
        den = Poly([FieldConstant.of(b), FieldConstant.of(a), FieldConstant.of(0),
                    FieldConstant.of(1)])
    return k, beta, RatFunc(draw(nonzero_polys(2, constants)), den)


def classify_cli(alpha, beta, gamma) -> tuple[int, dict]:
    """The exit code and the JSON families, keyed by label, of the classify verb
    on the printed coefficients."""
    argv = ["classify", "--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma),
            "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, {f["case_label"]: f for f in json.loads(out.getvalue()).get("families", [])}


class TestCaseDOracle:
    def check(self, draw):
        k, beta, t = draw
        alpha, gamma = d_equation(k, beta, t)
        w = ExpSum.exponential(k, 1) + ExpSum.from_ratfunc(t)
        assert residual(alpha, beta, gamma, w).is_zero  # the builder is right
        code, families = classify_cli(alpha, beta, gamma)
        # D needs gamma != 0; with gamma = 0 case C's family holds w
        assert code == 0 and ("D" if not gamma.is_zero else "C") in families

    @settings(max_examples=100)
    @given(d_draws(splitting=True))
    def test_splitting_denominators_give_d(self, draw):
        self.check(draw)

    @settings(max_examples=10)
    @given(d_draws(splitting=False))
    def test_non_splitting_denominators_give_d(self, draw):
        self.check(draw)

    def test_a_tail_over_q_opens_no_extension(self):
        # the poles of 1/(z^2 - 2) are in Q(sqrt 2), but the tail itself is over Q
        alpha, gamma = d_equation(1, RatFunc.const(1), 1 / (Z * Z - 2))
        code, families = classify_cli(alpha, RF(1), gamma)
        assert code == 0 and families["D"]["closed_form"] == "w = c1 * exp(z) + ((1)/(z^2 - 2))"
        assert classify(alpha, RF(1), gamma).extension_used is None


class TestObstructionNamedWithNoExtension:
    # h = 1/f, gamma = -h^2, beta = 0 and alpha = h' - h: D's branch h has
    # k1 = 1 and integrates h*exp(-z), which has a simple pole at each root of f

    @staticmethod
    def report(f: str) -> dict:
        h = 1 / parse_ratfunc(f)
        argv = ["classify", "--alpha", str(h.derivative() - h), "--beta", "0",
                "--gamma", str(-(h * h)), "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 2
        return json.loads(out.getvalue())

    def test_a_pole_in_a_quadratic_field_spends_no_extension(self):
        doc = self.report("z^2 - 2")
        assert doc["rejected_branches"][0]["reason"] == (
            "branch h = (1)/(z^2 - 2): logarithmic obstruction at pole z = -sqrt(2):"
            " accumulated residue coefficient -1/4*sqrt(2) on rate -1")
        assert doc["extension_used"] is None

    def test_a_factor_with_no_root_is_named(self):
        doc = self.report("z^3 - z + 3")
        assert doc["rejected_branches"][0]["reason"] == (
            "branch h = (1)/(z^3 - z + 3): logarithmic obstruction at the roots of"
            " z^3 - z + 3 on rate -1")
        assert "cannot be decomposed" not in json.dumps(doc)

    def test_a_factor_past_trial_division_is_named(self):
        # the roots of f need sqrt(3 - 4*(10^30 + 57)), whose square-free part
        # trial division cannot decide; the solve has refuted the branch already
        f = "z^2 + z + 1000000000000000000000000000057"
        doc = self.report(f)
        assert doc["rejected_branches"][0]["reason"] == (
            f"branch h = (1)/({f}): logarithmic obstruction at the roots of {f} on rate -1")
        assert doc["extension_used"] is None


class TestCaseEOverNonSplittingDenominators:
    # t = 1/(z^3 - z + 3) has no pole in K, yet E.d's and E.e's tails are rational
    T = 1 / (Z**3 - Z + 3)

    def test_ed(self):
        # A = 0, beta' + 2*alpha = 0 and beta^2/4 - gamma = 1: w = sign*z + c1 - t
        t1 = self.T.derivative()
        _, families = classify_cli(-t1.derivative(), 2 * t1, t1 * t1 - 1)
        assert families["E.d"]["closed_form"] == "w = sign * z + c1 - ((1)/(z^3 - z + 3))"

    def test_ee(self):
        # beta^2/4 = gamma and A = 2: w = c1*exp(-z) - t
        t1 = self.T.derivative()
        beta = 2 * (t1 + self.T)
        code, families = classify_cli(self.T - t1.derivative(), beta, beta * beta / 4)
        assert code == 0
        assert families["E.e"]["closed_form"] == "w = c1 * exp(-z) - ((1)/(z^3 - z + 3))"


# -- an inverse-problem oracle: equations built from a known case C solution -----------
# With I = -exp(-c*z)/f, I' = beta*exp(-c*z) for beta = c/f + f'/f^2, so case C's
# w = exp(c*z)*(c2 - I) = c2*exp(c*z) + 1/f solves the equation with alpha = -beta'
# and gamma = 0.  beta has a pole of order m + 1 at each root of f of multiplicity m,
# and the residue of beta*exp(-c1*z) there vanishes at c1 = c.

C_RATES = [FieldConstant.of(Fraction(s * n, d)) for s in (1, -1) for n in (1, 2, 3)
           for d in (1, 2)]


@st.composite
def c_draws(draw):
    """(f, c): f a product of 1-3 factors z - r, r rational, sometimes with a
    repeated factor, and c in +-{1, 2, 3}/{1, 2}."""
    roots = draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                          min_size=1, max_size=3))
    if len(roots) < 3 and draw(st.booleans()):
        roots.append(roots[0])
    f = Poly.const(1)
    for r in roots:
        f = f * Poly((FieldConstant.of(-r), FieldConstant.of(1)))
    return RatFunc(f), draw(st.sampled_from(C_RATES))


class TestCaseCOracle:
    def check(self, f, c):
        beta = c / f + f.derivative() / (f * f)
        alpha, gamma = -beta.derivative(), RatFunc.const(0)
        w = ExpSum.exponential(c, 2) + ExpSum.from_ratfunc(1 / f)
        assert residual(alpha, beta, gamma, w).is_zero  # the builder is right
        code, families = classify_cli(alpha, beta, gamma)
        assert code == 0 and "C" in families
        c1 = families["C"]["parameters"][0]
        assert c1["name"] == "c1" and format_constant(c) in c1["allowed_values"]
        return c1["allowed_values"]

    @settings(max_examples=60)
    @given(c_draws())
    def test_splitting_denominators_give_c(self, draw):
        self.check(*draw)

    # no root of these f lies in Q; those of (z^2 - 2)*(z^2 - 3) lie in two
    # fields, and naming the field of the last one's roots would need
    # factoring a 100-bit discriminant past trial division
    @pytest.mark.parametrize("f", ["z^3 - 2", "z^3 + z/3 + 1", "(z^2 - 2)*(z^2 - 3)",
                                   "z^2 + z + (10^30 + 57)"])
    def test_non_splitting_denominator_gives_c(self, f):
        # verify of exp(z) + 1/f on this equation exits 0; c1 = 1 is the one rate
        # that clears every residue, and finding it opens no extension
        f = parse_ratfunc(f)
        assert self.check(f, FieldConstant.of(1)) == ["1"]
        beta = 1 / f + f.derivative() / (f * f)
        assert classify(-beta.derivative(), beta, RatFunc.const(0)).extension_used is None


@st.composite
def c_rate_draws(draw):
    """beta over K = Q or Q(sqrt 5) whose poles lie in K: S' - c*S for an S
    with poles of order 1-2 (so that c is allowed), plus principal parts of
    order 1-3 at up to two of those poles (mostly obstructing), plus a
    polynomial.  Over Q(sqrt 5), where linear_roots splits no factor of degree
    3 or more, there are at most two poles."""
    extended = draw(st.booleans())
    constants = extended_constants if extended else rational_constants
    poles = draw(st.lists(constants, min_size=1, max_size=2 if extended else 3, unique=True))
    den = Poly.const(1)
    for pole in poles[:2]:
        den = den * Poly((-pole, FieldConstant.of(1))).pow(draw(st.integers(1, 2)))
    s, c = RatFunc(draw(polys(2, constants)), den), draw(constants)
    beta = s.derivative() - s * c + RatFunc(draw(polys(1, constants)))
    for pole in draw(st.lists(st.sampled_from(poles), max_size=2, unique=True)):
        linear = Poly((-pole, FieldConstant.of(1)))
        for k, coeff in enumerate(draw(st.lists(constants, max_size=3)), 1):
            beta = beta + RatFunc(Poly.const(coeff), linear.pow(k))
    return beta


class TestCaseCRates:
    @settings(max_examples=100)
    @given(c_rate_draws().filter(lambda beta: not beta.is_zero))
    def test_root_free_rates_equal_the_residue_rule(self, beta):
        rep = classify(-beta.derivative(), beta, RatFunc.const(0))
        families = by_label(rep).get("C", [])
        got = families[0].parameters[0].allowed_values if families else ()
        assert got == reference_kernels.case_c_rates(beta)
