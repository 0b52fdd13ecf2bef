"""Case-by-case classification of w*w'' - (w')**2 = alpha*w + beta*w' + gamma.

The classifier walks every case whose preconditions match the input's
(beta == 0?, gamma == 0?) signature, builds the candidate solution families
from the case formulas, and keeps only families whose residual vanishes
identically at several distinct parameter instantiations.  Branches that
fail a constraint are logged with the first failing check, so the report
always accounts for every applicable case label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    DomainViolationError,
    GammaIdenticallyZeroError,
    IncompatibleExtensionsError,
    IrreducibleDenominatorError,
    NestedExtensionError,
    UnsupportedExtensionError,
)
from .expsum import ExpSum, ObstructionReport, _rate_str, integrate_exp, residual
from .field import ZERO, ONE, ExtensionContext, FieldConstant, format_constant
from .ratfunc import (
    Poly,
    RatFunc,
    linear_roots,
    poly_gcd,
    poly_to_str,
    ratfunc_to_str,
)

CASE_ORDER = (
    "trivial-all-zero",
    "A-cosh",
    "A-quadratic",
    "B",
    "C",
    "D",
    "E.a",
    "E.b",
    "E.c",
    "E.d",
    "E.e",
)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Exactly computed branch quantities; None marks not-applicable fields."""

    A: RatFunc | None = None
    B: RatFunc | None = None
    g: FieldConstant | None = None
    h: RatFunc | None = None
    k1_squared: FieldConstant | None = None
    k2_squared: FieldConstant | None = None
    discriminant: RatFunc | None = None
    case2_constraint: RatFunc | None = None


@dataclass(frozen=True)
class Parameter:
    """A family parameter: name, display domain, and validation kind."""

    name: str
    domain: str
    kind: str = "any"  # "any" | "nonzero" | "sign" | "finite"
    allowed_values: tuple[FieldConstant, ...] | None = None


@dataclass(frozen=True)
class VerificationRecord:
    assignment: tuple[tuple[str, str], ...]
    residual_zero: bool


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    case_label: str
    parameters: tuple[Parameter, ...]
    closed_form: str
    constraints: ConstraintSet
    admissible: bool
    verified: bool
    verification: tuple[VerificationRecord, ...]
    builder: Callable[[dict], ExpSum] = field(repr=False)
    generic_assignment: tuple[tuple[str, object], ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class RejectedBranch:
    case_label: str
    reason: str


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    alpha: RatFunc
    beta: RatFunc
    gamma: RatFunc
    families: tuple[SolutionFamily, ...]
    rejected_branches: tuple[RejectedBranch, ...]
    extension_used: int | None
    warnings: tuple[str, ...] = ()


# -- coefficient transformations ---------------------------------------------------


def transform_original(
    k0: RatFunc, k1: RatFunc, k2: RatFunc, k3: RatFunc
) -> tuple[RatFunc, RatFunc, RatFunc]:
    """Coefficients (alpha, beta, gamma) for w = f - k3 applied to
    f*f'' - (f')**2 = k0 + k1*f + k2*f' + k3*f''."""
    k0, k1, k2, k3 = (RatFunc.of(k) for k in (k0, k1, k2, k3))
    k3p = k3.derivative()
    alpha = k1 - k3p.derivative()
    beta = k2 + k3p
    gamma = k0 + k1 * k3 + k2 * k3p + k3p * k3p
    return alpha, beta, gamma


def compute_A(alpha: RatFunc, beta: RatFunc, gamma: RatFunc) -> RatFunc:
    """(beta*(alpha + beta') - gamma') / gamma, exactly normalized."""
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    if gamma.is_zero:
        raise GammaIdenticallyZeroError("A is undefined when gamma is identically zero")
    return (beta * (alpha + beta.derivative()) - gamma.derivative()) / gamma


def eq3_residual(
    k0: RatFunc, k1: RatFunc, k2: RatFunc, k3: RatFunc, f: ExpSum
) -> ExpSum:
    """f*f'' - (f')**2 - k0 - k1*f - k2*f' - k3*f'', computed directly."""
    fp = f.derivative()
    fpp = fp.derivative()
    return (
        f * fpp
        - fp * fp
        - ExpSum.from_ratfunc(RatFunc.of(k0))
        - ExpSum.from_ratfunc(RatFunc.of(k1)) * f
        - ExpSum.from_ratfunc(RatFunc.of(k2)) * fp
        - ExpSum.from_ratfunc(RatFunc.of(k3)) * fpp
    )


def applicable_labels(alpha: RatFunc, beta: RatFunc, gamma: RatFunc) -> tuple[str, ...]:
    """Case labels the classifier must account for on this input."""
    return _case_table(alpha, beta, gamma)[0]


# -- instantiation and admissibility ------------------------------------------------


def instantiate(family: SolutionFamily, values: dict) -> ExpSum:
    """Build the family member at the given parameter values."""
    assignment: dict = {}
    names = {p.name for p in family.parameters}
    extra = set(values) - names
    if extra:
        raise DomainViolationError(f"unknown parameter(s): {', '.join(sorted(extra))}")
    for p in family.parameters:
        if p.name not in values:
            raise DomainViolationError(f"missing parameter {p.name}")
        v = values[p.name]
        if p.kind == "sign":
            if v not in ("+", "-"):
                raise DomainViolationError(f"{p.name} must be '+' or '-'")
        else:
            v = v if isinstance(v, FieldConstant) else FieldConstant.of(v)
            if p.kind == "nonzero" and v.is_zero:
                raise DomainViolationError(f"{p.name} must be nonzero")
            if p.kind == "finite" and all(v != a for a in p.allowed_values or ()):
                allowed = ", ".join(format_constant(a) for a in p.allowed_values or ())
                raise DomainViolationError(
                    f"{p.name} = {v} is outside the allowed set {{{allowed}}}"
                )
        assignment[p.name] = v
    return family.builder(assignment)


def _admissible_member(
    w: ExpSum, alpha: RatFunc, beta: RatFunc, gamma: RatFunc
) -> bool:
    """True iff this family member dominates the coefficients.

    A term with nonzero rate makes the solution transcendental over the
    rational coefficients, hence admissible.  With all-constant coefficients
    any non-constant solution is admissible.  A rational solution against
    non-constant rational coefficients grows at the coefficients' rate and
    is not admissible.
    """
    if w.has_nonzero_rate():
        return True
    if all(f.constant_value() is not None for f in (alpha, beta, gamma)):
        part = w.rate_zero_part()
        return part.constant_value() is None
    return False


# -- verification machinery ----------------------------------------------------------

_LIFT_ERRORS = (UnsupportedExtensionError, IncompatibleExtensionsError, NestedExtensionError)


def _fmt_value(v) -> str:
    return v if isinstance(v, str) else format_constant(v)


def _fmt_assignment(assign: dict) -> tuple[tuple[str, str], ...]:
    return tuple((k, _fmt_value(v)) for k, v in assign.items())


def _assignment_text(assign: dict) -> str:
    return ", ".join(f"{k} = {_fmt_value(v)}" for k, v in assign.items())


def _verify(
    alpha: RatFunc,
    beta: RatFunc,
    gamma: RatFunc,
    builder: Callable[[dict], ExpSum],
    assignments: list[dict],
) -> tuple[tuple[VerificationRecord, ...], list[ExpSum], str | None]:
    """Run the residual gate at every assignment.

    Returns (records, members built, failure); members are listed in
    assignment order and all verify when failure is None."""
    records, members = [], []
    for assign in assignments:
        try:
            w = builder(dict(assign))
        except _LIFT_ERRORS as exc:
            records.append(VerificationRecord(_fmt_assignment(assign), False))
            return tuple(records), members, (
                f"instantiation ({_assignment_text(assign)}) leaves the constant "
                f"field: {exc}"
            )
        except DomainViolationError as exc:
            records.append(VerificationRecord(_fmt_assignment(assign), False))
            return tuple(records), members, (
                f"instantiation ({_assignment_text(assign)}) violates the domain: {exc}"
            )
        r = residual(alpha, beta, gamma, w)
        ok = r.is_zero
        records.append(VerificationRecord(_fmt_assignment(assign), ok))
        if not ok:
            return tuple(records), members, (
                f"residual at ({_assignment_text(assign)}) is {r.to_text()}"
            )
        members.append(w)
    return tuple(records), members, None


def _cross_sign(base: list[dict]) -> list[dict]:
    out = []
    for sgn in ("+", "-"):
        for a in base:
            d = dict(a)
            d["sign"] = sgn
            out.append(d)
    return out


class _Collector:
    """Accumulates families and rejections in fixed branch order."""

    def __init__(self, alpha: RatFunc, beta: RatFunc, gamma: RatFunc):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.base_q = _coefficient_extension(alpha, beta, gamma)
        self.families: list[SolutionFamily] = []
        self.rejected: list[RejectedBranch] = []
        self.warnings: list[str] = []

    def reject(self, label: str, reason: str) -> None:
        self.rejected.append(RejectedBranch(label, reason))

    def constant(self, f: RatFunc, name: str, *labels: str) -> FieldConstant | None:
        """f's value when f is constant, else None after rejecting every label."""
        v = f.constant_value()
        if v is None:
            for label in labels:
                self.reject(label, f"{name} = {ratfunc_to_str(f)} is not constant")
        return v

    def vanishes(self, f: RatFunc, name: str, label: str) -> bool:
        """True when f is identically zero, else False after rejecting label."""
        if not f.is_zero:
            self.reject(label, f"{name} = {ratfunc_to_str(f)} does not vanish identically")
        return f.is_zero

    def lift(self, label: str, call, *args, leaves: str, split: str = "", tag: str = ""):
        """call(*args): a square root, root split, partial fraction split or
        exp-integration over the constant field.

        When it leaves the field, or integrates to an obstruction, reject
        `label` and return None.  The reason starts with `tag`; `leaves` names
        what left the field ("k1 leaves") and `split` the function whose
        denominator does not split."""
        try:
            out = call(*args)
        except IrreducibleDenominatorError as exc:
            self.reject(label, f"{tag}{split} cannot be decomposed over the constant field: {exc}")
        except _LIFT_ERRORS as exc:
            self.reject(label, f"{tag}{leaves} the constant field: {exc}")
        else:
            if not isinstance(out, ObstructionReport):
                return out
            self.reject(label, f"{tag}{out.describe()}")
        return None

    def attempt(
        self,
        label: str,
        parameters: tuple[Parameter, ...],
        closed_form: str,
        constraints: ConstraintSet,
        builder: Callable[[dict], ExpSum],
        assignments: list[dict],
        notes: tuple[str, ...] = (),
    ) -> None:
        """Gate a candidate family by the exact residual at every assignment.

        A family containing a sign parameter is verified per sign; a sign
        whose instantiations all fail is logged while the other may still
        be emitted (with a note)."""
        signs = ("+", "-") if any(p.kind == "sign" for p in parameters) else (None,)
        subsets = {sgn: [a for a in assignments if a.get("sign") == sgn] for sgn in signs}
        runs = {sgn: _verify(self.alpha, self.beta, self.gamma, builder, subsets[sgn])
                for sgn in signs}
        good = [sgn for sgn in signs if runs[sgn][2] is None]
        if not good:
            self.reject(label, runs[signs[0]][2])
            return
        if len(good) < len(signs):
            sgn = good[0]
            bad = "-" if sgn == "+" else "+"
            self.reject(label, f"sign {bad} branch: {runs[bad][2]}")
            parameters = tuple(
                Parameter(p.name, f"{{{sgn}}}", p.kind, p.allowed_values)
                if p.kind == "sign" else p
                for p in parameters
            )
            notes += (f"only the {sgn} sign verifies",)
        # judge admissibility on the most generic verified member: the first
        # one built that dominates the coefficients, if any does
        verified = [(a, w) for sgn in good for a, w in zip(subsets[sgn], runs[sgn][1])]
        generic, admissible = verified[0][0], False
        for assign, w in verified:
            if _admissible_member(w, self.alpha, self.beta, self.gamma):
                generic, admissible = assign, True
                break
        self.families.append(SolutionFamily(
            case_label=label,
            parameters=parameters,
            closed_form=closed_form,
            constraints=constraints,
            admissible=admissible,
            verified=True,
            verification=tuple(r for sgn in good for r in runs[sgn][0]),
            builder=builder,
            generic_assignment=tuple(generic.items()),
            notes=notes,
        ))


def _exp_piece(coeff: str, rate: FieldConstant) -> str:
    """Render 'coeff * exp(rate z)', dropping the exponential at rate zero."""
    if rate.is_zero:
        return coeff
    return f"{coeff} * exp({_rate_str(rate)})"


# -- case branches -------------------------------------------------------------------


def _case_trivial(col: _Collector, ctx: ExtensionContext) -> None:
    def build(v: dict) -> ExpSum:
        return ExpSum.exponential(v["c1"], RatFunc.const(v["c2"]))

    col.attempt(
        "trivial-all-zero",
        (Parameter("c1", "K"), Parameter("c2", "K")),
        "w = c2 * exp(c1 * z)",
        ConstraintSet(),
        build,
        [{"c1": ONE, "c2": ONE},
         {"c1": FieldConstant.of(2), "c2": ONE},
         {"c1": ZERO, "c2": FieldConstant.of(2)}],
    )


def _case_A(col: _Collector, ctx: ExtensionContext) -> None:
    kv = col.constant(col.alpha, "alpha", "A-cosh", "A-quadratic")
    if kv is None:
        return
    k = format_constant(kv)

    def build_cosh(v: dict) -> ExpSum:
        c1, C = v["c1"], v["C"]
        if c1.is_zero or C.is_zero:
            raise DomainViolationError("c1 and C must be nonzero")
        amp = kv / (c1 * c1)
        return (
            ExpSum.from_ratfunc(RatFunc.const(amp))
            + ExpSum.exponential(c1, RatFunc.const(amp * C / 2))
            + ExpSum.exponential(-c1, RatFunc.const(amp / C / 2))
        )

    col.attempt(
        "A-cosh",
        (Parameter("c1", "K \\ {0}", "nonzero"), Parameter("C", "K \\ {0}", "nonzero")),
        f"w = ({k}/c1^2) * (1 + (C * exp(c1 * z) + (1/C) * exp(-c1 * z)) / 2)",
        ConstraintSet(),
        build_cosh,
        [{"c1": ONE, "C": ONE},
         {"c1": FieldConstant.of(2), "C": ONE},
         {"c1": ONE, "C": FieldConstant.of(2)}],
    )

    def build_quad(v: dict) -> ExpSum:
        shifted = RatFunc.z() + RatFunc.const(v["c2"])
        return ExpSum.from_ratfunc(shifted * shifted * RatFunc.const(-kv / 2))

    col.attempt(
        "A-quadratic",
        (Parameter("c2", "K"),),
        f"w = -({format_constant(kv / 2)}) * (z + c2)^2",
        ConstraintSet(),
        build_quad,
        [{"c2": ZERO}, {"c2": ONE}, {"c2": FieldConstant.of(-1)}],
    )


def _case_B(col: _Collector, ctx: ExtensionContext) -> None:
    k1v = col.constant(-(col.alpha / col.beta), "-alpha/beta", "B")
    if k1v is None:
        return

    def build(v: dict) -> ExpSum:
        if v["c1"].is_zero:
            raise DomainViolationError("c1 must be nonzero")
        return ExpSum.exponential(k1v, RatFunc.const(v["c1"]))

    col.attempt(
        "B",
        (Parameter("c1", "K \\ {0}", "nonzero"),),
        "w = " + _exp_piece("c1", k1v) + "",
        ConstraintSet(case2_constraint=col.alpha + col.beta.derivative()),
        build,
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": FieldConstant.of(3)}],
    )


def _case_C(col: _Collector, ctx: ExtensionContext) -> None:
    alpha, beta = col.alpha, col.beta
    constraint = alpha + beta.derivative()
    if not col.vanishes(constraint, "alpha + beta'", "C"):
        return

    pf = col.lift("C", beta.partial_fractions, ctx, leaves="beta's poles leave", split="beta")
    if pf is None:
        return
    poles = pf.poles()

    notes: list[str] = []
    allowed: tuple[FieldConstant, ...] | None = None
    if poles:
        # residue of beta*exp(-c1*z) at each pole is a polynomial in -c1;
        # admissible rates c1 are the common roots across all poles
        obstruction_polys = []
        for pole, orders in poles:
            coeffs = [ZERO] * max(orders)
            for order, c in orders.items():
                coeffs[order - 1] = c / math.factorial(order - 1)
            opoly = Poly(coeffs)
            obstruction_polys.append(opoly)
            in_c1 = Poly(
                [c * (1 if i % 2 == 0 else -1) for i, c in enumerate(opoly.coeffs)]
            )
            notes.append(
                f"pole z = {format_constant(pole)}: residue vanishes iff "
                f"{poly_to_str(in_c1, 'c1')} = 0"
            )
        g = obstruction_polys[0]
        for p in obstruction_polys[1:]:
            g = poly_gcd(g, p)
        if g.degree == 0:
            col.reject(
                "C",
                "integral obstruction for every c1: the residue conditions at the "
                "poles of beta have no common root (" + "; ".join(notes) + ")",
            )
            return
        split = col.lift("C", linear_roots, g, ctx, leaves="residue roots leave")
        if split is None:
            return
        _, roots, rem = split
        allowed = tuple(sorted((-r for r, _ in roots), key=lambda c: c.sort_key()))
        if rem.degree > 0:
            notes.append(
                f"additional residue roots of {poly_to_str(rem, 'c1')} = 0 lie "
                "outside the constant field"
            )
        if not allowed:
            col.reject(
                "C",
                "integral obstruction for every c1 in the constant field: "
                + "; ".join(notes),
            )
            return

    def build(v: dict) -> ExpSum:
        c1, c2 = v["c1"], v["c2"]
        anti = integrate_exp(beta, -c1, ctx)
        if isinstance(anti, ObstructionReport):
            raise DomainViolationError(
                f"c1 = {format_constant(c1)} is obstructed: {anti.describe()}"
            )
        return ExpSum.exponential(c1, RatFunc.const(c2)) - ExpSum.exponential(c1, 1) * anti

    if allowed is None:
        params = (Parameter("c1", "K"), Parameter("c2", "K"))
        assigns = [{"c1": ONE, "c2": ZERO},
                   {"c1": FieldConstant.of(2), "c2": ONE},
                   {"c1": ZERO, "c2": FieldConstant.of(2)}]
        domain_note = "c1 ranges over the whole constant field"
    else:
        shown = ", ".join(format_constant(a) for a in allowed)
        params = (Parameter("c1", f"{{{shown}}}", "finite", allowed), Parameter("c2", "K"))
        assigns = [
            {"c1": allowed[i % len(allowed)], "c2": FieldConstant.of(i)} for i in range(3)
        ]
        domain_note = f"c1 restricted to {{{shown}}} by the residue conditions"

    col.attempt(
        "C",
        params,
        "w = exp(c1 * z) * (c2 - I(z)), I = antiderivative of beta * exp(-c1 * z)",
        ConstraintSet(case2_constraint=constraint),
        build,
        assigns,
        notes=(domain_note, *notes),
    )


def _case_D(col: _Collector, ctx: ExtensionContext) -> None:
    alpha, beta, gamma = col.alpha, col.beta, col.gamma
    disc = beta * beta - 4 * gamma
    # RatFunc.sqrt answers None for a non-square, so box it apart from the lift's None
    boxed = col.lift("D", lambda: (disc.sqrt(ctx),),
                     leaves="square root of beta^2 - 4*gamma leaves")
    if boxed is None:
        return
    s = boxed[0]
    if s is None:
        col.reject(
            "D", f"beta^2 - 4*gamma = {ratfunc_to_str(disc)} is not a square in K(z)"
        )
        return
    branches = [("+", (-beta + s) / 2)]
    if not s.is_zero:
        branches.append(("-", (-beta - s) / 2))
    for sgn, h in branches:
        tag = f"branch h = {ratfunc_to_str(h)}: "
        k1v = col.constant((h.derivative() - alpha) / (h + beta), f"{tag}k1", "D")
        if k1v is None:
            continue
        anti = col.lift("D", integrate_exp, h, -k1v, ctx,
                        leaves="integration leaves", split="h", tag=tag)
        if anti is None:
            continue
        rate0 = ExpSum.exponential(k1v, 1) * anti  # single rate-0 term

        def build(v: dict, _k1=k1v, _tail=rate0) -> ExpSum:
            return ExpSum.exponential(_k1, RatFunc.const(v["c1"])) + _tail

        tail_str = ratfunc_to_str(rate0.rate_zero_part())
        col.attempt(
            "D",
            (Parameter("c1", "K"),),
            f"w = {_exp_piece('c1', k1v)} + ({tail_str})",
            ConstraintSet(h=h, discriminant=disc),
            build,
            [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": ZERO}],
            notes=(f"h = {ratfunc_to_str(h)} solves h^2 + beta*h + gamma = 0",)
            + (("double branch: beta^2 - 4*gamma is identically zero",) if s.is_zero else ()),
        )


def _case_E(col: _Collector, ctx: ExtensionContext) -> None:
    alpha, beta, gamma = col.alpha, col.beta, col.gamma
    labels = ("E.a", "E.b", "E.c", "E.d", "E.e")
    Arf = compute_A(alpha, beta, gamma)
    Av = col.constant(Arf, "A", *labels)
    if Av is None:
        return
    h0 = beta * RatFunc.const(Av / 2) - beta.derivative() - 2 * alpha
    disc = beta * beta - 4 * gamma
    quarter_disc = beta * beta / 4 - gamma

    _case_Ea(col, ctx, Arf, Av, h0)
    _case_Eb(col, ctx, Arf, Av, h0, disc)
    _case_Ec(col, Arf, Av)
    _case_Ed(col, ctx, Arf, Av, quarter_disc)
    _case_Ee(col, ctx, Arf, Av, quarter_disc)


def _case_Ea(col, ctx, Arf, Av, h0) -> None:
    alpha, beta, gamma = col.alpha, col.beta, col.gamma
    if not Av.is_zero:
        col.reject("E.a", f"A = {format_constant(Av)} is not zero (this branch needs A = 0)")
        return
    bend = beta.derivative().derivative() + 2 * alpha.derivative()
    if beta.is_zero:
        if col.vanishes(bend, "beta'' + 2*alpha'", "E.a"):
            _case_Ea_free(col, Arf)
        return
    k1sqv = col.constant(-(bend / beta), "k1^2 = -(beta'' + 2*alpha')/beta", "E.a")
    if k1sqv is None:
        return
    if k1sqv.is_zero:
        col.reject("E.a", "k1^2 = 0 (the cosh branch needs a nonzero rate)")
        return
    k2sq_rf = (h0 * h0 / RatFunc.const(4 * k1sqv) + gamma - beta * beta / 4) / RatFunc.const(k1sqv)
    k2sqv = col.constant(k2sq_rf, "k2^2", "E.a")
    if k2sqv is None:
        col.warnings.append(
            "E.a: k1^2 is constant yet k2^2 is not; this contradicts the "
            "classification derivation and the branch was rejected"
        )
        return
    if k2sqv.is_zero:
        col.reject("E.a", "k2^2 = 0 (degenerate; the exponential branch E.b covers it)")
        return
    roots = col.lift("E.a", lambda: (ctx.sqrt(k1sqv), ctx.sqrt(k2sqv)), leaves="k1 or k2 leaves")
    if roots is None:
        return
    k1, k2 = roots
    offset = (beta.derivative() + 2 * alpha) / RatFunc.const(2 * k1sqv)

    def build(v: dict) -> ExpSum:
        C = v["C"]
        if C.is_zero:
            raise DomainViolationError("C must be nonzero")
        s = ONE if v["sign"] == "+" else -ONE
        half = s * k2 / 2
        return (
            ExpSum.exponential(k1, RatFunc.const(half * C))
            + ExpSum.exponential(-k1, RatFunc.const(half / C))
            + ExpSum.from_ratfunc(offset)
        )

    col.attempt(
        "E.a",
        (Parameter("sign", "{+, -}", "sign"), Parameter("C", "K \\ {0}", "nonzero")),
        f"w = sign * {format_constant(k2)} * (C * exp({_rate_str(k1)}) + "
        f"(1/C) * exp({_rate_str(-k1)})) / 2 + ({ratfunc_to_str(offset)})",
        ConstraintSet(A=Arf, B=_invariant_B(col, k1sqv, Av), g=k1sqv, h=h0,
                      k1_squared=k1sqv, k2_squared=k2sqv),
        build,
        _cross_sign([{"C": ONE}, {"C": FieldConstant.of(2)}, {"C": FieldConstant.of(3)}]),
    )


def _case_Ea_free(col, Arf) -> None:
    """beta = 0 with beta''+2*alpha' = 0: alpha, gamma constant, k1 free."""
    alpha, gamma = col.alpha, col.gamma
    av = alpha.constant_value()
    gv = gamma.constant_value()
    if av is None or gv is None:
        # beta = 0 and 2*alpha' = 0 force alpha constant; gamma then must be
        # constant for A = -gamma'/gamma = 0
        which = "alpha" if av is None else "gamma"
        col.reject("E.a", f"{which} is not constant on the free-rate branch")
        return

    def k2sq_of(k1: FieldConstant) -> FieldConstant:
        k1sq = k1 * k1
        return (av * av / k1sq + gv) / k1sq

    def build(v: dict) -> ExpSum:
        k1, C = v["k1"], v["C"]
        if k1.is_zero or C.is_zero:
            raise DomainViolationError("k1 and C must be nonzero")
        k2sq = k2sq_of(k1)
        if k2sq.is_zero:
            raise DomainViolationError(
                f"k2 = 0 at k1 = {format_constant(k1)}; not in the cosh branch"
            )
        local = ExtensionContext(col.base_q)
        k2 = local.sqrt(k2sq)
        s = ONE if v["sign"] == "+" else -ONE
        half = s * k2 / 2
        return (
            ExpSum.exponential(k1, RatFunc.const(half * C))
            + ExpSum.exponential(-k1, RatFunc.const(half / C))
            + ExpSum.from_ratfunc(RatFunc.const(av / (k1 * k1)))
        )

    # pick three k1 samples whose k2 stays within the one-extension budget
    k1_samples: list[FieldConstant] = []
    for cand in (1, 2, Fraction(1, 2), 3, Fraction(1, 3), 4, Fraction(1, 4), 5):
        v = FieldConstant.of(cand)
        k2sq = k2sq_of(v)
        if k2sq.is_zero:
            continue
        try:
            ExtensionContext(col.base_q).sqrt(k2sq)
        except _LIFT_ERRORS:
            continue
        k1_samples.append(v)
        if len(k1_samples) == 3:
            break
    if not k1_samples:
        col.reject(
            "E.a",
            "k2 = sqrt((alpha^2/k1^2 + gamma)/k1^2) needs a second field extension "
            "for every sampled k1",
        )
        return
    base = [
        {"k1": k1_samples[i % len(k1_samples)], "C": FieldConstant.of(i + 1)}
        for i in range(3)
    ]
    col.attempt(
        "E.a",
        (
            Parameter("sign", "{+, -}", "sign"),
            Parameter("k1", "K \\ {0}", "nonzero"),
            Parameter("C", "K \\ {0}", "nonzero"),
        ),
        "w = sign * k2 * (C * exp(k1 * z) + (1/C) * exp(-k1 * z)) / 2"
        + ("" if av.is_zero else f" + ({format_constant(av)})/k1^2")
        + ", with k2^2 = ("
        + ("" if av.is_zero else f"({format_constant(av)})^2/k1^2 + ")
        + f"({format_constant(gv)}))/k1^2 and k1 a free nonzero constant",
        ConstraintSet(A=Arf, h=RatFunc.const(-2 * av)),
        build,
        _cross_sign(base),
        notes=("k1 is a free parameter; k2 depends on k1 and may require the "
               "quadratic extension",),
    )


def _invariant_B(col, g: FieldConstant, Av: FieldConstant) -> RatFunc:
    """beta*g + alpha*A + 2*alpha' + beta'' for the branch's constant g."""
    return (
        col.beta * RatFunc.const(g)
        + col.alpha * RatFunc.const(Av)
        + 2 * col.alpha.derivative()
        + col.beta.derivative().derivative()
    )


def _case_Eb(col, ctx, Arf, Av, h0, disc) -> None:
    if disc.is_zero:
        col.reject("E.b", "beta^2 - 4*gamma vanishes identically (see E.e)")
        return
    k1sqv = col.constant((h0 * h0) / disc, "k1^2", "E.b")
    if k1sqv is None:
        return
    if k1sqv.is_zero:
        col.reject("E.b", "k1^2 = 0 (this branch needs a nonzero k1)")
        return
    k1 = col.lift("E.b", ctx.sqrt, k1sqv, leaves="k1 leaves")
    if k1 is None:
        return
    m = -h0 / RatFunc.const(2 * k1sqv)
    lam = {"+": -Av / 2 + k1, "-": -Av / 2 - k1}

    def build(v: dict) -> ExpSum:
        if v["c1"].is_zero:
            raise DomainViolationError("c1 must be nonzero")
        return ExpSum.exponential(lam[v["sign"]], RatFunc.const(v["c1"])) + ExpSum.from_ratfunc(m)

    col.attempt(
        "E.b",
        (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K \\ {0}", "nonzero")),
        f"w = c1 * exp((-A/2 sign k1) * z) + ({ratfunc_to_str(m)}), "
        f"A = {format_constant(Av)}, k1 = {format_constant(k1)}",
        ConstraintSet(A=Arf, B=_invariant_B(col, k1sqv - Av * Av / 4, Av),
                      g=k1sqv - Av * Av / 4, h=h0, k1_squared=k1sqv,
                      k2_squared=ZERO, discriminant=disc),
        build,
        _cross_sign([{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": FieldConstant.of(3)}]),
    )


def _case_Ec(col, Arf, Av) -> None:
    alpha, beta, gamma = col.alpha, col.beta, col.gamma
    av = col.constant(alpha, "alpha", "E.c")
    if av is None:
        return
    if av.is_zero:
        col.reject("E.c", "alpha vanishes identically (this branch needs a nonzero constant alpha)")
        return
    if not col.vanishes(beta, "beta", "E.c"):
        return
    gv = col.constant(gamma, "gamma", "E.c")
    if gv is None:
        return

    def build(v: dict) -> ExpSum:
        shifted = RatFunc.z() + RatFunc.const(v["c1"])
        return ExpSum.from_ratfunc(
            shifted * shifted * RatFunc.const(-av / 2) + RatFunc.const(-gv / (2 * av))
        )

    col.attempt(
        "E.c",
        (Parameter("c1", "K"),),
        f"w = -({format_constant(av / 2)}) * (z + c1)^2 "
        f"- ({format_constant(gv / (2 * av))})",
        ConstraintSet(A=Arf, h=RatFunc.const(-2 * av)),
        build,
        [{"c1": ZERO}, {"c1": ONE}, {"c1": FieldConstant.of(2)}],
    )


def _case_Ed(col, ctx, Arf, Av, quarter_disc) -> None:
    alpha, beta = col.alpha, col.beta
    if quarter_disc.is_zero:
        col.reject("E.d", "beta^2/4 - gamma vanishes identically (see E.e)")
        return
    k1sqv = col.constant(quarter_disc, "k1^2 = beta^2/4 - gamma", "E.d")
    if k1sqv is None:
        return
    if not Av.is_zero:
        col.reject("E.d", f"A = {format_constant(Av)} is not zero (this branch needs A = 0)")
        return
    if not col.vanishes(beta.derivative() + 2 * alpha, "beta' + 2*alpha", "E.d"):
        return
    k1 = col.lift("E.d", ctx.sqrt, k1sqv, leaves="k1 leaves")
    if k1 is None:
        return
    anti = col.lift("E.d", integrate_exp, beta, ZERO, ctx,
                    leaves="integration leaves", split="beta")
    if anti is None:
        return
    half_int = anti.rate_zero_part() / 2

    def build(v: dict) -> ExpSum:
        s = k1 if v["sign"] == "+" else -k1
        return ExpSum.from_ratfunc(
            RatFunc.z() * RatFunc.const(s) + RatFunc.const(v["c1"]) - half_int
        )

    tail = f" - ({ratfunc_to_str(half_int)})" if not half_int.is_zero else ""
    k1_factor = "" if k1 == ONE else f"{format_constant(k1)} * "
    col.attempt(
        "E.d",
        (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K")),
        f"w = sign * {k1_factor}z + c1{tail}",
        ConstraintSet(A=Arf, B=_invariant_B(col, ZERO, Av), g=ZERO,
                      h=RatFunc.of(0), k1_squared=k1sqv, discriminant=quarter_disc * 4),
        build,
        _cross_sign([{"c1": ZERO}, {"c1": ONE}, {"c1": FieldConstant.of(2)}]),
    )


def _case_Ee(col, ctx, Arf, Av, quarter_disc) -> None:
    beta = col.beta
    if not quarter_disc.is_zero:
        col.reject(
            "E.e",
            f"beta^2/4 - gamma = {ratfunc_to_str(quarter_disc)} is not identically zero",
        )
        return
    anti = col.lift("E.e", integrate_exp, beta / 2, Av / 2, ctx,
                    leaves="integration leaves", split="beta")
    if anti is None:
        return
    mu = -Av / 2
    tail = ExpSum.exponential(mu, 1) * anti  # rate-0 term

    def build(v: dict) -> ExpSum:
        return ExpSum.exponential(mu, RatFunc.const(v["c1"])) - tail

    tail_rf = tail.rate_zero_part()
    tail_str = f" - ({ratfunc_to_str(tail_rf)})" if not tail_rf.is_zero else ""
    col.attempt(
        "E.e",
        (Parameter("c1", "K"),),
        f"w = {_exp_piece('c1', mu)}{tail_str}",
        ConstraintSet(A=Arf, B=_invariant_B(col, -Av * Av / 4, Av), g=-Av * Av / 4,
                      h=RatFunc.of(0), k1_squared=ZERO, discriminant=RatFunc.of(0)),
        build,
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": ZERO}],
    )


def _coefficient_extension(alpha: RatFunc, beta: RatFunc, gamma: RatFunc) -> int | None:
    for f in (alpha, beta, gamma):
        for p in (f.num, f.den):
            for c in p.coeffs:
                if c.q != 0:
                    return c.q
    return None


def _case_table(alpha: RatFunc, beta: RatFunc, gamma: RatFunc):
    """The case split: (labels, branches) for the input's signature, in order."""
    if gamma.is_zero and beta.is_zero:
        if alpha.is_zero:
            return ("trivial-all-zero",), (_case_trivial,)
        return ("A-cosh", "A-quadratic", "C"), (_case_A, _case_C)
    if gamma.is_zero:
        return ("B", "C"), (_case_B, _case_C)
    return ("D", "E.a", "E.b", "E.c", "E.d", "E.e"), (_case_D, _case_E)


def classify(alpha, beta, gamma) -> ClassificationReport:
    """Decide which cases apply and emit every verified solution family."""
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    col = _Collector(alpha, beta, gamma)
    ctx = ExtensionContext(col.base_q)
    for branch in _case_table(alpha, beta, gamma)[1]:
        branch(col, ctx)

    return ClassificationReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        families=tuple(col.families),
        rejected_branches=tuple(col.rejected),
        extension_used=ctx.q,
        warnings=tuple(col.warnings),
    )
