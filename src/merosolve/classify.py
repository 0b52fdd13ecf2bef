"""Case-by-case classification of w*w'' - (w')**2 = alpha*w + beta*w' + gamma.

The case table pairs each case label with its one gate, and selects the
labels whose preconditions match the input's (beta == 0?, gamma == 0?)
signature.  A gate writes the candidate solution family from the case
formulas as data: its parameters and a tuple of Terms, each a rate, a
rational coefficient and an amplitude monomial.  A parameter enters as an
amplitude (a factor of a monomial), as a rate (exp(c1*z)) or as the sign
choice, and one substitution, _member, builds every member; instantiate and
the gate both call it.  The gate keeps a family only when its residual
vanishes identically at several distinct parameter instantiations; a family
with a sign parameter is verified at both signs in one run and rejected at
its first failure.  A gate ends at its first failed check: _Collector.reject
logs the check and raises, and _Collector.run, which runs every gate, catches
it, so the report always accounts for every applicable case label.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import mul

from .errors import (
    DomainViolationError,
    GammaIdenticallyZeroError,
    IncompatibleExtensionsError,
    NestedExtensionError,
    UnsupportedExtensionError,
)
from .expsum import ExpSum, ObstructionReport, _rate_str, integrable_rates, integrate_exp, residual
from .field import ZERO, ONE, ExtensionContext, FieldConstant, common_discriminant, format_constant
from .ratfunc import Poly, RatFunc, linear_roots, poly_to_str, ratfunc_to_str

class _ByIdentity:
    """Mixin for a record that compares and hashes by identity, like a plain object."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class ConstraintSet(_ByIdentity, namedtuple(
    "ConstraintSet",
    "A B g h k1_squared k2_squared discriminant case2_constraint",
    defaults=(None,) * 8,
)):
    """Exactly computed branch quantities; None marks the fields that do not apply.

    A, B, h, discriminant and case2_constraint are RatFuncs; g, k1_squared
    and k2_squared are FieldConstants."""

    __slots__ = ()


class Parameter(namedtuple("Parameter", "name domain kind allowed_values",
                           defaults=("any", None))):
    """A family parameter: name, display domain, and validation kind.

    kind is "any", "nonzero", "sign" or "finite"; allowed_values is a tuple
    of FieldConstants or None."""

    __slots__ = ()


class VerificationRecord(namedtuple("VerificationRecord", "assignment residual_zero")):
    """One gate assignment, as ((name, value text), ...), and its verdict."""

    __slots__ = ()


class Term(namedtuple("Term", "rate coeff monomial", defaults=((),))):
    """One term coeff * monomial * exp(rate*z) of every member of a family.

    rate is a FieldConstant, or (r0, name, r1) for r0 + r1*value(name), with
    name the family's rate parameter or "sign" (read as +1 or -1).  coeff is
    a RatFunc, or, where it depends on the rate parameter (case C's
    antiderivative, the free-rate E.a's k2), a function of its value.
    monomial is ((name, power), ...): the amplitudes, the sign, and a rate
    parameter that scales the amplitude (A-cosh's 1/c1^2, the free-rate
    E.a's 1/k1^2)."""

    __slots__ = ()


class SolutionFamily(_ByIdentity, namedtuple(
    "SolutionFamily",
    "case_label parameters closed_form constraints admissible verified "
    "verification terms generic_assignment notes",
    defaults=((), ()),
)):
    """One verified family; its members are the sums of its terms (_member)."""

    __slots__ = ()


class RejectedBranch(namedtuple("RejectedBranch", "case_label reason")):
    __slots__ = ()


class ClassificationReport(_ByIdentity, namedtuple(
    "ClassificationReport",
    "alpha beta gamma families rejected_branches extension_used warnings",
    defaults=((),),
)):
    __slots__ = ()


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
            if not isinstance(v, (int, Fraction, FieldConstant)):
                raise DomainViolationError(
                    f"{p.name} = {v!r} is not an int, Fraction or FieldConstant"
                )
            v = FieldConstant.of(v)
            if p.kind == "nonzero" and v.is_zero:
                raise DomainViolationError(f"{p.name} must be nonzero")
            if p.kind == "finite" and all(v != a for a in p.allowed_values or ()):
                allowed = ", ".join(format_constant(a) for a in p.allowed_values or ())
                raise DomainViolationError(
                    f"{p.name} = {v} is outside the allowed set {{{allowed}}}"
                )
        assignment[p.name] = v
    return _member(family.terms, assignment)


def _member(terms: tuple[Term, ...], assignment: dict) -> ExpSum:
    """The sum of the terms at the assignment: each rate, function coefficient
    and monomial read at the parameters' values, sign as +1 or -1."""
    values = {k: (ONE if v == "+" else -ONE) if k == "sign" else v
              for k, v in assignment.items()}
    out = []
    for rate, coeff, monomial in terms:
        if not isinstance(rate, FieldConstant):
            r0, name, r1 = rate
            rate = r0 + r1 * values[name]
        if not isinstance(coeff, RatFunc):
            coeff = coeff(values[_rate_parameter(terms)])
        if monomial:
            amp = reduce(mul, (values[n] if p == 1 else values[n] ** p for n, p in monomial))
            coeff = coeff * RatFunc.const(amp)
        out.append((rate, coeff))
    return ExpSum(out)


def _rate_parameter(terms: tuple[Term, ...]) -> str | None:
    """The family's rate parameter: the name a rate reads other than sign."""
    return next((t.rate[1] for t in terms
                 if not isinstance(t.rate, FieldConstant) and t.rate[1] != "sign"), None)


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


def _fmt_assignment(assign: dict) -> tuple[tuple[str, str], ...]:
    return tuple((k, v if isinstance(v, str) else format_constant(v)) for k, v in assign.items())


def _assignment_text(assign: dict) -> str:
    return ", ".join(f"{k} = {v}" for k, v in _fmt_assignment(assign))


class _Rejected(Exception):
    """A gate's check failed; _Collector.reject raises it and run catches it."""


class _Collector:
    """Accumulates families and rejections in fixed branch order, and owns
    the report's one extension: ctx starts at the coefficients' field
    (base_q), and the branches' square roots spend it.  label is the case
    label of the gate that runs (classify sets it from the case table); the
    gate's rejections and families carry it.

    A gate ends at its first failed check: reject logs it and raises
    _Rejected, and run, which calls the gate, catches it.  The checks
    (constant, vanishes, lift, integrate, attempt) reject on failure, so a
    gate uses what constant, lift and integrate return with no test."""

    def __init__(self, alpha: RatFunc, beta: RatFunc, gamma: RatFunc):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.base_q = common_discriminant((alpha, beta, gamma)) or None
        self.ctx = ExtensionContext(self.base_q)
        self.label = ""
        self.families: list[SolutionFamily] = []
        self.rejected: list[RejectedBranch] = []
        self.warnings: list[str] = []
        self.text = cache(ratfunc_to_str)  # each value rendered once, the key kept alive

    # the branch quantities, each computed at most once per report
    @cached_property
    def alpha1(self) -> RatFunc:
        return self.alpha.derivative()

    @cached_property
    def beta1(self) -> RatFunc:
        return self.beta.derivative()

    @cached_property
    def beta2(self) -> RatFunc:
        return self.beta1.derivative()

    @cached_property
    def disc(self) -> RatFunc:
        """beta^2 - 4*gamma."""
        return self.beta * self.beta - 4 * self.gamma

    @cached_property
    def A(self) -> RatFunc:
        return compute_A(self.alpha, self.beta, self.gamma)

    def run(self, gate, *args) -> None:
        """gate(self, *args), ended at its first rejection."""
        try:
            gate(self, *args)
        except _Rejected:
            pass

    def reject(self, reason: str):
        """Log the failed check under the running label, and end the gate."""
        self.rejected.append(RejectedBranch(self.label, reason))
        raise _Rejected

    def constant(self, f: RatFunc, name: str) -> FieldConstant:
        """f's value, or reject when f is not constant."""
        v = f.constant_value()
        if v is None:
            self.reject(f"{name} = {self.text(f)} is not constant")
        return v

    def vanishes(self, f: RatFunc, name: str) -> None:
        """Reject unless f is identically zero."""
        if not f.is_zero:
            self.reject(f"{name} = {self.text(f)} does not vanish identically")

    def lift(self, call, *args, leaves: str):
        """call(*args), a square root over the constant field, or reject when
        it leaves the field; `leaves` names what left it ("k1 leaves")."""
        try:
            return call(*args)
        except _LIFT_ERRORS as exc:
            self.reject(f"{leaves} the constant field: {exc}")

    def integrate(self, coeff: RatFunc, rate: FieldConstant, tag: str = "") -> RatFunc:
        """integrate_exp(coeff, rate, self.ctx.q), or reject with the
        obstruction, after `tag`.  integrate_exp names the obstruction in a
        context of its own, so no extension is spent."""
        out = integrate_exp(coeff, rate, self.ctx.q)
        if isinstance(out, ObstructionReport):
            self.reject(f"{tag}{out.describe()}")
        return out

    def attempt(
        self,
        parameters: tuple[Parameter, ...],
        closed_form: str,
        constraints: ConstraintSet,
        terms: tuple[Term, ...],
        assignments: list[dict],
        notes: tuple[str, ...] = (),
    ) -> None:
        """Gate a candidate family by the exact residual of its member at
        every assignment; the first failure rejects the whole family.

        A family with a sign parameter runs every assignment at sign + and
        then at sign -, in one run."""
        if any(p.kind == "sign" for p in parameters):
            assignments = [{**a, "sign": sgn} for sgn in "+-" for a in assignments]
        generic = None
        for assign in assignments:
            try:
                w = _member(terms, assign)
            except _LIFT_ERRORS as exc:
                self.reject(f"instantiation ({_assignment_text(assign)}) leaves the constant "
                            f"field: {exc}")
            except DomainViolationError as exc:
                self.reject(f"instantiation ({_assignment_text(assign)}) violates the domain: "
                            f"{exc}")
            r = residual(self.alpha, self.beta, self.gamma, w)
            if not r.is_zero:
                self.reject(f"residual at ({_assignment_text(assign)}) is {r.to_text()}")
            # judge admissibility on the most generic verified member: the
            # first one built that dominates the coefficients, if any does
            if generic is None and _admissible_member(w, self.alpha, self.beta, self.gamma):
                generic = assign
        self.families.append(SolutionFamily(
            case_label=self.label,
            parameters=parameters,
            closed_form=closed_form,
            constraints=constraints,
            admissible=generic is not None,
            verified=True,
            verification=tuple(VerificationRecord(_fmt_assignment(a), True)
                               for a in assignments),
            terms=terms,
            generic_assignment=tuple((assignments[0] if generic is None else generic).items()),
            notes=notes,
        ))


_ONE = RatFunc.const(ONE)


def _cosh(rate, half, monomial: tuple, offset: Term) -> tuple[Term, ...]:
    """half * monomial * (C * exp(rate z) + (1/C) * exp(-rate z)), and offset;
    rate is a Term's rate."""
    neg = -rate if isinstance(rate, FieldConstant) else (-rate[0], rate[1], -rate[2])
    return (Term(rate, half, (*monomial, ("C", 1))), Term(neg, half, (*monomial, ("C", -1))),
            offset)


def _exp_piece(coeff: str, rate: FieldConstant) -> str:
    """Render 'coeff * exp(rate z)', dropping the exponential at rate zero."""
    if rate.is_zero:
        return coeff
    return f"{coeff} * exp({_rate_str(rate)})"


# -- case branches: one gate per label, run with col.label set --------------------


def _case_trivial(col: _Collector) -> None:
    col.attempt(
        (Parameter("c1", "K"), Parameter("c2", "K")),
        "w = c2 * exp(c1 * z)",
        ConstraintSet(),
        (Term((ZERO, "c1", ONE), _ONE, (("c2", 1),)),),
        [{"c1": ONE, "c2": ONE},
         {"c1": FieldConstant.of(2), "c2": ONE},
         {"c1": ZERO, "c2": FieldConstant.of(2)}],
    )


def _case_A_cosh(col: _Collector) -> None:
    kv = col.constant(col.alpha, "alpha")
    col.attempt(
        (Parameter("c1", "K \\ {0}", "nonzero"), Parameter("C", "K \\ {0}", "nonzero")),
        f"w = ({format_constant(kv)}/c1^2) * (1 + (C * exp(c1 * z) + (1/C) * exp(-c1 * z)) / 2)",
        ConstraintSet(),
        _cosh((ZERO, "c1", ONE), RatFunc.const(kv / 2), (("c1", -2),),
              Term(ZERO, RatFunc.const(kv), (("c1", -2),))),
        [{"c1": ONE, "C": ONE},
         {"c1": FieldConstant.of(2), "C": ONE},
         {"c1": ONE, "C": FieldConstant.of(2)}],
    )


def _quadratic(col: _Collector, av: FieldConstant, name: str, offset: FieldConstant,
               constraints: ConstraintSet, samples: tuple[int, ...]) -> None:
    """Gate w = -(av/2) * (z + name)^2 + offset at name = each sample."""
    half, z = RatFunc.const(-av / 2), RatFunc.z()
    tail = "" if offset.is_zero else f" - ({format_constant(-offset)})"
    col.attempt(
        (Parameter(name, "K"),),
        f"w = -({format_constant(av / 2)}) * (z + {name})^2{tail}",
        constraints,
        (Term(ZERO, half * z * z + RatFunc.const(offset)),
         Term(ZERO, 2 * half * z, ((name, 1),)),
         Term(ZERO, half, ((name, 2),))),
        [{name: FieldConstant.of(c)} for c in samples],
    )


def _case_A_quadratic(col: _Collector) -> None:
    _quadratic(col, col.constant(col.alpha, "alpha"), "c2", ZERO, ConstraintSet(), (0, 1, -1))


def _case_B(col: _Collector) -> None:
    k1v = col.constant(-(col.alpha / col.beta), "-alpha/beta")
    col.attempt(
        (Parameter("c1", "K \\ {0}", "nonzero"),),
        "w = " + _exp_piece("c1", k1v),
        ConstraintSet(case2_constraint=col.alpha + col.beta1),
        (Term(k1v, _ONE, (("c1", 1),)),),
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": FieldConstant.of(3)}],
    )


def _case_C(col: _Collector) -> None:
    beta = col.beta
    constraint = col.alpha + col.beta1
    col.vanishes(constraint, "alpha + beta'")

    # beta*exp(-c1*z) integrates iff c1 = -a for a rate a that integrable_rates allows
    rates = integrable_rates(beta)
    notes: list[str] = []
    allowed: tuple[FieldConstant, ...] | None = None
    if rates is not None:
        g, at_zero = rates
        h = Poly([-c if i % 2 else c for i, c in enumerate(g.coeffs)]).monic()  # g(-c1)
        notes.append(f"the residues of beta*exp(-c1*z) vanish at c1 != 0 iff "
                     f"{poly_to_str(h, 'c1')} = 0")
        _, roots, rem = linear_roots(h, col.ctx)
        allowed = tuple(sorted([r for r, _ in roots] + [ZERO] * at_zero,
                               key=FieldConstant.sort_key))
        if rem.degree > 0:
            notes.append(f"additional residue roots of {poly_to_str(rem, 'c1')} = 0 lie "
                         "outside the constant field")
        if not allowed:
            scope = " in the constant field" if rem.degree > 0 else ""
            col.reject(f"integral obstruction for every c1{scope}: " + "; ".join(
                notes + ["at c1 = 0 beta has a nonzero residue"]))

    def minus_anti(c1: FieldConstant) -> RatFunc:
        anti = integrate_exp(beta, -c1, col.ctx.q)
        if isinstance(anti, ObstructionReport):
            raise DomainViolationError(
                f"c1 = {format_constant(c1)} is obstructed: {anti.describe()}"
            )
        return -anti

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
        params,
        "w = exp(c1 * z) * (c2 - I(z)), I = antiderivative of beta * exp(-c1 * z)",
        ConstraintSet(case2_constraint=constraint),
        (Term((ZERO, "c1", ONE), _ONE, (("c2", 1),)), Term(ZERO, minus_anti)),
        assigns,
        notes=(domain_note, *notes),
    )


def _case_D(col: _Collector) -> None:
    disc = col.disc
    s = col.lift(disc.sqrt, col.ctx, leaves="square root of beta^2 - 4*gamma leaves")
    if s is None:
        col.reject(f"beta^2 - 4*gamma = {ratfunc_to_str(disc)} is not a square in K(z)")
    # each root is a branch of its own: one branch's rejection leaves the other
    double = s.is_zero
    col.run(_D_branch, (-col.beta + s) / 2, double)
    if not double:
        col.run(_D_branch, (-col.beta - s) / 2, double)


def _D_branch(col: _Collector, h: RatFunc, double: bool) -> None:
    """Case D at the root h of h^2 + beta*h + gamma = 0."""
    tag = f"branch h = {ratfunc_to_str(h)}: "
    k1v = col.constant((h.derivative() - col.alpha) / (h + col.beta), f"{tag}k1")
    tail = col.integrate(h, -k1v, tag=tag)
    col.attempt(
        (Parameter("c1", "K"),),
        f"w = {_exp_piece('c1', k1v)} + ({ratfunc_to_str(tail)})",
        ConstraintSet(h=h, discriminant=col.disc),
        (Term(k1v, _ONE, (("c1", 1),)), Term(ZERO, tail)),
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": ZERO}],
        notes=(f"h = {ratfunc_to_str(h)} solves h^2 + beta*h + gamma = 0",)
        + (("double branch: beta^2 - 4*gamma is identically zero",) if double else ()),
    )


# Every E gate first needs A constant, and rejects its own label when it is not.


def _h0(col: _Collector, Av: FieldConstant) -> RatFunc:
    """beta*A/2 - beta' - 2*alpha."""
    return col.beta * RatFunc.const(Av / 2) - col.beta1 - 2 * col.alpha


def _invariant_B(col: _Collector, g: FieldConstant, Av: FieldConstant) -> RatFunc:
    """beta*g + alpha*A + 2*alpha' + beta'' for the branch's constant g."""
    return (
        col.beta * RatFunc.const(g)
        + col.alpha * RatFunc.const(Av)
        + 2 * col.alpha1
        + col.beta2
    )


def _case_Ea(col: _Collector) -> None:
    beta, gamma = col.beta, col.gamma
    Av = col.constant(col.A, "A")
    if not Av.is_zero:
        col.reject(f"A = {format_constant(Av)} is not zero (this branch needs A = 0)")
    bend = col.beta2 + 2 * col.alpha1
    if beta.is_zero:
        col.vanishes(bend, "beta'' + 2*alpha'")
        return _case_Ea_free(col)
    k1sqv = col.constant(-(bend / beta), "k1^2 = -(beta'' + 2*alpha')/beta")
    if k1sqv.is_zero:
        col.reject("k1^2 = 0 (the cosh branch needs a nonzero rate)")
    h0 = _h0(col, Av)
    k2sq_rf = (h0 * h0 / RatFunc.const(4 * k1sqv) + gamma - beta * beta / 4) / RatFunc.const(k1sqv)
    try:
        k2sqv = col.constant(k2sq_rf, "k2^2")
    except _Rejected:
        col.warnings.append(
            f"{col.label}: k1^2 is constant yet k2^2 is not; this contradicts the "
            "classification derivation and the branch was rejected"
        )
        raise
    if k2sqv.is_zero:
        col.reject("k2^2 = 0 (degenerate; the exponential branch E.b covers it)")
    k1, k2 = col.lift(lambda: (col.ctx.sqrt(k1sqv), col.ctx.sqrt(k2sqv)),
                      leaves="k1 or k2 leaves")
    offset = (col.beta1 + 2 * col.alpha) / RatFunc.const(2 * k1sqv)
    col.attempt(
        (Parameter("sign", "{+, -}", "sign"), Parameter("C", "K \\ {0}", "nonzero")),
        f"w = sign * {format_constant(k2)} * (C * exp({_rate_str(k1)}) + "
        f"(1/C) * exp({_rate_str(-k1)})) / 2 + ({ratfunc_to_str(offset)})",
        ConstraintSet(A=col.A, B=_invariant_B(col, k1sqv, Av), g=k1sqv, h=h0,
                      k1_squared=k1sqv, k2_squared=k2sqv),
        _cosh(k1, RatFunc.const(k2 / 2), (("sign", 1),), Term(ZERO, offset)),
        [{"C": ONE}, {"C": FieldConstant.of(2)}, {"C": FieldConstant.of(3)}],
    )


def _case_Ea_free(col: _Collector) -> None:
    """beta = 0 with beta''+2*alpha' = 0: alpha constant, gamma constant as
    A = -gamma'/gamma = 0, and k1 free."""
    av, gv = col.alpha.constant_value(), col.gamma.constant_value()

    @cache
    def k2_of(k1: FieldConstant) -> FieldConstant:
        """sqrt((alpha^2/k1^2 + gamma)/k1^2) within the equation's one extension."""
        k1sq = k1 * k1
        return ExtensionContext(col.base_q).sqrt((av * av / k1sq + gv) / k1sq)

    def half_k2(k1: FieldConstant) -> RatFunc:
        k2 = k2_of(k1)
        if k2.is_zero:
            raise DomainViolationError(
                f"k2 = 0 at k1 = {format_constant(k1)}; not in the cosh branch"
            )
        return RatFunc.const(k2 / 2)

    # pick three k1 samples whose nonzero k2 stays within the one-extension budget
    k1_samples: list[FieldConstant] = []
    for cand in (1, 2, Fraction(1, 2), 3, Fraction(1, 3), 4, Fraction(1, 4), 5):
        v = FieldConstant.of(cand)
        try:
            k2 = k2_of(v)
        except _LIFT_ERRORS:
            continue
        if not k2.is_zero:
            k1_samples.append(v)
        if len(k1_samples) == 3:
            break
    if not k1_samples:
        col.reject(
            "k2 = sqrt((alpha^2/k1^2 + gamma)/k1^2) needs a second field extension "
            "for every sampled k1",
        )
    base = [
        {"k1": k1_samples[i % len(k1_samples)], "C": FieldConstant.of(i + 1)}
        for i in range(3)
    ]
    col.attempt(
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
        ConstraintSet(A=col.A, h=RatFunc.const(-2 * av)),
        _cosh((ZERO, "k1", ONE), half_k2, (("sign", 1),),
              Term(ZERO, RatFunc.const(av), (("k1", -2),))),
        base,
        notes=("k1 is a free parameter; k2 depends on k1 and may require the "
               "quadratic extension",),
    )


def _case_Eb(col: _Collector) -> None:
    disc = col.disc
    Av = col.constant(col.A, "A")
    if disc.is_zero:
        col.reject("beta^2 - 4*gamma vanishes identically (see E.e)")
    h0 = _h0(col, Av)
    k1sqv = col.constant((h0 * h0) / disc, "k1^2")
    if k1sqv.is_zero:
        col.reject("k1^2 = 0 (this branch needs a nonzero k1)")
    k1 = col.lift(col.ctx.sqrt, k1sqv, leaves="k1 leaves")
    m = -h0 / RatFunc.const(2 * k1sqv)
    g = k1sqv - Av * Av / 4
    col.attempt(
        (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K \\ {0}", "nonzero")),
        f"w = c1 * exp((-A/2 sign k1) * z) + ({ratfunc_to_str(m)}), "
        f"A = {format_constant(Av)}, k1 = {format_constant(k1)}",
        ConstraintSet(A=col.A, B=_invariant_B(col, g, Av), g=g, h=h0, k1_squared=k1sqv,
                      k2_squared=ZERO, discriminant=disc),
        (Term((-Av / 2, "sign", k1), _ONE, (("c1", 1),)), Term(ZERO, m)),
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": FieldConstant.of(3)}],
    )


def _case_Ec(col: _Collector) -> None:
    col.constant(col.A, "A")
    av = col.constant(col.alpha, "alpha")
    if av.is_zero:
        col.reject("alpha vanishes identically (this branch needs a nonzero constant alpha)")
    col.vanishes(col.beta, "beta")
    gv = col.constant(col.gamma, "gamma")
    _quadratic(col, av, "c1", -gv / (2 * av),
               ConstraintSet(A=col.A, h=RatFunc.const(-2 * av)), (0, 1, 2))


def _case_Ed(col: _Collector) -> None:
    quarter_disc = col.disc / 4
    Av = col.constant(col.A, "A")
    if quarter_disc.is_zero:
        col.reject("beta^2/4 - gamma vanishes identically (see E.e)")
    k1sqv = col.constant(quarter_disc, "k1^2 = beta^2/4 - gamma")
    if not Av.is_zero:
        col.reject(f"A = {format_constant(Av)} is not zero (this branch needs A = 0)")
    col.vanishes(col.beta1 + 2 * col.alpha, "beta' + 2*alpha")
    k1 = col.lift(col.ctx.sqrt, k1sqv, leaves="k1 leaves")
    half_int = col.integrate(col.beta, ZERO) / 2
    tail = f" - ({ratfunc_to_str(half_int)})" if not half_int.is_zero else ""
    k1_factor = "" if k1 == ONE else f"{format_constant(k1)} * "
    col.attempt(
        (Parameter("sign", "{+, -}", "sign"), Parameter("c1", "K")),
        f"w = sign * {k1_factor}z + c1{tail}",
        ConstraintSet(A=col.A, B=_invariant_B(col, ZERO, Av), g=ZERO,
                      h=RatFunc.of(0), k1_squared=k1sqv, discriminant=col.disc),
        (Term(ZERO, RatFunc.z() * RatFunc.const(k1), (("sign", 1),)),
         Term(ZERO, _ONE, (("c1", 1),)), Term(ZERO, -half_int)),
        [{"c1": ZERO}, {"c1": ONE}, {"c1": FieldConstant.of(2)}],
    )


def _case_Ee(col: _Collector) -> None:
    Av = col.constant(col.A, "A")
    if not col.disc.is_zero:
        col.reject(
            f"beta^2/4 - gamma = {ratfunc_to_str(col.disc / 4)} is not identically zero"
        )
    tail = col.integrate(col.beta / 2, Av / 2)
    mu = -Av / 2
    tail_str = f" - ({ratfunc_to_str(tail)})" if not tail.is_zero else ""
    col.attempt(
        (Parameter("c1", "K"),),
        f"w = {_exp_piece('c1', mu)}{tail_str}",
        ConstraintSet(A=col.A, B=_invariant_B(col, -Av * Av / 4, Av), g=-Av * Av / 4,
                      h=RatFunc.of(0), k1_squared=ZERO, discriminant=RatFunc.of(0)),
        (Term(mu, _ONE, (("c1", 1),)), Term(ZERO, -tail)),
        [{"c1": ONE}, {"c1": FieldConstant.of(2)}, {"c1": ZERO}],
    )


def _case_table(alpha: RatFunc, beta: RatFunc, gamma: RatFunc):
    """The case split: one (label, gate) pair per label that applies to the
    input's signature, in report order.  No other line names a label."""
    if gamma.is_zero and beta.is_zero:
        if alpha.is_zero:
            return (("trivial-all-zero", _case_trivial),)
        return (("A-cosh", _case_A_cosh), ("A-quadratic", _case_A_quadratic), ("C", _case_C))
    if gamma.is_zero:
        return (("B", _case_B), ("C", _case_C))
    return (("D", _case_D), ("E.a", _case_Ea), ("E.b", _case_Eb), ("E.c", _case_Ec),
            ("E.d", _case_Ed), ("E.e", _case_Ee))


def classify(alpha, beta, gamma) -> ClassificationReport:
    """Decide which cases apply and emit every verified solution family."""
    alpha, beta, gamma = RatFunc.of(alpha), RatFunc.of(beta), RatFunc.of(gamma)
    col = _Collector(alpha, beta, gamma)
    for col.label, gate in _case_table(alpha, beta, gamma):
        col.run(gate)

    return ClassificationReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        families=tuple(col.families),
        rejected_branches=tuple(col.rejected),
        extension_used=col.ctx.q,
        warnings=tuple(col.warnings),
    )
