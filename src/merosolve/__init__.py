"""merosolve: exact meromorphic solution classification for
w*w'' - (w')^2 = alpha*w + beta*w' + gamma over rational function coefficients.

The public surface mirrors the four CLI verbs: classify / transform_original
for the decision procedure, residual / integrate_exp and the ExpSum algebra
for verification, and leading_candidates / expand / branch_resonance /
resonance_report for local series analysis.  All arithmetic is exact over
Q, extendable to a single quadratic field Q(sqrt(q)).
"""

from __future__ import annotations

from .classify import (
    ClassificationReport,
    ConstraintSet,
    Parameter,
    RejectedBranch,
    SolutionFamily,
    VerificationRecord,
    applicable_labels,
    classify,
    compute_A,
    eq3_residual,
    instantiate,
    transform_original,
)
from .errors import (
    DivisionByZeroError,
    DomainViolationError,
    ExpressionSyntaxError,
    GammaIdenticallyZeroError,
    IncompatibleExtensionsError,
    IrreducibleDenominatorError,
    LimitExceededError,
    MerosolveError,
    NearPoleError,
    NestedExtensionError,
    PointInPhiError,
    PoleAtPointError,
    TranscendentalShiftError,
    UnsupportedExtensionError,
    ZeroDenominatorLiteralError,
)
from .expsum import (
    ExpSum,
    ObstructionReport,
    guarded_sample_points,
    integrate_exp,
    numeric_residual_bound_ok,
    residual,
    residual_is_zero,
)
from .field import (
    ExtensionContext,
    FieldConstant,
    format_constant,
    sqrt_constant,
)
from .laurent import LaurentExpansion, ResonanceInfo
from .parse import parse_constant, parse_expsum, parse_ratfunc
from .ratfunc import (
    PartialFractionForm,
    Poly,
    RatFunc,
    in_excluded_set,
    linear_roots,
    poly_gcd,
    poly_to_str,
    ratfunc_to_str,
)
from .series import (
    RESONANCE_CAP_DEFAULT,
    BranchResonance,
    LeadingCandidate,
    branch_resonance,
    expand,
    leading_candidates,
    resonance_report,
)

__version__ = "0.1.0"

__all__ = [
    "BranchResonance",
    "ClassificationReport",
    "ConstraintSet",
    "DivisionByZeroError",
    "DomainViolationError",
    "ExpSum",
    "ExpressionSyntaxError",
    "ExtensionContext",
    "FieldConstant",
    "GammaIdenticallyZeroError",
    "IncompatibleExtensionsError",
    "IrreducibleDenominatorError",
    "LaurentExpansion",
    "LeadingCandidate",
    "LimitExceededError",
    "MerosolveError",
    "NearPoleError",
    "NestedExtensionError",
    "ObstructionReport",
    "Parameter",
    "PartialFractionForm",
    "PointInPhiError",
    "Poly",
    "PoleAtPointError",
    "RESONANCE_CAP_DEFAULT",
    "RatFunc",
    "RejectedBranch",
    "ResonanceInfo",
    "SolutionFamily",
    "TranscendentalShiftError",
    "UnsupportedExtensionError",
    "VerificationRecord",
    "ZeroDenominatorLiteralError",
    "applicable_labels",
    "branch_resonance",
    "classify",
    "compute_A",
    "eq3_residual",
    "expand",
    "format_constant",
    "guarded_sample_points",
    "in_excluded_set",
    "instantiate",
    "integrate_exp",
    "leading_candidates",
    "linear_roots",
    "numeric_residual_bound_ok",
    "parse_constant",
    "parse_expsum",
    "parse_ratfunc",
    "poly_gcd",
    "poly_to_str",
    "ratfunc_to_str",
    "residual",
    "residual_is_zero",
    "resonance_report",
    "sqrt_constant",
    "transform_original",
]
