"""merosolve: exact meromorphic solution classification for
w*w'' - (w')^2 = alpha*w + beta*w' + gamma over rational function coefficients.

The public surface mirrors the four CLI verbs: classify / transform_original
for the decision procedure, residual / integrate_exp and the ExpSum algebra
for verification, and leading_candidates / expand / expand_branches /
branch_resonance for local series analysis.  All arithmetic is exact over Q,
extendable to a single quadratic field Q(sqrt(q)).

Each module loads on first use of a name it exports (PEP 562), so
``import merosolve`` loads none of them, and an exported name is read from its
module each time, never bound onto the package.  ``merosolve.classify`` is the
function, also after ``import merosolve.classify``.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the public names it exports; __all__ and the lazy lookup read this
_EXPORTS = {
    "classify": (
        "ClassificationReport", "ConstraintSet", "Parameter", "RejectedBranch",
        "SolutionFamily", "Term", "VerificationRecord", "classify", "compute_A",
        "instantiate", "transform_original",
    ),
    "errors": (
        "DivisionByZeroError", "DomainViolationError", "ExpressionSyntaxError",
        "GammaIdenticallyZeroError", "IncompatibleExtensionsError", "LimitExceededError",
        "MerosolveError", "NearPoleError", "NestedExtensionError", "PointInPhiError",
        "UnsupportedExtensionError", "ZeroDenominatorLiteralError",
    ),
    "expsum": ("ExpSum", "ObstructionReport", "integrate_exp", "residual"),
    "field": ("ExtensionContext", "FieldConstant", "format_constant", "sqrt_constant"),
    "laurent": ("LaurentExpansion", "ResonanceInfo"),
    "parse": ("RESONANCE_CAP_DEFAULT", "parse_constant", "parse_expsum", "parse_ratfunc"),
    "ratfunc": ("Poly", "RatFunc", "poly_gcd", "poly_to_str", "ratfunc_to_str"),
    "series": ("BranchResonance", "LeadingCandidate", "branch_resonance", "expand",
               "expand_branches", "leading_candidates"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


class _Package(types.ModuleType):
    """Drops the binding the import system makes of a submodule whose name is
    an export, so that __getattr__ reads merosolve.classify as the function."""

    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
