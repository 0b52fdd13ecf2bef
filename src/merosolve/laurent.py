"""Shared record types for local series expansions."""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldConstant


@dataclass(frozen=True)
class ResonanceInfo:
    """How the recurrence's linear factor behaved along one expansion branch.

    r is the index where the factor vanishes per the closed formula
    beta(z0)/a0 + 2 (None when that formula does not apply, i.e. the double
    zero branch p = 2); index is where the engine actually saw the factor
    vanish, when it did within range.
    """

    r: FieldConstant | None
    r_is_positive_integer: bool
    index: int | None = None
    condition_satisfied: bool | None = None
    free_coefficient_index: int | None = None


@dataclass(frozen=True)
class LaurentExpansion:
    """Truncated exact expansion sum a_k * (z - z0)**(p + k), k = 0..N."""

    z0: FieldConstant
    p: int
    coefficients: tuple[FieldConstant, ...]
    truncation_order: int
    resonance: ResonanceInfo | None = None
    # Second continuation when a resonant coefficient is free: same list with
    # the free coefficient instantiated at 1 instead of 0.
    alternate_coefficients: tuple[FieldConstant, ...] | None = None
    halted_at: int | None = None
