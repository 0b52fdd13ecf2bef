"""Shared record types for local series expansions."""

from __future__ import annotations

from collections import namedtuple


class ResonanceInfo(namedtuple(
    "ResonanceInfo",
    "r r_is_positive_integer index condition_satisfied free_coefficient_index",
    defaults=(None, None, None),
)):
    """How the recurrence's linear factor behaved along one expansion branch.

    r is the index where the factor vanishes per the closed formula
    beta(z0)/a0 + 2, on every branch (r = 2 on the double zero branch p = 2,
    where beta = 0); index is where the engine actually saw the factor
    vanish, when it did within range.
    """

    __slots__ = ()


class LaurentExpansion(namedtuple(
    "LaurentExpansion",
    "z0 p coefficients truncation_order resonance alternate_coefficients halted_at",
    defaults=(None, None, None),
)):
    """Truncated exact expansion sum a_k * (z - z0)**(p + k), k = 0..N.

    coefficients holds a_0..a_N as FieldConstants.  When a resonant
    coefficient is free, alternate_coefficients is the same list with it
    instantiated at 1 instead of 0; halted_at is the index where a violated
    resonance condition stopped the branch.
    """

    __slots__ = ()

    def conjugate(self) -> LaurentExpansion:
        """The expansion with every constant c replaced by c.conjugate()."""
        info, alternate = self.resonance, self.alternate_coefficients
        if info is not None:
            info = info._replace(r=info.r.conjugate())
        if alternate is not None:
            alternate = tuple(c.conjugate() for c in alternate)
        return self._replace(
            z0=self.z0.conjugate(),
            coefficients=tuple(c.conjugate() for c in self.coefficients),
            resonance=info,
            alternate_coefficients=alternate,
        )
