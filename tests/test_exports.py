"""The package's export list matches what the package binds."""

from __future__ import annotations

import types

import merosolve


def test_all_is_exactly_the_public_names_the_package_binds():
    names = merosolve.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(merosolve, name), name
    bound = {
        name for name, value in vars(merosolve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound - {"annotations"}


def test_names_without_a_caller_in_the_package_are_gone():
    from merosolve import errors, expsum

    assert "TranscendentalShiftError" not in merosolve.__all__
    assert not hasattr(errors, "TranscendentalShiftError")
    assert not hasattr(expsum.ExpSum, "laurent_at")
