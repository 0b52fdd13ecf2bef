"""The record types: constructors, immutability, equality, and a light import path."""

from __future__ import annotations

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import merosolve
from merosolve.classify import (
    ClassificationReport,
    ConstraintSet,
    Parameter,
    RejectedBranch,
    SolutionFamily,
    Term,
    VerificationRecord,
)
from merosolve.expsum import ObstructionReport
from merosolve.field import ONE, ZERO, FieldConstant
from merosolve.laurent import LaurentExpansion, ResonanceInfo
from merosolve.ratfunc import RatFunc
from merosolve.series import BranchResonance, LeadingCandidate


def _records():
    """Per record type, one field name and a factory; two calls of the
    factory give equal but distinct records."""
    z = RatFunc.z()

    def half():
        return FieldConstant(Fraction(1, 2), Fraction(3), 8)

    def cand():
        return LeadingCandidate(1, half())

    return {
        "FieldConstant": ("a", half),
        "ConstraintSet": ("A", lambda: ConstraintSet(A=z, g=half())),
        "Parameter": ("name", lambda: Parameter("C", "nonzero constant", "nonzero")),
        "VerificationRecord": ("residual_zero", lambda: VerificationRecord((("c1", "1"),), True)),
        "SolutionFamily": ("terms", lambda: SolutionFamily(
            "B", (Parameter("c1", "C"),), "c1*exp(z)", ConstraintSet(), True, True,
            (), (Term(ONE, RatFunc.of(1), (("c1", 1),)),))),
        "RejectedBranch": ("reason", lambda: RejectedBranch("D", "gamma is zero")),
        "Term": ("monomial", lambda: Term((ZERO, "c1", ONE), z, (("C", -1),))),
        "ClassificationReport": ("families",
                                 lambda: ClassificationReport(z, z, z, (), (), None)),
        "ObstructionReport": ("rate", lambda: ObstructionReport(half(), ONE, half())),
        "LeadingCandidate": ("a0", cand),
        "BranchResonance": ("status",
                            lambda: BranchResonance(cand(), "no-resonance")),
        "ResonanceInfo": ("index", lambda: ResonanceInfo(half(), False, 3)),
        "LaurentExpansion": ("coefficients",
                             lambda: LaurentExpansion(ZERO, 1, (half(), ONE), 1)),
    }


# records the package compares by identity, as plain objects
IDENTITY = {"ConstraintSet", "SolutionFamily", "ClassificationReport"}
RECORDS = sorted(_records())


def test_every_record_type_is_covered():
    # every exported namedtuple class, and FieldConstant, has a factory
    exported = {name for name in merosolve.__all__
                if isinstance(obj := getattr(merosolve, name), type)
                and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert set(RECORDS) == exported | {"FieldConstant"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    field, make = _records()[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", [n for n in RECORDS if n not in IDENTITY])
def test_value_records_compare_and_hash_by_value(name):
    make = _records()[name][1]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_identity_records_compare_by_identity(name):
    make = _records()[name][1]
    x, y = make(), make()
    assert x == x and x != y
    assert len({x, y, x}) == 2


def test_constructors_keep_their_defaults():
    assert Parameter("c1", "C") == Parameter(name="c1", domain="C", kind="any",
                                             allowed_values=None)
    empty = ConstraintSet()
    assert empty.A is None and empty.case2_constraint is None
    family = SolutionFamily("B", (), "", ConstraintSet(), True, True, (), ())
    assert family.generic_assignment == () and family.notes == ()
    assert Term(ONE, RatFunc.of(1)).monomial == ()
    assert ClassificationReport(None, None, None, (), (), 2).warnings == ()
    cand = LeadingCandidate(p=2, a0=ONE)
    assert cand == LeadingCandidate(2, ONE, None) and cand.note is None
    res = BranchResonance(cand, "cap-exceeded")
    assert (res.condition_satisfied, res.free_coefficient_index) == (None, None)
    two = FieldConstant.of(2)
    assert ResonanceInfo(two, True) == ResonanceInfo(two, True, None, None, None)
    exp = LaurentExpansion(ZERO, 1, (ONE,), 3)
    assert (exp.resonance, exp.alternate_coefficients, exp.halted_at) == (None, None, None)
    with pytest.raises(TypeError):
        RejectedBranch("D")


def test_field_constant_constructor_and_copies():
    c = FieldConstant(Fraction(1), Fraction(2), 8)  # 1 + 2*sqrt(8) = 1 + 4*sqrt(2)
    assert (c.a, c.b, c.q) == (1, 4, 2)
    assert FieldConstant(a=Fraction(3)) == FieldConstant(3, 0, 0) == FieldConstant.of(3)
    assert repr(c) == "FieldConstant(1 + 4*sqrt(2))"
    assert c != (c.a, c.b, c.q)
    for other in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert other == c and hash(other) == hash(c)


def _run_fresh(script: str) -> None:
    """Run script in a fresh interpreter without site, which would import some
    modules itself; loaded() is the set of merosolve submodules loaded so far."""
    src = str(Path(merosolve.__file__).resolve().parent.parent)
    preamble = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "def loaded():\n"
        "    return {m.split('.')[1] for m in sys.modules if m.startswith('merosolve.')}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", preamble + script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_dataclasses_or_typing():
    _run_fresh(
        "import merosolve.cli\n"
        "code = merosolve.cli.main(['classify', '--alpha', '2', '--beta', '0',\n"
        "                           '--gamma', '0', '--json'])\n"
        "assert code == 0, code\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)\n"
        "assert not heavy, sorted(heavy)\n"
    )


def test_importing_the_package_or_the_cli_loads_no_verb_module():
    _run_fresh(
        "import merosolve\n"
        "assert not loaded(), sorted(loaded())\n"
        "import merosolve.cli\n"
        "assert not {'classify', 'series'} & loaded(), sorted(loaded())\n"
    )


_CLASSIFY = ["--alpha", "2", "--beta", "0", "--gamma", "0"]


@pytest.mark.parametrize("argv, skipped", [
    (["classify", *_CLASSIFY], {"series"}),
    (["transform", "--k0", "0", "--k1", "2", "--k2", "0", "--k3", "0", "--then-classify"],
     {"series"}),
    (["verify", "--alpha", "0", "--beta", "0", "--gamma", "0", "--solution", "exp(z)"],
     {"classify", "series"}),
    (["expand", *_CLASSIFY, "--at", "1", "--order", "3"], {"classify"}),
], ids=["classify", "transform", "verify", "expand"])
def test_each_verb_loads_only_its_modules(argv, skipped):
    _run_fresh(
        "import io, contextlib\n"
        "import merosolve.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = merosolve.cli.main({[*argv, '--json']!r})\n"
        "assert code == 0, code\n"
        f"assert not {skipped!r} & loaded(), sorted(loaded())\n"
    )


def test_the_package_resolves_classify_to_the_function_not_the_module():
    _run_fresh(
        "import merosolve.classify\n"
        "assert callable(merosolve.classify), merosolve.classify\n"
        "assert merosolve.classify is sys.modules['merosolve.classify'].classify\n"
    )
    _run_fresh(
        "import io, contextlib\n"
        "import merosolve, merosolve.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    merosolve.cli.main({['classify', *_CLASSIFY]!r})\n"
        "assert 'classify' in loaded() and 'classify' not in vars(merosolve)\n"
        "assert merosolve.classify is sys.modules['merosolve.classify'].classify\n"
    )


def test_star_import_binds_every_exported_name():
    _run_fresh(
        "import merosolve\n"
        "namespace = {}\n"
        "exec('from merosolve import *', namespace)\n"
        "missing = set(merosolve.__all__) - set(namespace)\n"
        "assert not missing, sorted(missing)\n"
        "assert namespace['classify'] is merosolve.classify and callable(namespace['classify'])\n"
    )


def test_expand_leaves_expsum_unloaded():
    # parse imports expsum only to build an ExpSum, which expand never does
    _run_fresh(
        "import io, contextlib\n"
        "import merosolve.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = merosolve.cli.main(['expand', '--alpha', '1/(z+3)', '--beta', 'z^2-2',\n"
        "                               '--gamma', '(z+2)/(z^2+3)', '--at', '1',\n"
        "                               '--order', '6', '--json'])\n"
        "assert code == 0, code\n"
        "assert 'series' in loaded() and 'expsum' not in loaded(), sorted(loaded())\n"
    )


def test_text_reports_load_no_json():
    # the README's first classify example, whose --json bytes the cli-oneshot
    # pool pins; json loads with the first --json report and not before
    pool = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "cli-oneshot.json"
    argv = ["classify", "--alpha", "2", "--beta", "0", "--gamma", "0"]
    golden = next(e["sha256"] for e in json.loads(pool.read_text(encoding="utf-8"))["entries"]
                  if e["argv"] == [*argv, "--json"])
    _run_fresh(
        "import io, contextlib, hashlib\n"
        "import merosolve.cli\n"
        "for mode in ('--text', '--json'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        f"        code = merosolve.cli.main({argv!r} + [mode])\n"
        "    assert code == 0, code\n"
        "    assert ('json' in sys.modules) == (mode == '--json'), mode\n"
        "digest = hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest()\n"
        f"assert digest == {golden!r}, digest\n"
    )
