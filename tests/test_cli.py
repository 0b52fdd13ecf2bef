"""Command line interface: exit codes, document shapes, schema, determinism."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import merosolve
from merosolve import cli, errors, ratfunc, series
from merosolve.cli import _fold_dash_values, main
from merosolve.ratfunc import RatFunc, ratfunc_to_str

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json")
    .read_text()
)
Z = RatFunc.z()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


@pytest.fixture
def expand_orders(monkeypatch):
    """The truncation order of every series.expand call, in call order."""
    orders = []
    real = series.expand

    def counting(*args, **kwargs):
        orders.append(args[6])
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "expand", counting)
    return orders


class TestClassify:
    def test_fixture_succeeds(self, capsys):
        code, doc, err = run_json(
            capsys, "classify", "--alpha", "2", "--beta", "0", "--gamma", "0"
        )
        assert code == 0
        assert doc["command"] == "classify"
        assert doc["admissible_family_count"] == 2
        labels = [f["case_label"] for f in doc["families"]]
        assert labels == ["A-cosh", "A-quadratic"]
        assert err.startswith("elapsed_ms=")

    def test_negative_control_exits_two(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", "z", "--beta", "0", "--gamma", "1"
        )
        assert code == 2
        assert doc["families"] == []
        assert doc["admissible_family_count"] == 0
        assert doc["extension_used"] == -1
        assert len(doc["rejected_branches"]) == 7

    def test_text_mode_is_the_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "2", "--beta", "0", "--gamma", "0"
        )
        assert code == 0
        assert "A-cosh" in out and "A-quadratic" in out
        assert not out.lstrip().startswith("{")

    def test_json_and_text_flags_conflict(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--json", "--text",
        )
        assert code == 1
        assert out.startswith("error [Usage]")

    def test_leading_dash_values_are_accepted(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify",
            "--alpha", "-z^2", "--beta", "z",
            "--gamma", "-z^4/4 + z^2/2 + 1",
        )
        assert code == 0
        assert doc["extension_used"] == 17
        assert [f["case_label"] for f in doc["families"]] == ["E.a"]

    def test_byte_identical_across_three_runs(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(
                capsys, "classify",
                "--alpha", "1 - z", "--beta", "0", "--gamma", "-z^2",
                "--json",
            )
            outs.add(out)
        assert len(outs) == 1

    def test_text_mode_deterministic_too(self, capsys):
        outs = {
            run_cli(capsys, "classify", "--alpha", "0", "--beta", "0",
                    "--gamma", "1")[1]
            for _ in range(3)
        }
        assert len(outs) == 1

    def test_case_c_with_a_seventeen_digit_pole(self, capsys):
        # beta = (f + f')/f^2 and alpha = -beta' give case C with c1 = 1 and
        # w = 2*exp(z) + 1/f.  Splitting f means finding a 17-digit rational root
        f = (Z - (10**16 + 3)) * (Z - 1) * (Z + 2)
        beta = (f + f.derivative()) / (f * f)
        coefficients = ("--alpha", ratfunc_to_str(-beta.derivative()),
                        "--beta", ratfunc_to_str(beta), "--gamma", "0")
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "classify", *coefficients)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        family = next(fam for fam in doc["families"] if fam["case_label"] == "C")
        assert family["admissible"] and family["verified"]
        assert family["parameters"][0]["allowed_values"] == ["1"]
        code, doc, _ = run_json(capsys, "verify", *coefficients,
                                "--solution", f"2*exp(z) + 1/({ratfunc_to_str(f)})")
        assert code == 0


class TestTransform:
    def test_exact_coefficients(self, capsys):
        code, doc, _ = run_json(
            capsys, "transform",
            "--k0", "1", "--k1", "0", "--k2", "0", "--k3", "z^2",
        )
        assert code == 0
        assert doc["coefficients"] == {
            "alpha": "-2", "beta": "2*z", "gamma": "4*z^2 + 1",
        }
        assert doc["classification"] is None

    def test_then_classify_reports_the_outcome(self, capsys):
        code, doc, _ = run_json(
            capsys, "transform",
            "--k0", "1", "--k1", "0", "--k2", "0", "--k3", "z^2",
            "--then-classify",
        )
        # no admissible family for the transformed equation: documented exit 2
        assert code == 2
        cls = doc["classification"]
        assert cls["admissible_family_count"] == 0
        reasons = {r["reason"] for r in cls["rejected_branches"]}
        assert "beta^2 - 4*gamma = -12*z^2 - 4 is not a square in K(z)" in reasons

    def test_constant_shift_classifies_admissibly(self, capsys):
        code, doc, _ = run_json(
            capsys, "transform",
            "--k0", "-6", "--k1", "2", "--k2", "0", "--k3", "3",
            "--then-classify",
        )
        assert code == 0
        assert doc["coefficients"] == {"alpha": "2", "beta": "0", "gamma": "0"}


class TestVerify:
    def test_exact_solution_passes(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--solution", "2 + exp(z) + exp(-z)",
        )
        assert code == 0
        assert doc["residual"]["identically_zero"] is True
        points = doc["numeric_spot_check"]["points"]
        assert len(points) == 20
        assert all(row["ok"] for row in points)
        assert doc["numeric_spot_check"]["tolerance_rule"] == "1e-09 * (1 + |w|^2)"

    def test_wrong_candidate_exits_two(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--solution", "z",
        )
        assert code == 2
        assert doc["residual"]["identically_zero"] is False
        assert doc["residual"]["text"] == "(-2*z - 1)"

    def test_params_substitute_into_the_solution(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "-2*z", "--beta", "z", "--gamma", "0",
            "--solution", "c1*exp(k1*z)",
            "--params", "c1=3", "--params", "k1=2",
        )
        assert code == 0
        assert doc["residual"]["identically_zero"] is True
        assert ["c1", "3"] in doc["parameters"]

    def test_malformed_params_is_a_usage_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify",
            "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--solution", "z", "--params", "c1",
        )
        assert code == 1
        assert out.startswith("error [Usage]")

    def test_params_cannot_bind_a_name_twice(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--solution", "c1*exp(z)", "--params", "c1=3", "--params", "c1=0",
        )
        assert code == 1
        assert doc == {"error": {"code": "Usage", "message": "--params binds 'c1' twice"}}

    @pytest.mark.parametrize("name", ["z", "sqrt", "exp"])
    def test_params_cannot_bind_a_reserved_name(self, capsys, name):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--solution", "z", "--params", f"{name}=3",
        )
        assert code == 1
        assert doc["error"]["code"] == "Usage"
        assert repr(name) in doc["error"]["message"]

    @pytest.mark.parametrize("binding, why", [
        ("2=3", "which is not a name"),
        ("c 1=3", "which is not a name"),
        ("c9=3", "which the solution never reads"),
    ])
    def test_params_cannot_bind_a_name_the_solution_never_reads(self, capsys, binding, why):
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--solution", "z", "--params", binding,
        )
        assert code == 1
        assert doc["error"]["code"] == "Usage"
        assert doc["error"]["message"].endswith(why)

    @pytest.mark.parametrize("solution", ["exp(1000*z)", "exp(400*z)"])
    def test_overflowing_points_are_left_out(self, capsys, solution):
        # exp(1000*z) overflows at some candidate points, exp(400*z) in the
        # bound |w|^2 at some; neither kind is sampled, and the exit code
        # follows the exact residual
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--solution", solution,
        )
        assert code == 0
        assert doc["residual"]["identically_zero"] is True
        points = doc["numeric_spot_check"]["points"]
        assert len(points) == 20
        assert all(row["ok"] for row in points)
        assert all(math.isfinite(float(row["bound"])) for row in points)


    def test_point_on_a_triple_pole_is_not_sampled(self, capsys):
        # 0.4 is the first sample candidate and a triple pole of the solution
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "1/(z-1)", "--beta", "z/(z^2+2)", "--gamma", "0",
            "--solution", "1/((z-2/5)^3*(z^2+z+1))",
        )
        assert code == 2
        zs = [row["z"] for row in doc["numeric_spot_check"]["points"]]
        assert len(zs) == 20
        assert "0.400000+0.000000i" not in zs

    def test_verify_imports_no_numpy(self):
        # a fresh interpreter: other tests may import numpy in this one
        script = (
            "import sys\n"
            "from merosolve import cli\n"
            "code = cli.main(['verify', '--alpha', '2', '--beta', '0', '--gamma', '0',\n"
            "                 '--solution', '2 + exp(z) + exp(-z)', '--json'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(merosolve.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["residual"]["identically_zero"] is True


_POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "data"


class TestPrintedEqualsProved:
    """The closed form classify prints, fed back through verify at each
    verified assignment, solves the equation: the gate checks the ExpSum the
    classifier built, so this catches a printer that says something else."""

    # C prints an integral I(z); E.a and E.b print a second definition
    NO_SINGLE_EXPRESSION = {"C", "E.a", "E.b"}
    SIGNS = {"+": "1", "-": "-1"}

    @pytest.mark.parametrize("pool", ["classify-ladder", "cli-oneshot"])
    def test_every_printed_family_verifies(self, capsys, pool):
        entries = json.loads((_POOLS / f"{pool}.json").read_text())["entries"]
        checked = []
        for entry in entries:
            if entry["argv"][0] != "classify":
                continue
            main([a for a in entry["argv"] if a not in ("--json", "--text")] + ["--json"])
            doc = json.loads(capsys.readouterr().out)
            coeffs = [x for k in ("alpha", "beta", "gamma") for x in (f"--{k}", doc["inputs"][k])]
            for fam in doc["families"]:
                if fam["case_label"] in self.NO_SINGLE_EXPRESSION:
                    continue
                solution = fam["closed_form"].removeprefix("w = ")
                for record in fam["verification"]:
                    assert record["residual_zero"]
                    params = [x for name, value in record["assignment"]
                              for x in ("--params", f"{name}={self.SIGNS.get(value, value)}")]
                    code = main(["verify", *coeffs, "--solution", solution, *params])
                    capsys.readouterr()
                    assert code == 0, (entry["id"], solution, record["assignment"])
                    checked.append(fam["case_label"])
        assert {"B", "D", "E.d"} <= set(checked)


class TestExpand:
    def test_resonance_fixture(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4",
            "--at", "0", "--order", "8",
        )
        assert code == 0
        branches = doc["branches"]
        assert [b["a0"] for b in branches] == ["4", "-1"]
        assert branches[0]["resonance_status"] == "no-resonance"
        assert branches[0]["r"] == "5/4"
        assert branches[0]["r_is_positive_integer"] is False
        assert branches[1]["resonance_status"] == "evaluated"
        assert branches[1]["r"] == "5"
        assert branches[1]["condition_satisfied"] is True
        assert branches[1]["free_coefficient_index"] == 5
        exp = branches[1]["expansion"]
        assert exp["leading_power"] == 1
        assert exp["coefficients"][0] == "-1"
        assert exp["alternate_coefficients"][5] == "1"

    @pytest.mark.parametrize("order", ["1", "8"])
    def test_text_shows_the_branch_verdict(self, capsys, order):
        # at --order 1 the expansion stops short of r + 2 = 7, where the branch's
        # probe read the resonance condition; text must agree with JSON
        argv = ("expand", "--alpha", "0", "--beta", "-3", "--gamma", "-4",
                "--at", "0", "--order", order)
        code, out, _ = run_cli(capsys, *argv, "--text")
        assert code == 0
        lines = [line.strip() for line in out.splitlines() if "resonance:" in line]
        assert lines[1] == ("resonance: r = 5, positive integer: True, "
                            "condition satisfied: True, free coefficient index: 5")
        _, doc, _ = run_json(capsys, *argv)
        b = doc["branches"][1]
        assert (b["condition_satisfied"], b["free_coefficient_index"]) == (True, 5)

    @pytest.mark.parametrize("order, expansions", [(7, 2), (6, 3)])
    def test_resonant_branch_expanded_once(self, capsys, expand_orders, order, expansions):
        # r = 5 on the a0 = -1 branch: from --order r + 2 = 7 on, the condition
        # is read off the branch's own expansion and no probe expansion runs
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4",
            "--at", "0", "--order", str(order),
        )
        assert code == 0
        assert len(expand_orders) == expansions
        resonant = doc["branches"][1]
        assert resonant["resonance_status"] == "evaluated"
        assert resonant["condition_satisfied"] is True
        assert resonant["free_coefficient_index"] == 5

    # branch 0 (r = 5/4) needs no probe; branch 1 (r = 5) is probed to r + 2
    @pytest.mark.parametrize("branch, orders", [(0, [4]), (1, [4, 7])])
    def test_unselected_branch_is_not_expanded(self, capsys, expand_orders, branch, orders):
        argv = ("expand", "--alpha", "0", "--beta", "-3", "--gamma", "-4",
                "--at", "0", "--order", "4")
        code, doc, _ = run_json(capsys, *argv, "--branch", str(branch))
        assert code == 0
        assert expand_orders == orders
        _, full, _ = run_json(capsys, *argv)
        assert doc["branches"] == [full["branches"][branch]]

    @pytest.mark.parametrize("argv, setups", [
        # one branch to order 40; its conjugate makes no set-up
        (("--alpha", "1/(z+3)", "--beta", "z^2-2", "--gamma", "(z+2)/(z^2+3)",
          "--at", "1", "--order", "40"), 1),
        # both branches to --order 4, then the a0 = -1 branch is probed to
        # r + 2 = 7: the three expansions and the leading balance share one shift
        (("--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0", "--order", "4"), 1),
    ])
    def test_taylor_set_up_once_per_expansion(self, capsys, monkeypatch, argv, setups):
        calls, divisions = [], []
        real_taylor = ratfunc.RatFunc.taylor_at

        class Taylor(series._Taylor):
            __slots__ = ()

            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        def dividing(*args):
            divisions.append(args)
            return real_taylor(*args)

        # the cleared polynomials are shifted once per point, with no series
        # division; the memo is emptied so that a shift cached before is not reused
        monkeypatch.setattr(series, "_last_taylor", None)
        monkeypatch.setattr(series, "_Taylor", Taylor)
        monkeypatch.setattr(ratfunc.RatFunc, "taylor_at", dividing)
        code, doc, _ = run_json(capsys, "expand", *argv)
        assert code == 0 and len(doc["branches"]) == 2
        assert len(calls) == setups and divisions == []

    # branch shapes no golden reaches: (side_condition_satisfied, status, r,
    # r_is_positive_integer, condition_satisfied, free_coefficient_index) of
    # the branch record, (index, condition_satisfied, free_coefficient_index)
    # of its expansion block, and the text's resonance: line
    @pytest.mark.parametrize("argv, branch, block, line", [
        # p = 2: beta = 0 gives r = beta(z0)/a0 + 2 = 2, where the expansion frees a_2
        (("--alpha", "2", "--beta", "0", "--gamma", "0", "--at", "1", "--order", "4"),
         (None, "evaluated", "2", True, True, 2), (2, True, 2),
         "r = 2, positive integer: True, condition satisfied: True, "
         "free coefficient index: 2"),
        # gamma = 0 with alpha(z0) + beta'(z0) = 0: r = 1 is satisfied
        (("--alpha", "-2*z", "--beta", "z^2", "--gamma", "0", "--at", "1", "--order", "6"),
         (True, "evaluated", "1", True, True, 1), (1, True, 1),
         "r = 1, positive integer: True, condition satisfied: True, "
         "free coefficient index: 1"),
        # gamma = 0 with the side condition false: the branch halts at r = 1
        (("--alpha", "-2*z", "--beta", "z", "--gamma", "0", "--at", "1", "--order", "6"),
         (False, "evaluated", "1", True, False, None), (1, False, None),
         "r = 1, positive integer: True, condition satisfied: False, "
         "free coefficient index: None"),
        # r = 5 inside the order but beyond the cap: the expansion still meets it
        (("--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0", "--branch", "1",
          "--order", "10", "--cap", "4"),
         (None, "cap-exceeded", "5", True, None, None), (5, True, 5),
         "r = 5, positive integer: True, condition satisfied: True, "
         "free coefficient index: 5"),
        # evaluated below r + 2: the expansion stops before r, the branch does not
        (("--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0", "--branch", "1",
          "--order", "3"),
         (None, "evaluated", "5", True, True, 5), (None, None, None),
         "r = 5, positive integer: True, condition satisfied: True, "
         "free coefficient index: 5"),
    ], ids=["p=2", "side-true", "side-false", "cap-exceeded-inside-order",
            "evaluated-below-r+2"])
    def test_branch_shapes_no_golden_reaches(self, capsys, argv, branch, block, line):
        code, doc, _ = run_json(capsys, "expand", *argv)
        assert code == 0
        b, = doc["branches"]
        assert (b["side_condition_satisfied"], b["resonance_status"], b["r"],
                b["r_is_positive_integer"], b["condition_satisfied"],
                b["free_coefficient_index"]) == branch
        res = b["expansion"]["resonance"]
        assert (res["r"], res["r_is_positive_integer"]) == branch[2:4]
        assert (res["index"], res["condition_satisfied"],
                res["free_coefficient_index"]) == block
        code, out, _ = run_cli(capsys, "expand", *argv, "--text")
        assert code == 0
        assert [s.strip() for s in out.splitlines() if "resonance:" in s] == [
            f"resonance: {line}"]

    def test_branch_selection(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4",
            "--at", "0", "--order", "8", "--branch", "1",
        )
        assert code == 0
        assert len(doc["branches"]) == 1
        assert doc["branches"][0]["a0"] == "-1"

    def test_branch_out_of_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4",
            "--at", "0", "--order", "8", "--branch", "5",
        )
        assert code == 1
        assert out.startswith("error [Usage]")
        assert "out of range" in out

    @pytest.mark.parametrize("flag", ["--order", "--cap"])
    def test_negative_order_or_cap_is_a_usage_error(self, capsys, flag):
        argv = {"--order": "3", "--cap": "5", flag: "-5"}
        code, out, _ = run_cli(
            capsys, "expand",
            "--alpha", "1", "--beta", "0", "--gamma", "2", "--at", "1",
            "--order", argv["--order"], "--cap", argv["--cap"], "--json",
        )
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["error"]["code"] == "Usage"
        assert f"{flag} must be nonnegative" in doc["error"]["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--order", "100000"), ("--order", "65"), ("--cap", "65"), ("--cap", "10000000"),
    ])
    def test_order_or_cap_above_the_limit_is_a_limit_error(self, capsys, flag, value):
        argv = {"--order": "3", "--cap": "5", flag: value}
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0",
            "--order", argv["--order"], "--cap", argv["--cap"],
        )
        assert code == 1
        assert doc["error"] == {
            "code": "LimitExceeded", "message": f"{flag} exceeds 64, got {value}",
        }

    def test_order_and_cap_at_the_limit_expand(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0",
            "--order", "64", "--cap", "64",
        )
        assert code == 0
        assert [len(b["expansion"]["coefficients"]) for b in doc["branches"]] == [65, 65]

    def test_extension_point_expansion(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "1", "--beta", "0", "--gamma", "2",
            "--at", "-3+sqrt(-2)", "--order", "6",
        )
        assert code == 0
        a0s = {b["a0"] for b in doc["branches"]}
        assert a0s == {"sqrt(-2)", "-sqrt(-2)"}

    def test_all_zero_coefficients_warns(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--at", "0", "--order", "6",
        )
        assert code == 0
        assert doc["branches"] == []
        assert any("vanish identically" in w for w in doc["warnings"])

    def test_excluded_point_is_a_typed_error(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand",
            "--alpha", "z", "--beta", "0", "--gamma", "1",
            "--at", "0", "--order", "6",
        )
        assert code == 1
        assert doc["error"]["code"] == "PointInPhi"


class TestErrorEnvelope:
    def test_parse_error_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", "1/0", "--beta", "0", "--gamma", "0"
        )
        assert code == 1
        assert doc["error"]["code"] == "ZeroDenominatorLiteral"
        assert "position" in doc["error"]["message"]

    def test_parse_error_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--alpha", "w", "--beta", "0", "--gamma", "0"
        )
        assert code == 1
        assert out.startswith("error [SyntaxError]:")

    def test_missing_flag_is_usage(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--alpha", "2")
        assert code == 1
        assert out.startswith("error [Usage]")

    def test_unknown_command_is_usage(self, capsys):
        code, out, _ = run_cli(capsys, "frobnicate")
        assert code == 1
        assert out.startswith("error [Usage]")

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(cli._COMMANDS, "classify", broken)
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", "z", "--beta", "0", "--gamma", "0"
        )
        assert code == 1
        assert doc["error"] == {"code": "Internal", "message": "RuntimeError: unexpected"}

    @pytest.mark.parametrize("depth", [101, 3000])
    def test_deep_nesting_is_a_limit_error(self, capsys, depth):
        nested = "(" * depth + "z" + ")" * depth
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", nested, "--beta", "0", "--gamma", "0"
        )
        assert code == 1
        assert doc["error"]["code"] == "LimitExceeded"
        assert "deeper than 100 levels" in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ("classify", "--alpha", "z^100000", "--beta", "0", "--gamma", "1"),
        ("classify", "--alpha", "((z+1)^100)^100", "--beta", "0", "--gamma", "1"),
        ("verify", "--alpha", "0", "--beta", "0", "--gamma", "1",
         "--solution", "(exp(z)+1)^100000"),
    ])
    def test_large_power_is_a_limit_error(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 1
        assert doc["error"]["code"] == "LimitExceeded"

    def test_long_literal_is_a_limit_error(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", "9" * 5000, "--beta", "0", "--gamma", "1"
        )
        assert code == 1
        assert doc["error"] == {
            "code": "LimitExceeded",
            "message": "integer literal has more than 1000 digits (at position 0)",
        }

    def test_power_of_large_coefficients_is_a_limit_error(self, capsys):
        # 9999999^1000 would print with more than 4,300 digits
        code, doc, _ = run_json(
            capsys, "classify", "--alpha", "9999999^1000", "--beta", "0", "--gamma", "1"
        )
        assert code == 1
        assert doc["error"] == {
            "code": "LimitExceeded",
            "message": "power of 1000 times 24-bit coefficients exceeds 3322 bits "
                       "(at position 8)",
        }

    A = "123456789012345678901234567890"
    B = "987654321098765432109876543210"

    @pytest.mark.parametrize("argv", [
        ("expand", "--alpha", f"{A}/({B}*z^3+4)", "--beta", f"({A}*z^3-8)/({B}*z^3+6)",
         "--gamma", f"({A}*z^3+7)/({B}*z^3+9)", "--at", "9/7", "--order", "64"),
        ("classify", "--alpha", "sqrt(1000000007*1000000009)", "--beta", "0", "--gamma", "1"),
    ])
    def test_square_free_part_past_trial_division_is_a_limit_error(self, capsys, argv):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert doc["error"]["code"] == "LimitExceeded"
        assert "trial division by the primes up to 100000" in doc["error"]["message"]

    @pytest.mark.parametrize("c", ["963761198400", "73513440", "720720"])
    def test_cubic_denominator_is_rejected_without_a_divisor_search(self, capsys, c):
        # beta's denominator z^3 + z/c + 1 has no rational root.  Its constant
        # c has up to 6,720 divisors, so a search over divisor pairs would
        # need up to 45,158,400 tests; p-adic lifting needs none
        den = f"(z^3 + z/{c} + 1)"
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "classify", "--alpha", f"(3*z^2+1/{c})/{den}^2",
                                "--beta", f"1/{den}", "--gamma", "0")
        assert time.perf_counter() - start < 2.0
        # every pole of beta = 1/den is simple, so no c1 clears its residue
        assert code == 2
        assert doc["rejected_branches"][1] == {
            "case_label": "C",
            "reason": "integral obstruction for every c1: the residues of beta*exp(-c1*z)"
                      " vanish at c1 != 0 iff 1 = 0; at c1 = 0 beta has a nonzero residue",
        }

    # a constant term with no prime factor up to the trial-division bound: the
    # prime 10^15 - 11 and the semiprime 9999991*99999989 (below 10^15, so
    # searched).  Listing their divisors by trial up to the square root took 4 s.
    # The MD5 of the stdout they give since case C finds no root of beta's
    # denominator: the same report, with C's reason giving its residue
    # condition in c1 rather than the cubic that does not split
    @pytest.mark.parametrize("c, digest", [
        ("999999999999989", "02ddf80441f1d89a0d7e9c6e246a4721"),
        (str(9999991 * 99999989), "4a31214f881b98d6c360969ad1353bd0"),
    ])
    def test_divisors_of_a_large_constant_term(self, capsys, c, digest):
        den = f"(z^3+z+{c})"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "classify", "--alpha", f"(3*z^2+1)/{den}^2",
                               "--beta", f"1/{den}", "--gamma", "0", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and hashlib.md5(out.encode()).hexdigest() == digest

    def test_extension_by_a_thirteen_digit_prime_expands(self, capsys):
        code, doc, _ = run_json(
            capsys, "expand", "--alpha", "0", "--beta", "0", "--gamma", "-1000000000039",
            "--at", "0", "--order", "4",
        )
        assert code == 0
        assert [b["a0"] for b in doc["branches"]] == ["sqrt(1000000000039)",
                                                     "-sqrt(1000000000039)"]


    def test_integers_past_the_printing_limit_are_a_limit_error(self, capsys):
        # alpha(0) = 1, beta(0) = B and gamma(0) = -B^2/4: a double root a0 = -B/2
        # whose expansion coefficients pass Python's 4,300-digit int-to-str limit
        big = str(10**900)
        start = time.perf_counter()
        code, doc, _ = run_json(
            capsys, "expand", "--alpha", f"{big}*z+1", "--beta", big,
            "--gamma", f"-{big}/4*{big}+z", "--at", "0", "--order", "4",
        )
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert doc["error"]["code"] == "LimitExceeded"
        assert doc["error"]["message"].endswith(
            f"exceeds the {sys.get_int_max_str_digits()}-digit printing limit")

    @pytest.mark.parametrize("argv", [
        ("classify", "--alpha", "sqrt(2)*z + sqrt(3)", "--beta", "1", "--gamma", "sqrt(3)"),
        # one field in each coefficient, two in the equation
        ("classify", "--alpha", "0", "--beta", "sqrt(2)", "--gamma", "sqrt(3)"),
        ("expand", "--alpha", "sqrt(2)", "--beta", "sqrt(3)", "--gamma", "1",
         "--at", "1", "--order", "4"),
        ("transform", "--k0", "sqrt(3)", "--k1", "0", "--k2", "sqrt(2)", "--k3", "0",
         "--then-classify"),
        ("transform", "--k0", "sqrt(3)", "--k1", "0", "--k2", "sqrt(2)", "--k3", "0"),
        ("verify", "--alpha", "sqrt(2)", "--beta", "sqrt(3)", "--gamma", "0", "--solution", "1"),
    ])
    def test_two_extensions_in_one_coefficient(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 1
        assert doc == {"error": {
            "code": "IncompatibleExtensions",
            "message": "cannot combine values from Q(sqrt(2)) and Q(sqrt(3))",
        }}

    @pytest.mark.parametrize("argv", [
        ("--beta", "z", "--gamma", "sqrt(5)", "--solution", "exp(sqrt(3)*z)/(z-sqrt(2))"),
        # the residual keeps the two extensions in different terms
        ("--beta", "0", "--gamma", "sqrt(2)", "--solution", "exp(sqrt(3)*z)/(z-sqrt(3))"),
    ])
    def test_two_extensions_in_the_residual(self, capsys, argv):
        code, doc, _ = run_json(capsys, "verify", "--alpha", "0", *argv)
        assert code == 1
        assert doc == {"error": {
            "code": "IncompatibleExtensions",
            "message": "cannot combine values from Q(sqrt(2)) and Q(sqrt(3))",
        }}


# README's exit-code table: code -> (class cell, "From the CLI" cell)
_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_EXIT_CODES = _README[_README.index("### Exit codes"):_README.index("### JSON schema")]
_EXIT_TABLE = {row[1]: (row[2], row[3])
               for row in re.finditer(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", _EXIT_CODES, re.M)}


class TestReadmeExitCodes:
    def test_each_error_class_has_its_row(self):
        classes = {cls.code: f"`{cls.__name__}`" for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, errors.MerosolveError)}
        assert _EXIT_TABLE.keys() == classes.keys() | {"Usage", "Internal"}
        assert {code: _EXIT_TABLE[code][0] for code in classes} == classes
        assert all(reach.startswith(("yes: `", "no: ")) for _, reach in _EXIT_TABLE.values())

    @pytest.mark.parametrize("code", sorted(code for code, (_, reach) in _EXIT_TABLE.items()
                                            if reach.startswith("yes")))
    def test_each_reachable_code_is_reached_by_its_example(self, capsys, code):
        argv = shlex.split(re.fullmatch(r"yes: `(.+)`", _EXIT_TABLE[code][1])[1])
        status, doc, _ = run_json(capsys, *argv)
        assert (status, doc["error"]["code"]) == (1, code)


class TestGcdGrowth:
    # remainder sequences over Z[sqrt(2)] whose conjugate factors once piled
    # up (131 s and 12 s on a 2-vCPU x86 machine); the MD5 of the stdout they
    # gave then
    @pytest.mark.parametrize("argv, digest", [
        (("classify", "--alpha", "1/z", "--beta", "1+1/(z^2-2)+sqrt(2)-1/(z^3-2)-z^64",
          "--gamma", "1"), "306ff2dc1801c1a9a07a584b9b512bb6"),
        (("transform", "--k0", "sqrt(2)", "--k1", "2*1+z", "--k2", "z^2+1", "--k3", "z^64",
          "--then-classify"), "371db75dd14347be660c8911d1a46b63"),
    ])
    def test_same_bytes_in_bounded_time(self, capsys, argv, digest):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and hashlib.md5(out.encode()).hexdigest() == digest

    @staticmethod
    def verify_argv(n: int) -> tuple[str, ...]:
        # the residual's normal form takes gcds of degree near 4*n, whose
        # coefficients outgrow the operands'; the PRS ran past 120 s at n = 140
        return ("verify", "--alpha", "0", "--beta", "0", "--gamma", "0", "--solution",
                f"(z+1)^{n}*exp(z)/(z^2+2)^{n // 2} + exp(2*z)*(z-1)^{n}", "--json")

    def test_verify_of_a_high_degree_solution_ends_in_bounded_time(self, capsys):
        start = time.perf_counter()
        code, _, _ = run_cli(capsys, *self.verify_argv(140))
        assert time.perf_counter() - start < 5.0 and code == 2

    def test_verify_keeps_the_bytes_of_the_remainder_sequence(self, capsys):
        # the MD5 of the stdout the PRS gave at n = 40
        code, out, _ = run_cli(capsys, *self.verify_argv(40))
        assert code == 2 and hashlib.md5(out.encode()).hexdigest() == (
            "04b7fe81c98a0c0385defc776fc32019")


# the grammar's atoms, with superscript and Arabic-Indic digits beside ASCII ones,
# and a high power, an irrational power and a long literal to reach the slow paths
_ATOMS = ["z", "0", "1", "2", "7", "1/2", "sqrt(2)", "sqrt(-3)", "¹", "²", "٣",
          "z^64", "(z+sqrt(2))^8", "123456789"]
# the wall time one command line may take in-process
_EXAMPLE_BUDGET_S = 10.0


def _expressions(rates: bool):
    """Expression text over _ATOMS: sums, products, quotients, juxtaposition,
    signs, powers up to 8 and, when rates, exp(...*z)."""
    def grow(inner):
        shapes = [
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", ""]), inner).map("".join),
            inner.map(lambda x: f"-({x})"),
            st.tuples(inner, st.integers(0, 8)).map(lambda t: f"({t[0]})^{t[1]}"),
        ]
        if rates:
            shapes.append(inner.map(lambda x: f"exp({x}*z)"))
        return st.one_of(shapes)

    return st.recursive(st.sampled_from(_ATOMS), grow, max_leaves=5)


@st.composite
def _argvs(draw):
    """A --json command line for one of the four verbs."""
    verb = draw(st.sampled_from(["classify", "transform", "verify", "expand"]))
    e = _expressions(rates=False)
    if verb == "transform":
        argv = [verb] + [x for k in ("k0", "k1", "k2", "k3") for x in (f"--{k}", draw(e))]
        if draw(st.booleans()):
            argv.append("--then-classify")
    else:
        argv = [verb, "--alpha", draw(e), "--beta", draw(e), "--gamma", draw(e)]
    if verb == "verify":
        argv += ["--solution", draw(_expressions(rates=True))]
    if verb == "expand":
        argv += ["--at", draw(e), "--order", str(draw(st.integers(0, 8)))]
    return argv + ["--json"]


class TestGrammarGate:
    @settings(max_examples=150)
    @given(_argvs())
    def test_every_input_ends_in_a_typed_document(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - started
        assert elapsed < _EXAMPLE_BUDGET_S, (elapsed, argv)
        doc = json.loads(out.getvalue())
        jsonschema.validate(doc, SCHEMA)
        assert code in (0, 1, 2)
        assert doc.get("error", {}).get("code") != "Internal", argv


class TestParserReuse:
    def test_two_calls_build_the_parser_once(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "classify", "--alpha", "2", "--beta", "0", "--gamma", "0")[0] == 0
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        ("classify", "--alpha", "2", "--beta", "0"),
        ("expand", "--alpha", "0", "--beta", "0", "--gamma", "1", "--at", "0", "--order", "x"),
        ("frobnicate",),
    ])
    def test_usage_error_after_a_call_matches_a_fresh_process(self, capsys, argv):
        assert run_cli(capsys, "classify", "--alpha", "2", "--beta", "0", "--gamma", "0")[0] == 0
        code, out, _ = run_cli(capsys, *argv)
        src = str(Path(merosolve.__file__).resolve().parent.parent)
        fresh = subprocess.run(
            [sys.executable, "-m", "merosolve.cli", *argv],
            capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout)
        assert out.startswith("error [Usage]")


class TestDashFolding:
    def test_values_fold_only_for_value_flags(self):
        argv = ["classify", "--alpha", "-z^2", "--beta", "0", "--gamma", "-1"]
        assert _fold_dash_values(argv) == [
            "classify", "--alpha=-z^2", "--beta", "0", "--gamma=-1",
        ]

    def test_flags_are_not_swallowed(self):
        argv = ["classify", "--alpha", "--beta"]
        assert _fold_dash_values(argv) == argv

    def test_non_dash_values_pass_through(self):
        argv = ["verify", "--params", "k1=-2"]
        assert _fold_dash_values(argv) == argv


class TestPublicNames:
    def test_cli_imports_only_public_names_of_the_package(self):
        # the CLI is a client of the library: whatever it needs from another
        # module is part of that module's public surface
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("merosolve"))
                    for alias in node.names]
        assert ("series", "expand_branches") in imported
        assert [pair for pair in imported if pair[1].startswith("_")] == []
