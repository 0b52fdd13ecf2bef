"""Command line interface: exit codes, document shapes, schema, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from merosolve.cli import _fold_dash_values, main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json")
    .read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


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

    @pytest.mark.parametrize("solution", ["exp(1000*z)", "exp(400*z)"])
    def test_overflowing_points_fail_their_rows(self, capsys, solution):
        # exp(1000*z) overflows while sampling points, exp(400*z) in the bound
        code, doc, _ = run_json(
            capsys, "verify",
            "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--solution", solution,
        )
        assert code == 2
        assert doc["residual"]["identically_zero"] is True
        points = doc["numeric_spot_check"]["points"]
        assert len(points) == 20
        failed = [row for row in points if not row["ok"]]
        assert failed
        assert all(row["bound"] == "inf" for row in failed)


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
