"""The seeded differential harness: every input exits 0, 1 or 2, and each
build that has a known answer shows it."""

from __future__ import annotations

import os
import subprocess
import sys

import differential


def test_a_small_run_exits_in_range_and_each_build_shows_its_case():
    records = differential.run(seed=0, n=63)
    assert {r["stratum"] for r in records} == set(differential.STRATA)
    for rec in records:
        assert rec["code"] in (0, 1, 2), rec["id"]
        assert "error=Internal" not in rec["tags"], rec["id"]
        expected = rec["expected"]
        if isinstance(expected, str):
            assert expected in rec["labels"], rec["id"]
        elif expected is not None:
            assert rec["code"] == expected, rec["id"]


def test_compare_reads_back_what_a_run_prints():
    records = [differential.parse_line(differential.line(r))
               for r in differential.run(seed=1, n=18)]
    table = differential.compare(records, records)
    rows = [row for row in table.splitlines() if row.startswith("| C |")]
    assert rows == ["| C | 2 | 0 | 0 | 0 |"]  # families gained, lost, stdout changed


def test_compare_needs_only_the_standard_library(tmp_path):
    # -S and no PYTHONPATH: neither merosolve nor site-packages can be imported
    rec = {"id": "C:00000", "code": 0, "sha256": "0" * 64, "labels": ["C"], "tags": []}
    table = tmp_path / "run.tsv"
    table.write_text(differential.line(rec) + "\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", differential.__file__, "--compare", str(table), str(table)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "| C | 1 | 0 | 0 | 0 |" in done.stdout.splitlines()
