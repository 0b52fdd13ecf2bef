"""Golden gate: the benchmark pools' answers, byte for byte, in-process.

Every entry of the cli-oneshot, classify-ladder and expand-deep pools in
``perfbench/data`` records the exit code and the SHA-256 of the stdout the
CLI must produce.  Running them here makes a change of normal form or of
evaluation order that alters any answer fail the test suite, not only a
benchmark run.  The pools are only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from merosolve import cli

DATA_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "data"
WORKLOADS = ("cli-oneshot", "classify-ladder", "expand-deep")


def _entries():
    for workload in WORKLOADS:
        with open(DATA_DIR / f"{workload}.json", encoding="utf-8") as fh:
            for entry in json.load(fh)["entries"]:
                yield pytest.param(entry, id=f"{workload}:{entry['id']}")


@pytest.mark.parametrize("entry", _entries())
def test_stdout_matches_golden(entry):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(entry["argv"]))
    assert code == entry["exit"], err.getvalue()
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == entry["sha256"]
