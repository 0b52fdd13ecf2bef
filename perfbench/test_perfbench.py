"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# The seed later gains are confirmed on: a corpus of the same size class as seed 1's.
SECOND_SEED = 2


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(corpus.select(corpus.load_pool(workload), 1))
    again = json.dumps(corpus.select(corpus.load_pool(workload), 1))
    assert first == again


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_second_seed_gives_a_corpus_of_the_same_size_class(workload):
    pool = corpus.load_pool(workload)
    one, two = corpus.select(pool, 1), corpus.select(pool, SECOND_SEED)
    assert Counter(e["stratum"] for e in one) == Counter(e["stratum"] for e in two)
    assert [e["id"] for e in one] != [e["id"] for e in two]


def bound_names() -> dict[tuple[str, str], object]:
    """Every function or class attribute bound in a merosolve namespace."""
    out = {}
    for ns in spans.NAMESPACES:
        for name, obj in vars(importlib.import_module(ns)).items():
            if inspect.isfunction(obj):
                out[(ns, name)] = obj
            elif inspect.isclass(obj) and obj.__module__.startswith("merosolve"):
                for attr, val in vars(obj).items():
                    out[(f"{ns}.{name}", attr)] = val
    return out


def cheap_entries(workload, n=4):
    """The first entries of a pool: the cheap strata come first."""
    pool = corpus.load_pool(workload)
    return pool["entries"][:n]


@pytest.mark.parametrize("workload", ["classify-ladder", "expand-deep", "cli-oneshot"])
def test_traced_run_keeps_stdout_and_restores_every_name(workload):
    before = bound_names()
    tr = spans.Tracer()
    for entry in cheap_entries(workload):
        code, out, _, _ = run.run_inprocess(entry["argv"])
        undo = spans.install(tr)
        try:
            t_code, t_out, t_wall, _ = run.run_inprocess(entry["argv"])
        finally:
            undo()
        covered = tr.end_op()
        assert (t_code, t_out) == (code, out)
        # the layer self times add up to the traced op wall
        assert abs(t_wall - covered) <= run.SELF_SUM_TOLERANCE * t_wall
    after = bound_names()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.summary()["cli.main_calls"] == tr.ops


def test_every_namespace_binding_is_wrapped():
    merosolve, classify, cli, ratfunc = (
        importlib.import_module(m) for m in ("merosolve", "merosolve.classify", "merosolve.cli", "merosolve.ratfunc"))
    undo = spans.install(spans.Tracer())
    try:
        for fn in (cli.classify, classify.classify, merosolve.classify, ratfunc.poly_gcd, merosolve.poly_gcd):
            assert hasattr(fn, "__wrapped__")
        assert hasattr(ratfunc.RatFunc.__add__, "__wrapped__")
    finally:
        undo()
    assert not hasattr(cli.classify, "__wrapped__")


def test_transform_known_answer_uses_the_shift_rule():
    pool = corpus.load_pool("cli-oneshot")
    entry = next(e for e in pool["entries"] if e["stratum"] == "readme-2")
    code, out, _, _ = run.run_inprocess(entry["argv"])
    assert corpus.digest(out) == entry["sha256"] and code == entry["exit"]
    reason = corpus.known_answer_failure(entry, out)
    # beta = k2 + 2*k3' = 4*z for k3 = z^2; transform_original prints k2 + k3' = 2*z
    assert reason is not None and "4*z" in reason
    assert entry["id"] in pool["seed_defects"]


def test_eval_rational_reads_printed_functions():
    from fractions import Fraction

    assert corpus.eval_rational("(z^2 + 1)/(z - 3)", Fraction(1)) == Fraction(-1)
    assert corpus.eval_rational("-1/2*z + 4", Fraction(2)) == 3


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "expand-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
