"""merosolve benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload classify-ladder --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
  cli-oneshot      one ``python -m merosolve.cli`` subprocess per request
  classify-ladder  in-process ``merosolve.cli.main(argv)`` classify requests
  expand-deep      in-process ``merosolve.cli.main(argv)`` expand requests

Every workload is a closed loop: one client, sequential ops, no threads.
A run measures whole passes over its seeded corpus and stops at the first
pass boundary after ``--seconds``.  Each op's exit code and stdout are
checked against the pool's golden bytes and known answer.

Timings are reported at reference speed. The CPU of a shared 2-vCPU virtual
machine runs in slow and fast phases (about 1.5x apart, lasting from under a
second to a minute), so the raw wall time of the same code spread 20-28 %
between runs. A fixed kernel that never touches merosolve is timed after
every op, and each op's wall time is scaled by (kernel reference time) /
(mean of the kernel times around it). The kernel does the kind of work the
op does: stdlib exact arithmetic for in-process ops, spawning a bare
interpreter for CLI ops.
The raw wall figures are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
untraced and then traced (spans from ``spans.py``) and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
WARMUP_OPS = 3
CHILD_TIMEOUT_S = 120
# the traced sum of layer self times must cover the op wall within this share
SELF_SUM_TOLERANCE = 0.05

END_TO_END = (("setup_s", "s"), ("latency_ms.p50", "ms"), ("latency_ms.p90", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def arithmetic_kernel_s() -> float:
    """Wall seconds of a fixed stdlib job: small-``Fraction`` sums, the arithmetic
    merosolve spends its time in."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    return time.perf_counter() - t0


def spawn_kernel_s() -> float:
    """Wall seconds to start and end a bare interpreter (no site, no merosolve)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


# Each kernel's wall time on the reference machine (the 2-vCPU virtual
# machine this benchmark was written on) in its fast phase.
ARITHMETIC_KERNEL = (arithmetic_kernel_s, 1.75e-3)
SPAWN_KERNEL = (spawn_kernel_s, 11.5e-3)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# -- one op -------------------------------------------------------------------------


def run_inprocess(argv: list[str]) -> tuple[int, str, float, str]:
    """One ``main(argv)`` call, rendering included.  Returns code, stdout, wall s, stderr."""
    from merosolve import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        wall = time.perf_counter() - t0
    return code, out.getvalue(), wall, err.getvalue()


def run_child(cmd: list[str]) -> tuple[int, str, float, str]:
    """One subprocess, waited for (killed on timeout).  Returns code, stdout, wall s, stderr."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, "", time.perf_counter() - t0, "timeout"
    wall = time.perf_counter() - t0
    return proc.returncode, proc.stdout.decode("utf-8"), wall, proc.stderr.decode("utf-8")


def run_cli(argv: list[str]) -> tuple[int, str, float, str]:
    return run_child([sys.executable, "-m", "merosolve.cli", *argv])


# -- set-up ---------------------------------------------------------------------------


def set_up(workload: str, seed: int) -> tuple[list[dict], float]:
    """Import merosolve, generate the seeded corpus, load the expected answers.

    Returns the corpus and the seconds this took.
    """
    t0 = time.perf_counter()
    import merosolve.cli  # noqa: F401

    entries = corpus.select(corpus.load_pool(workload), seed)
    return entries, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds of SETUP_PROBES fresh processes, each up to its first op."""
    times = []
    for _ in range(SETUP_PROBES):
        code, out, _, err = run_child([sys.executable, str(Path(__file__)), "--probe-setup",
                                       "--workload", workload, "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(tuple(map(float, out.split())))
    return times


# -- metrics --------------------------------------------------------------------------


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "merosolve").glob("*.py"))


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def importtime_ms(stderr: str) -> tuple[float, float]:
    """(merosolve, numpy) cumulative import ms from ``python -X importtime`` output."""
    mero = numpy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, pkg = line.split("|")
        name, depth = pkg.strip(), len(pkg) - len(pkg.lstrip()) - 1
        us = float(cumulative)
        if depth == 0 and name.split(".")[0] == "merosolve":
            mero += us / 1000
        elif name == "numpy":
            numpy = max(numpy, us / 1000)
    return mero, numpy


def elapsed_ms(stderr: str) -> float:
    for line in reversed(stderr.splitlines()):
        if line.startswith("elapsed_ms="):
            return float(line.split("=", 1)[1])
    raise ValueError("no elapsed_ms line on stderr")


class Outcome:
    """Per-run tally of checked ops: raw wall s, scaled wall s, failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.regressed = 0  # exit code or golden bytes differ: the answer changed
        self.failures: dict[str, list] = {}

    def record(self, entry: dict, code: int, stdout: str, wall: float) -> None:
        self.latencies.append(wall)
        reason, changed = corpus.check(entry, code, stdout)
        if reason is None:
            return
        self.failed += 1
        self.regressed += changed
        self.failures.setdefault(entry["id"], [reason, 0, entry["argv"]])[1] += 1


def loop(corpus_list: list[dict], seed: int, seconds: float, op, res: Outcome, kernel) -> tuple[float, int]:
    """Whole passes over the corpus, reshuffled each pass, until ``seconds`` pass.

    ``op(entry)`` runs and records one op and returns its raw wall seconds;
    the loop appends the wall scaled to the kernel's reference speed to
    ``res.scaled``.
    """
    kernel_s, ref_s = kernel
    rng = random.Random(seed)
    order = list(corpus_list)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    passes = 0
    k_before = kernel_s()
    while not passes or time.perf_counter() < deadline:
        if passes:
            rng.shuffle(order)
        for entry in order:
            wall = op(entry)
            k_after = kernel_s()
            res.scaled.append(wall * 2 * ref_s / (k_before + k_after))
            k_before = k_after
        passes += 1
    return time.perf_counter() - t0, passes


# -- the two kinds of run --------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, entries: list[dict]) -> tuple[dict, Outcome]:
    runner = run_cli if workload == "cli-oneshot" else run_inprocess
    for e in entries[:WARMUP_OPS]:
        runner(e["argv"])
    res = Outcome()

    def op(entry):
        code, out, wall, _ = runner(entry["argv"])
        res.record(entry, code, out, wall)
        return wall

    kernel = SPAWN_KERNEL if workload == "cli-oneshot" else ARITHMETIC_KERNEL
    loop_s, passes = loop(entries, seed, seconds, op, res, kernel)
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = probe_setup(workload, seed)
    n = len(res.latencies)

    def timings(setup, walls):
        ms = [1000 * x for x in walls]
        return {"setup_s": statistics.median(setup), "latency_ms.p50": statistics.median(ms),
                "latency_ms.p90": quantile90(ms), "ops_per_s": n / sum(walls), "peak_rss_mb": peak_rss_mb}

    metrics = timings([s for _, s in setups], res.scaled)
    raw = timings([r for r, _ in setups], res.latencies)
    samples = {"setup_s": len(setups), "latency_ms.p50": n, "latency_ms.p90": n,
               "ops_per_s": n, "peak_rss_mb": n}
    print(f"workload {workload}, seed {seed}: {n} ops ({passes} passes over a corpus of {len(entries)}) "
          f"in {loop_s:.2f} s; timings at reference speed, raw wall in brackets")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:>12.4f} {unit:<4} [{raw[name]:>12.4f}] (n={samples[name]})")
    ratio = res.failed / n if n else 0.0
    print(f"  {'fail_ratio':<16} {ratio:>12.4f} ratio ({res.failed} failed / {n} attempted)")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, res


PER_LAYER_UNITS = {
    "cli.startup_ms": "ms/op", "cli.main_ms": "ms/op", "cli.import_ms": "ms/op", "cli.numpy_import_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "parse.calls": "count/op", "parse.self_ms": "ms/op", "report.self_ms": "ms/op", "report.bytes_out": "B/op",
    "classify.calls": "count/op", "classify.self_ms": "ms/op", "classify.families_emitted": "count/op",
    "classify.branches_rejected": "count/op", "classify.residuals_per_call": "ratio",
    "expsum.residual_calls": "count/op", "expsum.residual_ms": "ms/op", "expsum.mul_calls": "count/op",
    "expsum.self_ms": "ms/op", "expsum.integrate_exp_calls": "count/op", "expsum.integrate_exp_ms": "ms/op",
    "expsum.eval_complex_calls": "count/op", "expsum.eval_complex_ms": "ms/op",
    "ratfunc.gcd_calls": "count/op", "ratfunc.gcd_ms": "ms/op", "ratfunc.gcd_max_degree": "degree",
    "ratfunc.gcd_trivial_ratio": "ratio", "ratfunc.normalise_calls": "count/op",
    "ratfunc.divmod_calls": "count/op", "ratfunc.self_ms": "ms/op",
    "field.ops": "count/op", "field.ext_ops": "count/op", "field.self_ms": "ms/op", "field.max_bits": "bits",
    "field.decompositions": "count/op", "field.decomp_per_op": "ratio",
    "series.expand_calls": "count/op", "series.self_ms": "ms/op", "series.coeffs_computed": "count/op",
    "series.coeffs_returned": "count/op", "series.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
MAXIMA = ("field.max_bits", "ratfunc.gcd_max_degree")


def layer_metrics(totals: dict, ops: int, walls: tuple[float, float], cli_ms: dict) -> dict:
    """Per-op means of the traced totals, plus the derived ratios."""
    def ratio(a, b):
        return totals.get(a, 0) / totals[b] if totals.get(b) else 0.0

    out = {name: totals.get(name, 0) / ops for name in PER_LAYER_UNITS}
    out.update({name: totals.get(name, 0) for name in MAXIMA})
    out.update({k: v / ops for k, v in cli_ms.items()})
    out["classify.residuals_per_call"] = ratio("classify.residuals", "classify.calls")
    out["ratfunc.gcd_trivial_ratio"] = ratio("ratfunc.gcd_trivial", "ratfunc.gcd_calls")
    out["field.decomp_per_op"] = ratio("field.decompositions", "field.ops")
    out["series.useful_ratio"] = ratio("series.coeffs_returned", "series.coeffs_computed")
    out["trace.overhead_ratio"] = walls[1] / walls[0]
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def traced(workload: str, seed: int, seconds: float, entries: list[dict]) -> tuple[dict, Outcome]:
    import spans

    res = Outcome()
    tr = spans.Tracer()
    totals: dict = {}
    walls = [0.0, 0.0]  # untraced, traced
    cli_ms = {"cli.startup_ms": 0.0, "cli.import_ms": 0.0, "cli.numpy_import_ms": 0.0}
    worst_gap = [0.0]

    def merge(summary: dict) -> None:
        for k, v in summary.items():
            totals[k] = max(totals.get(k, 0), v) if k in MAXIMA else totals.get(k, 0) + v

    def op_inprocess(entry):
        code, out, wall, _ = run_inprocess(entry["argv"])
        undo = spans.install(tr)
        try:
            t_code, t_out, t_wall, _ = run_inprocess(entry["argv"])
        finally:
            undo()
        covered = tr.end_op()
        worst_gap[0] = max(worst_gap[0], abs(t_wall - covered) / t_wall)
        return record(entry, code, out, wall, t_code, t_out, t_wall)

    def op_cli(entry):
        code, out, wall, err = run_cli(entry["argv"])
        t_code, t_out, t_wall, t_err = run_child(
            [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"), *entry["argv"]])
        line = next((x for x in reversed(t_err.splitlines()) if x.startswith(spans.SUMMARY_PREFIX)), None)
        if line is None:
            raise RuntimeError(f"traced child printed no summary: {t_err[-400:]}")
        summary = json.loads(line[len(spans.SUMMARY_PREFIX):])
        merge(summary)
        main_s = summary["cli.main_ms"] / 1000
        worst_gap[0] = max(worst_gap[0], abs(main_s - summary["self_sum_ms"] / 1000) / main_s)
        cli_ms["cli.startup_ms"] += 1000 * wall - elapsed_ms(err)
        mero, numpy = importtime_ms(t_err)
        cli_ms["cli.import_ms"] += mero
        cli_ms["cli.numpy_import_ms"] += numpy
        return record(entry, code, out, wall, t_code, t_out, t_wall)

    def record(entry, code, out, wall, t_code, t_out, t_wall):
        walls[0] += wall
        walls[1] += t_wall
        if (t_code, t_out) != (code, out):
            raise RuntimeError(f"tracing changed the output of {entry['id']}")
        res.record(entry, code, out, wall)
        return wall

    kernel = SPAWN_KERNEL if workload == "cli-oneshot" else ARITHMETIC_KERNEL
    loop_s, _ = loop(entries, seed, seconds, op_cli if workload == "cli-oneshot" else op_inprocess, res, kernel)
    n = len(res.latencies)
    if workload != "cli-oneshot":
        merge(tr.summary())
    metrics = layer_metrics(totals, n, tuple(walls), cli_ms)
    print(f"workload {workload}, seed {seed}, traced: {n} ops in {loop_s:.2f} s")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    print(f"  largest |op wall - sum of layer self times| / op wall: {worst_gap[0]:.4f} "
          f"(tolerance {SELF_SUM_TOLERANCE})")
    return metrics, res


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "merosolve" / "cli.py").is_file():
        print(f"error: {SRC / 'merosolve'} not found; run from a merosolve checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    entries, raw = set_up(args.workload, args.seed)
    if args.probe_setup:
        kernel_s, ref_s = ARITHMETIC_KERNEL
        print(raw, raw * ref_s / statistics.median(kernel_s() for _ in range(5)))
        return 0
    run = traced if args.trace else measure
    metrics, res = run(args.workload, args.seed, args.seconds, entries)
    attempted = len(res.latencies)
    for op_id, (reason, count, op_argv) in sorted(res.failures.items()):
        print(f"  FAILED {op_id} x{count}: {reason} :: {' '.join(op_argv)}")
    context = {
        "python": platform.python_version(), "host": platform.node(), "nproc": os.cpu_count(),
        "commit": git_commit(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "corpus_ops": len(entries), "ops": attempted, "failed": res.failed, "src_lines": src_lines(),
    }
    print("context " + json.dumps(context))
    print(json.dumps({"correct": res.regressed == 0 and attempted > 0, "attempted": attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
