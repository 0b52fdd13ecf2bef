"""Seeded corpora and known-answer checks for the merosolve benchmark.

Each workload draws its run corpus from a committed pool
(``data/<workload>.json``, written by ``make_goldens.py``).  A pool entry
holds the CLI argv, the exit code it must end with, a known answer that does
not come from the program, and the SHA-256 of the stdout the program printed
when the pool was written.  ``--seed`` picks, for every stratum of the pool,
the same number of entries, and shuffles their order, so two seeds give
corpora of the same size and the same mix of input kinds.

Stdlib only: the benchmark must run where only the Python toolchain exists.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
WORKLOADS = ("cli-oneshot", "classify-ladder", "expand-deep")


def load_pool(workload: str) -> dict:
    with open(DATA_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def select(pool: dict, seed: int) -> list[dict]:
    """The run corpus for one seed: ``picks`` entries from every stratum."""
    rng = random.Random(f"{pool['workload']}:{seed}")
    by_stratum: dict[str, list[dict]] = {}
    for entry in pool["entries"]:
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    chosen = []
    for stratum in sorted(pool["picks"]):
        chosen.extend(rng.sample(by_stratum[stratum], pool["picks"][stratum]))
    rng.shuffle(chosen)
    return chosen


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


# -- known answers ------------------------------------------------------------

_FAMILY_LINE = re.compile(r"^  \[([^\]]+)\] admissible=", re.M)
_BETA_LINE = re.compile(r"^  beta  = (.*)$", re.M)


def _families(stdout: str) -> list[str]:
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        doc = doc.get("classification") or doc
        return [f["case_label"] for f in doc.get("families", ())]
    return _FAMILY_LINE.findall(stdout.split("\n\n")[-1])


def _beta_text(stdout: str) -> str:
    if stdout.startswith("{"):
        return json.loads(stdout)["coefficients"]["beta"]
    return _BETA_LINE.search(stdout).group(1)


def eval_rational(text: str, z: Fraction) -> Fraction:
    """Exact value of a printed rational function of z at a rational point."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == "z":
            return z
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            lhs, rhs = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return lhs + rhs
            if isinstance(node.op, ast.Sub):
                return lhs - rhs
            if isinstance(node.op, ast.Mult):
                return lhs * rhs
            if isinstance(node.op, ast.Div):
                return lhs / rhs
            if isinstance(node.op, ast.Pow) and rhs.denominator == 1 and rhs >= 0:
                return lhs ** int(rhs)
        raise ValueError(f"unsupported expression {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))


def known_answer_failure(entry: dict, stdout: str) -> str | None:
    """Why the output contradicts the entry's known answer, or None."""
    known = entry["known"]
    kind = known["kind"]
    try:
        if kind == "labels":
            got = _families(stdout)
            want = known["labels"]
            if not want and got:
                return f"expected no family, got {sorted(set(got))}"
            missing = [lab for lab in want if lab not in got]
            if missing:
                return f"family {missing} missing, got {sorted(set(got))}"
        elif kind == "beta":
            # beta = k2 + 2*k3' for the shift w = f - k3 (checked at z = 0..n)
            coeffs = [Fraction(c) for c in known["poly"]]
            beta = _beta_text(stdout)
            for x in range(len(coeffs) + 2):
                want = sum(c * Fraction(x) ** i for i, c in enumerate(coeffs))
                if eval_rational(beta, Fraction(x)) != want:
                    return f"beta = {beta}, expected k2 + 2*k3' = {known['text']}"
    except (ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        return f"cannot read the answer: {type(exc).__name__}: {exc}"
    return None


def check(entry: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    """(why this op failed or None, whether its exit code or stdout bytes changed)."""
    if code != entry["exit"]:
        return f"exit {code}, expected {entry['exit']}", True
    if digest(stdout) != entry["sha256"]:
        return "stdout differs from the golden bytes", True
    return known_answer_failure(entry, stdout), False
