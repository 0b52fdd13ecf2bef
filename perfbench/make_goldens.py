"""Write the benchmark pools with their golden outputs.

    PYTHONPATH=src python3 perfbench/make_goldens.py [workload ...]

Builds every pool entry from POOL_SEED, attaches a known answer derived from
how the input was built (never from the program), runs the program once per
entry to record its exit code and the SHA-256 of its stdout, and refuses to
write a pool whose outputs contradict a known answer other than a listed
seed defect.  ``expand-deep`` outputs are checked here, once, by sympy
resubstitution of the truncated series.  Needs sympy (a test dependency);
the benchmark itself does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from merosolve.cli import main  # noqa: E402

POOL_SEED = 20261017
z, zeta = sp.symbols("z zeta")


def s(expr) -> str:
    """An expression in the CLI grammar: numerator/denominator, expanded."""
    num, den = sp.fraction(sp.cancel(sp.together(sp.sympify(expr))))
    num, den = (str(sp.expand(p)).replace("**", "^") for p in (num, den))
    return num if den == "1" else f"({num})/({den})"


def rand_poly(rng: random.Random, degree: int, lo: int = -3, hi: int = 3):
    cs = [rng.randint(lo, hi) for _ in range(degree)] + [rng.choice([-2, -1, 1, 2, 3])]
    return sum(c * z**i for i, c in enumerate(cs))


def d_family(T, beta, k):
    """alpha, gamma for which w = c1*exp(k*z) + T solves the equation."""
    alpha = sp.diff(T, z, 2) - 2 * k * sp.diff(T, z) + k**2 * T - k * beta
    gamma = T * sp.diff(T, z, 2) - sp.diff(T, z) ** 2 - alpha * T - beta * sp.diff(T, z)
    return alpha, gamma


def residual(alpha, beta, gamma, w):
    return sp.simplify(
        w * sp.diff(w, z, 2) - sp.diff(w, z) ** 2 - alpha * w - beta * sp.diff(w, z) - gamma
    )


def classify_argv(alpha, beta, gamma, mode="--json"):
    return ["classify", "--alpha", s(alpha), "--beta", s(beta), "--gamma", s(gamma), mode]


def entry(stratum, argv, exit_code, known):
    return {"stratum": stratum, "argv": argv, "exit": exit_code, "known": known}


def labels(*labs):
    return {"kind": "labels", "labels": list(labs)}


def has_odd_factor(f) -> bool:
    """Some irreducible factor of f has odd multiplicity: f is no square in K(z)."""
    return any(m % 2 for p in sp.fraction(sp.cancel(f)) for _, m in sp.factor_list(sp.Poly(p, z))[1])


def ordinary(point, *fs) -> bool:
    """point is neither a zero nor a pole of any nonzero coefficient."""
    return all(p.subs(z, point) != 0 for f in fs if f != 0 for p in sp.fraction(sp.cancel(f)))


# -- classify-ladder ------------------------------------------------------------


def d_entry(rng, stratum, T, beta, k, mode="--json"):
    alpha, gamma = d_family(T, beta, k)
    c1 = sp.Symbol("c1")
    assert residual(alpha, beta, gamma, c1 * sp.exp(k * z) + T) == 0
    return entry(stratum, classify_argv(alpha, beta, gamma, mode), 0, labels("D"))


def b_entry(stratum, beta, k, mode="--json"):
    alpha = -k * beta
    assert residual(alpha, beta, 0, 3 * sp.exp(k * z)) == 0
    return entry(stratum, classify_argv(alpha, beta, 0, mode), 0, labels("B"))


def c_entry(stratum, beta, mode="--json"):
    alpha = -sp.diff(beta, z)
    anti = sp.integrate(beta * sp.exp(-z), z)
    assert residual(alpha, beta, 0, sp.exp(z) * (2 - anti)) == 0
    return entry(stratum, classify_argv(alpha, beta, 0, mode), 0, labels("C"))


def e_entries(rng, stratum, mode="--json"):
    """Constant coefficients that meet one E.* row of the case table."""
    c = rng.choice([2, 3, 5, 6, 7])
    a = rng.choice([1, 2, 3, -1, -2])
    b = rng.choice([2, 4, -2, 6])
    g = rng.choice([1, 3, 5, -2])
    if b * b - 4 * g == 0:
        g += 1
    return [
        entry(stratum, classify_argv(0, 0, c, mode), 0, labels("E.a")),
        entry(stratum, classify_argv(a, 0, g, mode), 0, labels("E.c")),
        entry(stratum, classify_argv(0, b, g, mode), 0, labels("E.d")),
        entry(stratum, classify_argv(a, b, sp.Rational(b * b, 4), mode), 0, labels("E.e")),
    ]


def generic_entry(rng, stratum, d):
    """No family: beta^2 - 4*gamma is no square and A is not constant."""
    while True:
        alpha, beta, gamma = rand_poly(rng, d), rand_poly(rng, max(d - 1, 0)), rand_poly(rng, d)
        A = sp.cancel((beta * (alpha + sp.diff(beta, z)) - sp.diff(gamma, z)) / gamma)
        if has_odd_factor(beta**2 - 4 * gamma) and A.free_symbols:
            return entry(stratum, classify_argv(alpha, beta, gamma), 2, labels())


def classify_ladder(rng):
    out = []
    for d in range(1, 7):
        for _ in range(4):
            T = rand_poly(rng, d)
            beta = rand_poly(rng, max(d - 1, 0))
            out.append(d_entry(rng, f"D-poly-{d}", T, beta, rng.choice([-3, -2, -1, 1, 2, 3])))
            out.append(b_entry(f"B-{d}", rand_poly(rng, d), rng.choice([-2, -1, 1, 2, 3])))
            out.append(c_entry(f"C-{d}", rand_poly(rng, d)))
            out.append(generic_entry(rng, f"generic-{d}", d))
    for d in range(1, 4):
        for _ in range(4):
            T = rand_poly(rng, d) / (z - rng.choice([-3, -2, 2, 3]))
            beta = rand_poly(rng, max(d - 1, 0))
            out.append(d_entry(rng, f"D-rational-{d}", T, beta, rng.choice([-2, -1, 1, 2])))
    for _ in range(4):
        T = rand_poly(rng, 2)
        k = sp.sqrt(rng.choice([2, 3, 5, 7, 11]))
        out.append(d_entry(rng, "D-sqrt", T, rand_poly(rng, 1), k))
    for _ in range(2):
        out.extend(e_entries(rng, "E-const"))
    picks = dict.fromkeys((e["stratum"] for e in out), 2)
    picks["E-const"] = 4
    return out, picks


# -- expand-deep ----------------------------------------------------------------


def expand_argv(alpha, beta, gamma, at, order, branch=None):
    argv = ["expand", "--alpha", alpha, "--beta", beta, "--gamma", gamma,
            "--at", str(at), "--order", str(order), "--json"]
    return argv + (["--branch", str(branch)] if branch is not None else [])


SERIES = {"kind": "series"}


def expand_deep(rng):
    """Both branches of every input; strata keep the cost of their members close."""
    out = []
    for order in (20, 30, 40):
        while sum(e["stratum"] == f"rational-o{order}" for e in out) < 8:
            a, b, c, d = rng.choice([2, 3, 4]), rng.choice([1, 2, 3]), rng.choice([1, 2, -1]), rng.choice([3, 5, 7])
            at = rng.choice([1, -1, 2])
            if not ordinary(at, 1 / (z + a), z**2 - b, (z + c) / (z**2 + d)):
                continue
            out.append(entry(f"rational-o{order}", expand_argv(
                f"1/(z+{a})", f"z^2-{b}", f"(z{c:+d})/(z^2+{d})", at, order), 0, SERIES))
    # a0 = +-sqrt(q): a larger q gets a lower order, so the strata cost alike
    for stratum, order, lo, hi in (("sqrt-small", 30, 2, 100), ("sqrt-mid", 25, 1000, 10000),
                                   ("sqrt-large", 20, 100000, 1000003)):
        qs = set()
        while len(qs) < 8:
            q = rng.randint(lo, hi)
            if sp.factorint(q) and any(m % 2 for m in sp.factorint(q).values()):
                qs.add(q)
        for q in sorted(qs):
            out.append(entry(stratum, expand_argv(rng.choice(["1", "2", "-1"]), "0", f"-{q}", 0, order), 0, SERIES))
    for _ in range(8):
        n = rng.randint(3, 15)
        alpha = rng.choice(["0", "0", "z+1", "1/(z+2)"])
        beta, gamma = rng.choice([(f"{n - 2}", f"{1 - n}"), (f"{n - 2}+z", f"{1 - n}+z^2")])
        out.append(entry("resonant", expand_argv(alpha, beta, gamma, 0, rng.choice([20, 30])), 0, SERIES))
    # the corpus median falls inside sqrt-small + rational-o20 (alike in cost) and
    # the 90th percentile inside rational-o40, not on a gap between two strata
    picks = dict.fromkeys((e["stratum"] for e in out), 6)
    picks.update({"resonant": 4, "sqrt-large": 4, "sqrt-mid": 4})
    return out, picks


def check_series(argv, stdout):
    """Resubstitute every printed truncated series into the equation."""
    flags = {tok: argv[i + 1] for i, tok in enumerate(argv) if tok.startswith("--") and i + 1 < len(argv)}
    alpha, beta, gamma = (sp.sympify(flags[k].replace("^", "**")) for k in ("--alpha", "--beta", "--gamma"))
    z0 = sp.sympify(flags["--at"])
    doc = json.loads(stdout)
    for br in doc["branches"]:
        exp = br["expansion"]
        p = exp["leading_power"]
        for cs in (exp["coefficients"], exp["alternate_coefficients"]):
            if cs is None:
                continue
            a = [sp.sympify(c) for c in cs]
            q = next((int(m) for c in cs for m in re.findall(r"sqrt\((-?\d+)\)", c)), None)
            dom = sp.QQ.algebraic_field(sp.sqrt(q)) if q else sp.QQ
            top = len(a) - 1 + 2 * p - 2  # last order the engine matched
            P = lambda e: sp.Poly(sp.expand(e.subs(z, zeta + z0)), zeta, domain=dom)  # noqa: E731
            w = sp.Poly(sum(c * zeta ** (p + k) for k, c in enumerate(a)), zeta, domain=dom)
            wp, wpp = w.diff(zeta), w.diff(zeta).diff(zeta)
            (na, da), (nb, db), (ng, dg) = (map(P, sp.fraction(sp.cancel(f))) for f in (alpha, beta, gamma))
            res = da * db * dg * (w * wpp - wp * wp) - na * db * dg * w - da * nb * dg * wp - da * db * ng
            low = res.all_coeffs()[::-1][: top + 1]
            if any(c != 0 for c in low):
                raise AssertionError(f"series residual nonzero below order {top}: {argv}")


# -- cli-oneshot ------------------------------------------------------------------


def shifted_beta(k2, k3):
    """beta = k2 + 2*k3', the shift f = w + k3 worked by hand, as a known answer."""
    beta = sp.Poly(sp.expand(k2 + 2 * sp.diff(k3, z)), z)
    return {"kind": "beta", "poly": [str(c) for c in beta.all_coeffs()[::-1]],
            "text": str(beta.as_expr()).replace("**", "^")}


README = [
    (["classify", "--alpha", "2", "--beta", "0", "--gamma", "0", "--json"], 0, labels("A-cosh", "A-quadratic")),
    (["classify", "--alpha", "1 - z", "--beta", "0", "--gamma", "-z^2"], 0, labels("D")),
    (["transform", "--k0", "1", "--k1", "0", "--k2", "0", "--k3", "z^2", "--then-classify", "--json"], None,
     shifted_beta(0, z**2)),
    (["verify", "--alpha", "2", "--beta", "0", "--gamma", "0", "--solution", "2 + exp(z) + exp(-z)"], 0, {"kind": "exit"}),
    (["verify", "--alpha", "-2*z", "--beta", "z", "--gamma", "0", "--solution", "c1 * exp(k1 * z)",
      "--params", "c1=3", "--params", "k1=2"], 0, {"kind": "exit"}),
    (["expand", "--alpha", "0", "--beta", "-3", "--gamma", "-4", "--at", "0", "--order", "10"], 0, {"kind": "exit"}),
    (["expand", "--alpha", "1", "--beta", "0", "--gamma", "2", "--at", "-3+sqrt(-2)", "--order", "12", "--branch", "0"],
     0, {"kind": "exit"}),
]

# tests/test_acceptance.py FIXTURES with the labels of acceptance criterion 1
FIXTURES = [
    (("2", "0", "0"), ("A-cosh", "A-quadratic")),
    (("-2*z", "z", "0"), ("B",)),
    (("0", "1", "0"), ("C",)),
    (("1 - z", "0", "-z^2"), ("D",)),
    (("0", "0", "1"), ("E.a",)),
    (("1", "0", "2"), ("E.c",)),
    (("0", "0", "-1"), ("E.d",)),
    (("1", "2", "1"), ("E.e",)),
]


def transform_entry(rng, stratum, k3, mode):
    k0, k1, k2 = rand_poly(rng, 1), rng.randint(-2, 2), rand_poly(rng, 1)
    argv = ["transform", "--k0", s(k0), "--k1", s(k1), "--k2", s(k2), "--k3", s(k3), mode]
    if rng.random() < 0.5:
        argv.insert(-1, "--then-classify")
    return entry(stratum, argv, None, shifted_beta(k2, k3))


def cli_oneshot(rng):
    out = []
    for i, (argv, code, known) in enumerate(README):
        out.append(entry(f"readme-{i}", argv, code, known))
    for i, ((a, b, g), labs) in enumerate(FIXTURES):
        for mode in ("--json", "--text"):
            out.append(entry(f"fixture-{i}", ["classify", "--alpha", a, "--beta", b, "--gamma", g, mode], 0, labels(*labs)))
    for _ in range(4):
        mode = rng.choice(["--json", "--text"])
        T, beta, k = rand_poly(rng, 1), rand_poly(rng, 0), rng.choice([-2, -1, 1, 2])
        out.append(d_entry(rng, "classify-D", T, beta, k, mode))
        out.append(b_entry("classify-B", rand_poly(rng, 1), rng.choice([-2, 1, 3]), mode))
        out.extend(e_entries(rng, "classify-E", mode)[:2])
        alpha, gamma = d_family(T, beta, k)
        c1 = rng.choice([1, 2, -3])
        mode = rng.choice(["--json", "--text"])
        base = ["verify", "--alpha", s(alpha), "--beta", s(beta), "--gamma", s(gamma)]
        w = f"c1 * exp({k} * z) + {s(T)}"
        out.append(entry("verify-family", base + ["--solution", w, "--params", f"c1={c1}", mode], 0, {"kind": "exit"}))
        out.append(entry("verify-perturbed", base + ["--solution", w + " + 1", "--params", f"c1={c1}", mode], 2, {"kind": "exit"}))
        at, alpha = rng.choice([0, 1, 2]), rand_poly(rng, 1)
        while alpha.subs(z, at) == 0:
            alpha += 1
        out.append(entry("expand-small", ["expand", "--alpha", s(alpha), "--beta", str(rng.randint(-4, 4)),
                                         "--gamma", str(rng.choice([-5, -3, -1, 2, 4])), "--at", str(at),
                                         "--order", str(rng.randint(6, 12)), mode], 0, {"kind": "exit"}))
        out.append(transform_entry(rng, "transform-const-k3", sp.Integer(rng.randint(-3, 3)), mode))
        out.append(transform_entry(rng, "transform-poly-k3", rand_poly(rng, rng.randint(1, 2)), mode))
    picks = dict.fromkeys((e["stratum"] for e in out), 1)
    picks.update({"classify-D": 2, "classify-B": 1, "classify-E": 2, "verify-family": 2,
                  "verify-perturbed": 2, "expand-small": 2, "transform-const-k3": 1, "transform-poly-k3": 1})
    return out, picks


# -- capture ---------------------------------------------------------------------


def run_inprocess(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def run_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "merosolve.cli", *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}, timeout=120)
    return proc.returncode, proc.stdout


BUILDERS = {"cli-oneshot": (cli_oneshot, run_subprocess),
            "classify-ladder": (classify_ladder, run_inprocess),
            "expand-deep": (expand_deep, run_inprocess)}


def write_pool(workload: str) -> None:
    build, run = BUILDERS[workload]
    entries, picks = build(random.Random(f"{POOL_SEED}:{workload}"))
    defects = []
    for i, e in enumerate(entries):
        e["id"] = f"{e['stratum']}#{i}"
        code, stdout = run(e["argv"])
        if e["exit"] is None:  # transform: exit depends on the classification
            e["exit"] = code
        e["sha256"] = corpus.digest(stdout)
        if code != e["exit"]:
            raise AssertionError(f"{e['id']}: exit {code}, expected {e['exit']}: {e['argv']}")
        if e["known"]["kind"] == "series":
            check_series(e["argv"], stdout)
        reason = corpus.known_answer_failure(e, stdout)
        if reason is not None:
            if e["known"]["kind"] != "beta":
                raise AssertionError(f"{e['id']}: {reason}: {e['argv']}")
            defects.append(e["id"])  # the transform shift defect (beta = k2 + k3')
        print(f"{e['id']}: exit {code}, {len(stdout)} bytes" + (f", KNOWN DEFECT: {reason}" if reason else ""))
    pool = {"workload": workload, "pool_seed": POOL_SEED, "picks": picks,
            "seed_defects": defects, "entries": entries}
    with open(corpus.DATA_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    corpus.DATA_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or corpus.WORKLOADS:
        write_pool(name)
