"""A seeded differential check of the CLI, with the standard library only.

It builds equations by stratum, each from a known answer where there is one:

  C       beta = c/f + f'/f^2, alpha = -beta', gamma = 0: w = c2*exp(c*z) + 1/f
  D       w = c*exp(k*z) + t for a polynomial beta (gamma = 0 gives case C)
  D-int   beta = 0, gamma = -h^2, alpha = h' - h with h = S' - S: D's tail is S
  D-obs   the same with h = n/f drawn at random, mostly obstructed
  E.d     t1 = t': alpha = -t1', beta = 2*t1, gamma = t1^2 - k^2
  E.e     alpha = t - t1', beta = 2*(t1 + t), gamma = beta^2/4
  generic three rational functions drawn at random
  fields  coefficients over two quadratic fields (an error)
  expand  a local expansion request, at a point in Q or Q(sqrt 5), some on a
          zero or pole of a coefficient (PointInPhi), some with beta = gamma
          = 0 (the p = 2 balance)

Denominator factors are linear, quadratic or cubic, split over the constant
field or not, and some constants lie in Q(sqrt 5).  Each input runs through
cli.main in process, and one line is printed per input:

  id, exit code, SHA-256 of stdout, family labels, tags

Tags name what the report shows: an obstruction at a pole or at the roots of
a factor, "does not split", "cannot be decomposed", the C notes and
rejections (as a digest), the extension used and the error code.  Tags of the
form name=value compare by value.

    python3 tests/differential.py --seed 1 --n 1200 > new.tsv
    PYTHONPATH=<other checkout>/src python3 tests/differential.py --seed 1 --n 1200 > old.tsv
    python3 tests/differential.py --compare old.tsv new.tsv

prints the changed counts per stratum and per tag.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction

STRATA = ("C", "D", "D-int", "D-obs", "E.d", "E.e", "generic", "fields", "expand")

# -- constants a + b*sqrt(5) and polynomials over them (low to high) -------------------


def k_mul(x, y):
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def k_str(c) -> str:
    a, b = c
    return f"({a})" if not b else f"(({a})+({b})*sqrt(5))"


def p_strip(p):
    p = list(p)
    while p and p[-1] == (0, 0):
        p.pop()
    return p


def p_add(x, y, sign=1):
    n = max(len(x), len(y))
    x, y = list(x) + [(0, 0)] * (n - len(x)), list(y) + [(0, 0)] * (n - len(y))
    return p_strip((a[0] + sign * b[0], a[1] + sign * b[1]) for a, b in zip(x, y))


def p_mul(x, y):
    out = [(0, 0)] * max(len(x) + len(y) - 1, 0)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            ab = k_mul(a, b)
            out[i + j] = (out[i + j][0] + ab[0], out[i + j][1] + ab[1])
    return p_strip(out)


def p_scale(p, c):
    return p_strip(k_mul(a, c) for a in p)


def p_der(p):
    return p_strip((i * a[0], i * a[1]) for i, a in enumerate(p))[1:] if len(p) > 1 else []


def p_pow(p, n):
    out = [(1, 0)]
    for _ in range(n):
        out = p_mul(out, p)
    return out


def p_str(p) -> str:
    if not p:
        return "0"
    return "+".join(f"{k_str(c)}*z^{i}" for i, c in enumerate(p) if c != (0, 0))


# -- rational functions n/f**j over one base f ------------------------------------------


class Over:
    """n/f**j for a fixed base polynomial f."""

    def __init__(self, f, n, j=0):
        self.f, self.n, self.j = f, p_strip(n), j

    def _lift(self, j):
        return p_mul(self.n, p_pow(self.f, j - self.j))

    def __add__(self, other, sign=1):
        j = max(self.j, other.j)
        return Over(self.f, p_add(self._lift(j), other._lift(j), sign), j)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, Over):
            return Over(self.f, p_mul(self.n, other.n), self.j + other.j)
        return Over(self.f, p_scale(self.n, other), self.j)

    def d(self):
        """(n/f**j)' = (n'*f - j*n*f')/f**(j+1)."""
        return Over(self.f, p_add(p_mul(p_der(self.n), self.f),
                                  p_scale(p_mul(self.n, p_der(self.f)), (self.j, 0)), -1),
                    self.j + 1)

    @property
    def is_zero(self):
        return not self.n

    def __str__(self):
        if self.j == 0:
            return p_str(self.n)
        return f"({p_str(self.n)})/({p_str(self.f)})^{self.j}"


# -- random draws -------------------------------------------------------------------------


def draw_constant(rng, ext, nonzero=False):
    while True:
        c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
             Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if ext and rng.random() < 0.5 else 0)
        if c != (0, 0) or not nonzero:
            return c


def draw_poly(rng, ext, degree):
    return p_strip(draw_constant(rng, ext) for _ in range(degree + 1))


# z^2 - 2, z^2 - 3, z^2 + 1, z^2 + z + 1 and these cubics have no root in Q(sqrt 5)
NONSPLIT = ([[(-2, 0), (0, 0), (1, 0)], [(-3, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (1, 0)],
             [(1, 0), (1, 0), (1, 0)]],
            [[(-2, 0), (0, 0), (0, 0), (1, 0)], [(3, 0), (-1, 0), (0, 0), (1, 0)],
             [(1, 0), (1, 0), (0, 0), (1, 0)], [(-1, 0), (2, 0), (0, 0), (1, 0)]])


def draw_factor(rng, ext):
    """A monic linear, quadratic or cubic factor, split or not, raised to 1 or 2."""
    degree = rng.choice((1, 2, 3))
    if degree == 1 or rng.random() < 0.5:
        f = [(1, 0)]
        for _ in range(degree):
            r = draw_constant(rng, ext)
            f = p_mul(f, [(-r[0], -r[1]), (1, 0)])
    else:
        f = rng.choice(NONSPLIT[degree - 2])
    return p_pow(f, rng.choice((1, 1, 2)))


def draw_base(rng, ext):
    f = draw_factor(rng, ext)
    if rng.random() < 0.3:
        f = p_mul(f, draw_factor(rng, ext))
    return f


def draw_proper(rng, ext, f):
    """A nonzero n with deg n < deg f, over f."""
    while True:
        n = draw_poly(rng, ext, rng.randint(0, len(f) - 2))
        if n:
            return Over(f, n, 1)


def classify_argv(alpha, beta, gamma):
    return ["classify", "--alpha", str(alpha), "--beta", str(beta), "--gamma", str(gamma),
            "--json"]


def build(stratum: str, rng: random.Random):
    """(argv, expected family label or exit code or None) for one input."""
    ext = rng.random() < 0.3
    f = draw_base(rng, ext)
    one = Over(f, [(1, 0)])
    if stratum == "C":
        c = draw_constant(rng, ext, nonzero=True)
        beta = Over(f, p_add(p_scale(f, c), p_der(f)), 2)
        return classify_argv(Over(f, [], 0) - beta.d(), beta, 0), "C"
    if stratum == "D":
        k = draw_constant(rng, ext, nonzero=True)
        beta, t = Over(f, draw_poly(rng, ext, rng.randint(0, 1))), draw_proper(rng, ext, f)
        t1 = t.d()
        alpha = t * (k_mul(k, k)) + t1.d() - t1 * (2 * k[0], 2 * k[1]) - beta * k
        gamma = t * t1.d() - t1 * t1 - alpha * t - beta * t1
        return classify_argv(alpha, beta, gamma), "C" if gamma.is_zero else "D"
    if stratum in ("D-int", "D-obs"):
        if stratum == "D-int":
            s = draw_proper(rng, ext, f)
            h = s.d() - s
        else:
            h = draw_proper(rng, ext, f)
        return (classify_argv(h.d() - h, 0, Over(f, [], 0) - h * h),
                "D" if stratum == "D-int" else None)
    if stratum in ("E.d", "E.e"):
        t = draw_proper(rng, ext, f)
        t1 = t.d()
        if stratum == "E.d":
            k = draw_constant(rng, ext, nonzero=True)
            kk = k_mul(k, k)
            return classify_argv(one * (-1, 0) * t1.d(), t1 * (2, 0),
                                 t1 * t1 - one * kk), "E.d"
        beta = (t1 + t) * (2, 0)
        return classify_argv(t - t1.d(), beta, beta * beta * (Fraction(1, 4), 0)), "E.e"
    if stratum == "generic":
        parts = []
        for _ in range(3):
            den = draw_factor(rng, ext) if rng.random() < 0.6 else [(1, 0)]
            num = draw_poly(rng, ext, rng.randint(0, 2)) if rng.random() < 0.8 else []
            parts.append(Over(den, num, 1 if len(den) > 1 else 0))
        return classify_argv(*parts), None
    if stratum == "fields":
        return classify_argv("sqrt(2)*z", "sqrt(5)+z", f"1/({p_str(f)})"), 1
    return expand_argv(rng, ext), None


def expand_argv(rng, ext):
    """An expand request: numerators of degree <= 2, some over a denominator
    factor, at one of 0, 1, 1/2 and -2 or, when the draw has no extension of
    its own, now and then at a point in Q(sqrt 5), there half the time with
    gamma = 0 (a0 = -beta(z0) lies in the field).  One request in twenty
    puts the point on a zero or a pole of a coefficient (PointInPhi), and one
    in ten sets beta = gamma = 0 last, so that the p = 2 balance is met (r = 2)
    and every other request is drawn as before."""
    coeffs = [Over(draw_factor(rng, ext), draw_poly(rng, ext, rng.randint(0, 2)), 1)
              if rng.random() < 0.3 else Over([(1, 0)], draw_poly(rng, ext, rng.randint(0, 2)))
              for _ in range(3)]
    irrational = not ext and rng.random() < 0.25
    if irrational:
        z0 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)))
        at = f"{z0[0]}+({z0[1]})*sqrt(5)"
        if rng.random() < 0.5:
            coeffs[2] = Over([(1, 0)], [])
    else:
        at = rng.choice(("0", "1", "1/2", "-2"))
        z0 = (Fraction(at), 0)
        if coeffs[2].is_zero:
            coeffs[2] = Over([(1, 0)], [(1, 0)])
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero]
    if rng.random() < 0.05 and nonzero:
        i = rng.choice(nonzero)
        c, root = coeffs[i], [(-z0[0], -z0[1]), (1, 0)]
        coeffs[i] = (Over(c.f, p_mul(c.n, root), c.j) if rng.random() < 0.5
                     else Over(p_mul(c.f if c.j else [(1, 0)], root), c.n, 1))
    order = rng.randint(2, 8)
    if rng.random() < 0.1:
        coeffs[1] = coeffs[2] = Over([(1, 0)], [])
    return ["expand", "--alpha", str(coeffs[0]), "--beta", str(coeffs[1]),
            "--gamma", str(coeffs[2]), "--at", at, "--order", str(order), "--json"]


# -- running and tagging -----------------------------------------------------------------


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:12]


def tags_of(doc: dict, out: str) -> list[str]:
    tags = []
    if "error" in doc:
        tags.append(f"error={doc['error']['code']}")
    rejected = doc.get("rejected_branches", [])
    reasons = [r["reason"] for r in rejected]
    pole = [r for r in reasons if "obstruction at pole" in r]
    if pole:
        tags.append(f"obstruction-pole={_digest(pole)}")
    factor = [r for r in reasons if "obstruction at the roots" in r]
    if factor:
        tags.append(f"obstruction-factor={_digest(factor)}")
    if "does not split" in out:
        tags.append("does-not-split")
    if "cannot be decomposed" in out:
        tags.append("cannot-decompose")
    c_texts = [r["reason"] for r in rejected if r["case_label"] == "C"]
    c_texts += [n for fam in doc.get("families", []) if fam["case_label"] == "C"
                for n in fam.get("notes", [])]
    if c_texts:
        tags.append(f"c-note={_digest(c_texts)}")
    if doc.get("extension_used") is not None:
        tags.append(f"extension={doc['extension_used']}")
    return tags


def run_one(argv):
    """(exit code, stdout, family labels, tags) of cli.main(argv) in process.

    merosolve is imported here, so that --compare runs on the standard
    library alone."""
    from merosolve import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = {}
    labels = [fam["case_label"] for fam in doc.get("families", [])]
    return code, text, labels, tags_of(doc, text)


def inputs(seed: int, n: int):
    """(id, stratum, argv, expected) for inputs 0..n-1; input i does not depend on n."""
    for i in range(n):
        stratum = STRATA[i % len(STRATA)]
        argv, expected = build(stratum, random.Random(seed * 1_000_003 + i))
        yield f"{stratum}:{i:05d}", stratum, argv, expected


def run(seed: int, n: int):
    """One record per input: id, stratum, expected, exit code, stdout digest, labels, tags."""
    records = []
    for ident, stratum, argv, expected in inputs(seed, n):
        code, text, labels, tags = run_one(argv)
        records.append({"id": ident, "stratum": stratum, "expected": expected, "code": code,
                        "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "labels": labels, "tags": tags})
    return records


def line(rec) -> str:
    return "\t".join((rec["id"], str(rec["code"]), rec["sha256"],
                      ",".join(rec["labels"]) or "-", ",".join(rec["tags"]) or "-"))


def parse_line(text: str) -> dict:
    ident, code, sha, labels, tags = text.rstrip("\n").split("\t")
    return {"id": ident, "stratum": ident.split(":")[0], "code": int(code), "sha256": sha,
            "labels": [] if labels == "-" else labels.split(","),
            "tags": [] if tags == "-" else tags.split(",")}


def _tag_map(rec) -> dict:
    return dict(t.split("=", 1) if "=" in t else (t, "") for t in rec["tags"])


def compare(old: list[dict], new: list[dict]) -> str:
    """The changed counts per stratum and per tag, as a Markdown table pair."""
    before = {r["id"]: r for r in old}
    per_stratum = defaultdict(Counter)
    per_tag = defaultdict(Counter)
    for rec in new:
        was = before.get(rec["id"])
        if was is None:
            continue
        s = per_stratum[rec["stratum"]]
        s["inputs"] += 1
        s["stdout changed"] += was["sha256"] != rec["sha256"]
        if was["code"] != rec["code"]:
            s[f"exit {was['code']}->{rec['code']}"] += 1
        lost = Counter(was["labels"]) - Counter(rec["labels"])
        gained = Counter(rec["labels"]) - Counter(was["labels"])
        s["families lost"] += sum(lost.values())
        s["families gained"] += sum(gained.values())
        a, b = _tag_map(was), _tag_map(rec)
        for name in sorted(set(a) | set(b)):
            if name not in a:
                per_tag[name]["appeared"] += 1
            elif name not in b:
                per_tag[name]["vanished"] += 1
            elif a[name] != b[name]:
                per_tag[name]["changed"] += 1
            else:
                per_tag[name]["same"] += 1
    keys = sorted({k for c in per_stratum.values() for k in c if k != "inputs"})
    rows = ["| stratum | inputs | " + " | ".join(keys) + " |",
            "|---" * (len(keys) + 2) + "|"]
    for name in STRATA:
        if name in per_stratum:
            c = per_stratum[name]
            rows.append(f"| {name} | {c['inputs']} | " + " | ".join(str(c[k]) for k in keys) + " |")
    rows += ["", "| tag | same | changed | appeared | vanished |", "|---|---|---|---|---|"]
    for name in sorted(per_tag):
        c = per_tag[name]
        rows.append(f"| {name} | {c['same']} | {c['changed']} | {c['appeared']} | {c['vanished']} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n", type=int, default=1200)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two output files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = ([parse_line(t) for t in open(path, encoding="utf-8") if t.strip()]
                    for path in args.compare)
        print(compare(old, new))
        return 0
    for rec in run(args.seed, args.n):
        print(line(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
