"""Command line interface: classify, transform, verify, and expand.

Exit codes: 0 success (classify/transform: at least one admissible family;
verify: residual identically zero); 2 for the documented mathematical outcomes
"no admissible family" and "verification unsatisfied";
1 for any error, reported as {"error": {"code", "message"}} in JSON mode; an
unexpected exception has the code "Internal" and names its type.
Timing goes to standard error as elapsed_ms=<n>, never into the payload.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from importlib import import_module

from .errors import LimitExceededError, MerosolveError
from .field import FieldConstant, common_discriminant
from .parse import (MAX_ORDER, RESERVED_NAMES, RESONANCE_CAP_DEFAULT, is_name, names_read,
                    parse_constant, parse_expsum, parse_ratfunc)
from .report import (
    branch_dict,
    classification_payload,
    coefficients_dict,
    document,
    error_document,
    render_text,
    to_json,
)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports flag problems through our exit-code contract."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The argument parser, built on first use and reused by later calls."""
    parser = _ArgumentParser(
        prog="merosolve",
        description=(
            "Exact classification of meromorphic solutions of "
            "w*w'' - (w')^2 = alpha*w + beta*w' + gamma with rational "
            "function coefficients."
        ),
        epilog=(
            "Expression grammar: rational functions of z built from integers, "
            "'z', + - * / ^ and parentheses ('^' takes a nonnegative integer "
            "and binds tighter than unary minus); constants may also use "
            "sqrt(r) for rational r.  Solutions for verify additionally allow "
            "exp(c*z) factors, e.g. \"1/2*exp(2*z) - z\"."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def coeffs(p):
        p.add_argument("--alpha", required=True, help="coefficient alpha as a rational function of z")
        p.add_argument("--beta", required=True, help="coefficient beta as a rational function of z")
        p.add_argument("--gamma", required=True, help="coefficient gamma as a rational function of z")

    def modes(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--json", action="store_true", help="machine readable JSON output")
        g.add_argument("--text", action="store_true", help="human readable text output (default)")

    p = sub.add_parser("classify", help="decide which solution families exist")
    coeffs(p)
    modes(p)

    p = sub.add_parser(
        "transform",
        help="rewrite f*f'' - (f')^2 = k0 + k1*f + k2*f' + k3*f'' to the w form via w = f - k3",
    )
    for k in ("k0", "k1", "k2", "k3"):
        p.add_argument(f"--{k}", required=True, help=f"coefficient {k} as a rational function of z")
    p.add_argument("--then-classify", action="store_true", help="classify the transformed equation")
    modes(p)

    p = sub.add_parser("verify", help="check a candidate solution exactly and numerically")
    coeffs(p)
    p.add_argument("--solution", required=True, help="candidate w as a finite exponential sum")
    p.add_argument(
        "--params",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="constant substitution for a name used in --solution (repeatable)",
    )
    modes(p)

    p = sub.add_parser("expand", help="local series expansions at an ordinary point")
    coeffs(p)
    p.add_argument("--at", required=True, help="expansion point z0 (exact constant)")
    p.add_argument("--order", required=True, type=int, help="truncation order N")
    p.add_argument("--branch", type=int, default=None, help="restrict to one leading candidate (0-based)")
    p.add_argument("--cap", type=int, default=RESONANCE_CAP_DEFAULT, help="resonance evaluation cap")
    modes(p)

    return parser


def _parse_params(items: list[str], solution: str) -> dict[str, FieldConstant]:
    """The --params bindings; each must name a parameter the solution reads."""
    out: dict[str, FieldConstant] = {}
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise _UsageError(f"--params expects NAME=VALUE, got {item!r}")
        if name in RESERVED_NAMES:
            raise _UsageError(f"--params cannot bind {name!r}, a name the grammar reserves")
        if not is_name(name):
            raise _UsageError(f"--params cannot bind {name!r}, which is not a name")
        if name in out:
            raise _UsageError(f"--params binds {name!r} twice")
        out[name] = parse_constant(value.strip())
    read = names_read(solution)
    for name in out:
        if name not in read:
            raise _UsageError(f"--params binds {name!r}, which the solution never reads")
    return out


def _parse_coefficients(args):
    return parse_ratfunc(args.alpha), parse_ratfunc(args.beta), parse_ratfunc(args.gamma)


def _cmd_classify(args) -> tuple[dict, int]:
    from .classify import classify

    rep = classify(*_parse_coefficients(args))
    payload = classification_payload(rep)
    doc = document(
        "classify",
        {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma},
        payload,
        list(rep.warnings),
    )
    code = 0 if payload["admissible_family_count"] > 0 else 2
    return doc, code


def _cmd_transform(args) -> tuple[dict, int]:
    from .classify import classify, transform_original

    kappas = [parse_ratfunc(getattr(args, k)) for k in ("k0", "k1", "k2", "k3")]
    alpha, beta, gamma = transform_original(*kappas)
    common_discriminant((alpha, beta, gamma))
    payload = {"coefficients": coefficients_dict(alpha, beta, gamma)}
    warnings: list[str] = []
    code = 0
    if args.then_classify:
        rep = classify(alpha, beta, gamma)
        payload["classification"] = classification_payload(rep)
        warnings.extend(rep.warnings)
        code = 0 if payload["classification"]["admissible_family_count"] > 0 else 2
    else:
        payload["classification"] = None
    doc = document(
        "transform",
        {"k0": args.k0, "k1": args.k1, "k2": args.k2, "k3": args.k3},
        payload,
        warnings,
    )
    return doc, code


def _format_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _cmd_verify(args) -> tuple[dict, int]:
    from .expsum import SPOT_CHECK_RULE, guarded_sample_points, residual, spot_check

    alpha, beta, gamma = _parse_coefficients(args)
    common_discriminant((alpha, beta, gamma))
    params = _parse_params(args.params, args.solution)
    w = parse_expsum(args.solution, params=params)
    r = residual(alpha, beta, gamma, w)

    rows = []
    for z in guarded_sample_points(alpha, beta, gamma, w):
        try:
            rv, bound, row_ok = spot_check(r.eval_complex, w, z)
        except (MerosolveError, OverflowError):
            continue
        rows.append(
            {
                "z": _format_complex(z),
                "residual_abs": f"{rv:.3e}",
                "bound": f"{bound:.3e}",
                "ok": row_ok,
            }
        )
    payload = {
        "coefficients": coefficients_dict(alpha, beta, gamma),
        "solution": args.solution,
        "parameters": [[k, str(v)] for k, v in params.items()],
        "residual": {"identically_zero": r.is_zero, "text": r.to_text()},
        "numeric_spot_check": {
            "tolerance_rule": SPOT_CHECK_RULE,
            "points": rows,
        },
    }
    doc = document(
        "verify",
        {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
         "solution": args.solution, "params": list(args.params)},
        payload,
        [],
    )
    return doc, 0 if r.is_zero else 2


def _cmd_expand(args) -> tuple[dict, int]:
    from .series import branch_resonance, expand_branches, leading_candidates

    for flag, value in (("--order", args.order), ("--cap", args.cap)):
        if value < 0:
            raise _UsageError(f"{flag} must be nonnegative, got {value}")
        if value > MAX_ORDER:
            raise LimitExceededError(f"{flag} exceeds {MAX_ORDER}, got {value}")
    alpha, beta, gamma = _parse_coefficients(args)
    z0 = parse_constant(args.at)
    order = args.order

    candidates = leading_candidates(alpha, beta, gamma, z0)
    warnings: list[str] = []
    if not candidates:
        warnings.append(
            "all coefficients vanish identically; every nonzero constant solves "
            "the equation and no leading-power analysis applies"
        )
    selected = candidates
    if args.branch is not None:
        if not 0 <= args.branch < len(candidates):
            raise _UsageError(
                f"--branch {args.branch} out of range; {len(candidates)} branch(es)"
            )
        selected = [candidates[args.branch]]

    expansions = expand_branches(alpha, beta, gamma, z0, selected, order)
    branches = [
        branch_dict(branch_resonance(alpha, beta, gamma, z0, cand, expansion, args.cap),
                    expansion)
        for cand, expansion in zip(selected, expansions)
    ]

    payload = {
        "coefficients": coefficients_dict(alpha, beta, gamma),
        "at": args.at,
        "order": order,
        "branches": branches,
    }
    doc = document(
        "expand",
        {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
         "at": args.at, "order": order,
         **({"branch": args.branch} if args.branch is not None else {})},
        payload,
        warnings,
    )
    return doc, 0


def __getattr__(name: str):
    # each verb imports its modules when it runs; these two names stay readable
    # here, as whatever the classify module binds at the time of reading
    if name in ("classify", "transform_original"):
        return getattr(import_module(f"{__package__}.classify"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_COMMANDS = {
    "classify": _cmd_classify,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
    "expand": _cmd_expand,
}

_VALUE_FLAGS = {
    "--alpha", "--beta", "--gamma", "--k0", "--k1", "--k2", "--k3",
    "--solution", "--params", "--at", "--order", "--branch", "--cap",
}


def _fold_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag -expr' into '--flag=-expr' so expressions starting with a
    minus sign (like -z^2) are not mistaken for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and argv[i + 1] not in _VALUE_FLAGS
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    use_json = False
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = parser.parse_args(_fold_dash_values(list(argv)))
        use_json = bool(getattr(args, "json", False))
        doc, code = _COMMANDS[args.command](args)
        out = to_json(doc) if use_json else render_text(doc)
        sys.stdout.write(out)
        return code
    except _UsageError as exc:
        _emit_error("Usage", str(exc), use_json)
        return 1
    except MerosolveError as exc:
        _emit_error(exc.code, str(exc), use_json)
        return 1
    except Exception as exc:  # last resort: still a typed error document
        _emit_error("Internal", f"{type(exc).__name__}: {exc}", use_json)
        return 1
    finally:
        elapsed = int(round(1000 * (time.perf_counter() - started)))
        print(f"elapsed_ms={elapsed}", file=sys.stderr)


def _emit_error(code: str, message: str, use_json: bool) -> None:
    if use_json:
        sys.stdout.write(to_json(error_document(code, message)))
    else:
        sys.stdout.write(f"error [{code}]: {message}\n")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
