"""Deterministic report documents: JSON payload builders and a text renderer.

Both output modes carry identical labels and exact values; JSON field order
is fixed by construction order, so serializing the same inputs twice yields
byte-identical documents.  No timestamps live inside the payload.
"""

from __future__ import annotations

import json

from .classify import ClassificationReport, SolutionFamily
from .field import format_constant
from .laurent import LaurentExpansion
from .ratfunc import RatFunc, ratfunc_to_str
from .series import BranchResonance

SCHEMA_VERSION = "1"


def coefficients_dict(alpha: RatFunc, beta: RatFunc, gamma: RatFunc) -> dict:
    return {
        "alpha": ratfunc_to_str(alpha),
        "beta": ratfunc_to_str(beta),
        "gamma": ratfunc_to_str(gamma),
    }


def _constraints_dict(family: SolutionFamily) -> dict:
    out = {}
    c = family.constraints
    for name in ("A", "B", "g", "h", "k1_squared", "k2_squared",
                 "discriminant", "case2_constraint"):
        v = getattr(c, name)
        if v is not None:
            out[name] = str(v)  # a RatFunc or FieldConstant in canonical text
    return out


def _family_dict(family: SolutionFamily) -> dict:
    return {
        "case_label": family.case_label,
        "closed_form": family.closed_form,
        "admissible": family.admissible,
        "verified": family.verified,
        "parameters": [
            {
                "name": p.name,
                "domain": p.domain,
                "kind": p.kind,
                **(
                    {"allowed_values": [format_constant(a) for a in p.allowed_values]}
                    if p.allowed_values is not None
                    else {}
                ),
            }
            for p in family.parameters
        ],
        "constraints": _constraints_dict(family),
        "verification": [
            {
                "assignment": [[name, value] for name, value in record.assignment],
                "residual_zero": record.residual_zero,
            }
            for record in family.verification
        ],
        "notes": list(family.notes),
    }


def classification_payload(report: ClassificationReport) -> dict:
    return {
        "coefficients": coefficients_dict(report.alpha, report.beta, report.gamma),
        "extension_used": report.extension_used,
        "families": [_family_dict(f) for f in report.families],
        "rejected_branches": [
            {"case_label": r.case_label, "reason": r.reason}
            for r in report.rejected_branches
        ],
        "admissible_family_count": sum(1 for f in report.families if f.admissible),
    }


def expansion_dict(exp: LaurentExpansion) -> dict:
    out = {
        "z0": format_constant(exp.z0),
        "leading_power": exp.p,
        "truncation_order": exp.truncation_order,
        "coefficients": [format_constant(c) for c in exp.coefficients],
    }
    if exp.resonance is not None:
        r = exp.resonance
        out["resonance"] = {
            "r": None if r.r is None else format_constant(r.r),
            "r_is_positive_integer": r.r_is_positive_integer,
            "index": r.index,
            "condition_satisfied": r.condition_satisfied,
            "free_coefficient_index": r.free_coefficient_index,
        }
    else:
        out["resonance"] = None
    out["alternate_coefficients"] = (
        None
        if exp.alternate_coefficients is None
        else [format_constant(c) for c in exp.alternate_coefficients]
    )
    out["halted_at"] = exp.halted_at
    return out


def branch_dict(res: BranchResonance, expansion: LaurentExpansion | None) -> dict:
    cand = res.candidate
    return {
        "leading_power": cand.p,
        "a0": format_constant(cand.a0),
        "note": cand.note,
        "side_condition_satisfied": cand.side_condition_satisfied,
        "resonance_status": res.status,
        "r": None if res.r is None else format_constant(res.r),
        "r_is_positive_integer": res.r_is_positive_integer,
        "condition_satisfied": res.condition_satisfied,
        "free_coefficient_index": res.free_coefficient_index,
        "expansion": None if expansion is None else expansion_dict(expansion),
    }


def document(command: str, inputs: dict, payload: dict, warnings: list[str]) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs}
    doc.update(payload)
    doc["warnings"] = warnings
    return doc


def error_document(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- text rendering --------------------------------------------------------------------


def _text_coefficients(doc: dict, lines: list[str]) -> None:
    co = doc["coefficients"]
    lines.append(f"  alpha = {co['alpha']}")
    lines.append(f"  beta  = {co['beta']}")
    lines.append(f"  gamma = {co['gamma']}")


def _text_classification(doc: dict, lines: list[str]) -> None:
    lines.append("equation: w*w'' - (w')^2 = alpha*w + beta*w' + gamma")
    _text_coefficients(doc, lines)
    ext = doc["extension_used"]
    lines.append("constant field: Q" + (f"(sqrt({ext}))" if ext is not None else ""))
    fams = doc["families"]
    lines.append(f"families ({len(fams)}):")
    for f in fams:
        adm = "yes" if f["admissible"] else "no"
        ver = "yes" if f["verified"] else "no"
        lines.append(f"  [{f['case_label']}] admissible={adm} verified={ver}")
        lines.append(f"    closed form: {f['closed_form']}")
        if f["parameters"]:
            ps = "; ".join(f"{p['name']} in {p['domain']}" for p in f["parameters"])
            lines.append(f"    parameters: {ps}")
        if f["constraints"]:
            cs = "; ".join(f"{k} = {v}" for k, v in f["constraints"].items())
            lines.append(f"    constraints: {cs}")
        for note in f["notes"]:
            lines.append(f"    note: {note}")
        for rec in f["verification"]:
            assign = ", ".join(f"{n} = {v}" for n, v in rec["assignment"])
            status = "0" if rec["residual_zero"] else "NONZERO"
            lines.append(f"    verified at ({assign}): residual = {status}")
    rej = doc["rejected_branches"]
    lines.append(f"rejected branches ({len(rej)}):")
    for r in rej:
        lines.append(f"  [{r['case_label']}] {r['reason']}")
    lines.append(f"admissible families: {doc['admissible_family_count']}")


def _text_expansion(exp: dict, lines: list[str], indent: str) -> None:
    lines.append(f"{indent}expansion at z0 = {exp['z0']}, leading power {exp['leading_power']}, "
                 f"order {exp['truncation_order']}:")
    p = exp["leading_power"]
    terms = []
    for k, c in enumerate(exp["coefficients"]):
        if c == "0":
            continue
        power = p + k
        zpart = "" if power == 0 else ("(z - z0)" if power == 1 else f"(z - z0)^{power}")
        terms.append(f"({c})" + (f"*{zpart}" if zpart else ""))
    lines.append(f"{indent}  w = " + (" + ".join(terms) if terms else "0") + " + ...")
    lines.append(f"{indent}  coefficients: " + ", ".join(
        f"a{k} = {c}" for k, c in enumerate(exp["coefficients"])))
    if exp["resonance"] is not None:
        r = exp["resonance"]
        lines.append(
            f"{indent}  resonance: r = {r['r']}, positive integer: "
            f"{r['r_is_positive_integer']}, condition satisfied: {r['condition_satisfied']}, "
            f"free coefficient index: {r['free_coefficient_index']}"
        )
    if exp["alternate_coefficients"] is not None:
        lines.append(f"{indent}  alternate continuation (free coefficient = 1): " + ", ".join(
            f"a{k} = {c}" for k, c in enumerate(exp["alternate_coefficients"])))
    if exp["halted_at"] is not None:
        lines.append(f"{indent}  halted: the order-{exp['halted_at']} condition is violated")


def _text_expand(doc: dict, lines: list[str]) -> None:
    lines.append("local series analysis")
    _text_coefficients(doc, lines)
    lines.append(f"  z0 = {doc['at']}, requested order {doc['order']}")
    branches = doc["branches"]
    lines.append(f"branches ({len(branches)}):")
    for i, b in enumerate(branches):
        lines.append(f"  branch {i}: p = {b['leading_power']}, a0 = {b['a0']}")
        if b["note"]:
            lines.append(f"    note: {b['note']}")
        if b["side_condition_satisfied"] is not None:
            lines.append(f"    side condition satisfied: {b['side_condition_satisfied']}")
        lines.append(f"    resonance status: {b['resonance_status']}"
                     + (f", r = {b['r']}" if b["r"] is not None else ""))
        if b["expansion"] is not None:
            _text_expansion(b["expansion"], lines, "    ")


def _text_transform(doc: dict, lines: list[str]) -> None:
    lines.append("transformed f*f'' - (f')^2 = k0 + k1*f + k2*f' + k3*f'' via w = f - k3")
    _text_coefficients(doc, lines)
    if doc.get("classification") is not None:
        lines.append("")
        _text_classification(doc["classification"], lines)


def _text_verify(doc: dict, lines: list[str]) -> None:
    lines.append("residual verification")
    _text_coefficients(doc, lines)
    lines.append(f"  w = {doc['solution']}")
    if doc["parameters"]:
        lines.append("  parameters: " + ", ".join(f"{n} = {v}" for n, v in doc["parameters"]))
    res = doc["residual"]
    lines.append(f"residual identically zero: {res['identically_zero']}")
    if not res["identically_zero"]:
        lines.append(f"  residual = {res['text']}")
    spot = doc["numeric_spot_check"]
    if spot is not None:
        lines.append(f"numeric spot check (|residual| <= {spot['tolerance_rule']}):")
        for row in spot["points"]:
            ok = "ok" if row["ok"] else "FAIL"
            lines.append(
                f"  z = {row['z']:>24}  |residual| = {row['residual_abs']:>12}  "
                f"bound = {row['bound']:>12}  {ok}"
            )
        lines.append(f"points checked: {len(spot['points'])}")


def render_text(doc: dict) -> str:
    lines: list[str] = []
    command = doc["command"]
    if command == "classify":
        _text_classification(doc, lines)
    elif command == "expand":
        _text_expand(doc, lines)
    elif command == "transform":
        _text_transform(doc, lines)
    elif command == "verify":
        _text_verify(doc, lines)
    for w in doc.get("warnings", ()):
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
