"""Per-layer spans and counters for merosolve, recorded from outside ``src/``.

``install(tracer)`` wraps the public functions of every layer module, and the
public methods and arithmetic dunders of every public class they define.
Each wrapped name is patched in every ``merosolve`` namespace that binds it
(``from .x import f`` copies the binding), and class attributes are patched
on the class.  ``install`` returns the restore callable; after it runs every
patched name is bound to its original object again.

A call records a span only when it crosses into another layer; calls within
the current layer run through the wrapper's counting path.  A span is
(name, start, end, parent).  Spans are kept in memory until the op ends,
when ``Tracer.end_op`` folds them into per-layer self times (span duration
minus the time its child spans cover) and drops them: a classify op records
up to ~10^5 field spans, so keeping a whole run's spans would need gigabytes.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

SUMMARY_PREFIX = "PERFBENCH_SPANS "
LAYERS = ("cli", "parse", "classify", "series", "expsum", "ratfunc", "field", "report")
# laurent and errors hold data only; they are patched as namespaces, not wrapped
NAMESPACES = ("merosolve", *(f"merosolve.{m}" for m in LAYERS), "merosolve.laurent", "merosolve.errors")
DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__mod__", "__eq__", "__hash__",
})
FIELD_OPS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse",
})
# names whose inclusive time is kept (recursion-safe) next to the span totals
INCLUSIVE = {
    "expsum.residual": "expsum.residual",
    "expsum.integrate_exp": "expsum.integrate_exp",
    "expsum.ExpSum.eval_complex": "expsum.eval_complex",
    "ratfunc.poly_gcd": "ratfunc.gcd",
    "cli.main": "cli.main",
}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Span store and counters of one traced run."""

    def __init__(self):
        self.layer = -1  # index of the layer the running code is in
        self.span = -1  # id of the innermost open span
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.name_layer: list[int] = []
        self.counts: dict[str, float] = {}
        self.self_s = [0.0] * len(LAYERS)
        self.incl_s: dict[str, float] = {}
        self.max_bits = 0
        self.in_classify = 0
        self.gcd_max_degree = 0
        self.ops = 0

    def name_id(self, name: str, layer: int) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.name_layer)
            self.name_layer.append(layer)
        return self.name_ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def end_op(self) -> float:
        """Fold this op's spans into layer self times; returns their sum in s."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total = 0.0
        for i in range(n):
            own = end[i] - start[i] - child[i]
            self.self_s[self.name_layer[self.span_name[i]]] += own
            total += own
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del arr[:]
        self.ops += 1
        return total

    def summary(self) -> dict:
        """Totals over every op traced so far (times in ms); absent counters are 0."""
        out = {f"{layer}.self_ms": 1000 * s for layer, s in zip(LAYERS, self.self_s)}
        out.update({f"{k}_ms": 1000 * v for k, v in self.incl_s.items()})
        out.update(self.counts)
        out["field.max_bits"] = self.max_bits
        out["ratfunc.gcd_max_degree"] = self.gcd_max_degree
        out["ops"] = self.ops
        return out


def _make_wrapper(tr: Tracer, fn, layer: int, name: str):
    nid = tr.name_id(name, layer)
    incl = INCLUSIVE.get(name)
    field_op = name.startswith("field.FieldConstant.") and name.rsplit(".", 1)[-1] in FIELD_OPS
    hook = _field_op if field_op else _HOOKS.get(name)
    scoped = name == "classify.classify"  # residual gates inside it are counted per call
    depth = [0]

    def wrapper(*args, **kwargs):
        crossing = tr.layer != layer
        if crossing:
            sid = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.span)
            tr.span_end.append(0.0)
            outer_layer, outer_span = tr.layer, tr.span
            tr.layer, tr.span = layer, sid
        if incl is not None:
            depth[0] += 1
        if scoped:
            tr.in_classify += 1
        t0 = perf_counter()
        if crossing:
            tr.span_start.append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if crossing:
                tr.span_end[sid] = t1
                tr.layer, tr.span = outer_layer, outer_span
            if scoped:
                tr.in_classify -= 1
            if incl is not None:
                depth[0] -= 1
                if not depth[0]:
                    tr.incl_s[incl] = tr.incl_s.get(incl, 0.0) + (t1 - t0)
        if hook is not None:
            hook(tr, args, result, crossing)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# -- counters at the layer boundaries -----------------------------------------------


def _field_op(tr, args, result, crossing):
    tr.count("field.ops")
    if any(getattr(a, "q", 0) for a in args):
        tr.count("field.ext_ops")
    if result is not NotImplemented and result is not None:
        bits = max(_bits(result.a), _bits(result.b))
        if bits > tr.max_bits:
            tr.max_bits = bits


def _decomposition(tr, args, result, crossing):
    tr.count("field.decompositions")


def _parse(tr, args, result, crossing):
    if crossing:
        tr.count("parse.calls")


def _render(tr, args, result, crossing):
    if crossing:
        tr.count("report.bytes_out", len(result.encode("utf-8")))


def _classify(tr, args, result, crossing):
    tr.count("classify.calls")
    tr.count("classify.families_emitted", len(result.families))
    tr.count("classify.branches_rejected", len(result.rejected_branches))


def _residual(tr, args, result, crossing):
    tr.count("expsum.residual_calls")
    if tr.in_classify:
        tr.count("classify.residuals")


def _gcd(tr, args, result, crossing):
    tr.count("ratfunc.gcd_calls")
    if result.degree <= 0:
        tr.count("ratfunc.gcd_trivial")
    tr.gcd_max_degree = max(tr.gcd_max_degree, args[0].degree, args[1].degree)


def _expand(tr, args, result, crossing):
    n = len(result.coefficients) + len(result.alternate_coefficients or ())
    tr.count("series.expand_calls")
    tr.count("series.coeffs_computed", n)
    if crossing:  # an expansion that reaches the report, not resonance_report's probe
        tr.count("series.coeffs_returned", n)


def _counter(key):
    return lambda tr, args, result, crossing: tr.count(key)


_HOOKS = {
    "field.square_free_decomposition": _decomposition,
    "parse.parse_ratfunc": _parse,
    "parse.parse_expsum": _parse,
    "parse.parse_constant": _parse,
    "report.to_json": _render,
    "report.render_text": _render,
    "classify.classify": _classify,
    "expsum.residual": _residual,
    "expsum.ExpSum.__mul__": _counter("expsum.mul_calls"),
    "expsum.integrate_exp": _counter("expsum.integrate_exp_calls"),
    "expsum.ExpSum.eval_complex": _counter("expsum.eval_complex_calls"),
    "ratfunc.poly_gcd": _gcd,
    "ratfunc.RatFunc.__init__": _counter("ratfunc.normalise_calls"),
    "ratfunc.Poly.divmod": _counter("ratfunc.divmod_calls"),
    "series.expand": _expand,
    "cli.main": _counter("cli.main_calls"),
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def install(tr: Tracer):
    """Wrap every layer; returns the callable that restores the originals."""
    modules = {ns: importlib.import_module(ns) for ns in NAMESPACES}
    restore: list[tuple[object, str, object]] = []
    wrapped: dict[int, object] = {}  # id(original function) -> wrapper
    for layer, short in enumerate(LAYERS):
        mod = modules[f"merosolve.{short}"]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and _public(name):
                wrapped[id(obj)] = _make_wrapper(tr, obj, layer, f"{short}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and _public(name):
                for attr, val in list(vars(obj).items()):
                    if not (_public(attr) or attr in DUNDERS):
                        continue
                    qual = f"{short}.{name}.{attr}"
                    if isinstance(val, staticmethod):
                        new = staticmethod(_make_wrapper(tr, val.__func__, layer, qual))
                    elif inspect.isfunction(val):
                        new = _make_wrapper(tr, val, layer, qual)
                    else:
                        continue
                    restore.append((obj, attr, val))
                    setattr(obj, attr, new)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                restore.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])

    def undo() -> None:
        for owner, attr, val in reversed(restore):
            setattr(owner, attr, val)

    return undo
