"""Layer spans recorded around expocert's public functions, from outside.

The layers are the package's modules. Tracer.install wraps every public
function of each module, in every module that holds the name (prover,
stratify and cli import names with `from .poly import ...`), plus the
methods listed in METHODS on their classes. Nothing in src/ changes.

A span is [name, start, end, parent index, command id]. Self time is a
span's duration minus the time its child spans cover; the time spent in
the tracer's own hooks is excluded from every span, so the per-name self
times plus the untraced remainder add up to the traced wall time.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "expr", "taylor", "poly", "prover", "mep", "arith", "stratify")

COUNTERS = ("prover.proofs", "prover.levels", "prover.search_exhausted",
            "expr.exp_sum_at.points", "arith.budget_exceeded")

# span names that differ from "<module>.<function>"
RENAMED = {
    ("expr", "parse_inequality"): "expr.parse",
    ("expr", "parse_expression"): "expr.parse",
    ("prover", "minimize_assignment"): "prover.minimize",
    ("prover", "verify_certificate_report"): "prover.verify",
    ("stratify", "analyze_affine_family"): "stratify.family",
}

METHODS = [
    ("poly.divmod", "poly", "Polynomial", "divmod"),
    ("poly.mul", "poly", "Polynomial", "__mul__"),
    ("poly.mul", "poly", "Polynomial", "__rmul__"),
    ("poly.sturm_build", "poly", "SturmChain", "__init__"),
    ("poly.variations_at", "poly", "SturmChain", "variations_at"),
    ("arith.const_enclosure", "arith", "ConstExpr", "enclosure"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # event counters named after their metric
        self.maxima = Counter({"poly.degree_max": 0, "poly.coeff_bits_max": 0})
        self.names = set()  # every span name installed
        self.command = 0
        self._open = []  # [span index, time covered by children]

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._open
        self.names.add(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self.command])
            stack.append([index, 0.0])
            error = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                _, children = stack.pop()
                span = spans[index]
                span[1], span[2] = t0, t1
                self.self_s[name] += t1 - t0 - children
                self.calls[name] += 1
                if hook is not None:
                    hook(self, args, result, error, parent)
                if stack:
                    stack[-1][1] += perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    def parent_name(self, parent: int) -> str:
        return self.spans[parent][0] if parent >= 0 else ""

    def install(self, package) -> None:
        """Wrap the package's layer functions and METHODS in place."""
        modules = {short: getattr(package, short) for short in LAYERS}
        holders = [package, *modules.values()]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = RENAMED.get((short, attr), f"{short}.{attr}")
                traced = self.wrap(name, fn, HOOKS.get(name) or _layer_hook(short))
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        setattr(holder, attr, traced)
        for name, short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            hook = HOOKS.get(name) or _layer_hook(short)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], hook))


# ---------------------------------------------------------------------------
# hooks: counters that need a call's arguments, result or exception


def _sturm_hook(tr, args, result, error, parent):
    if error is None:
        members = args[0].chain
        tr.maxima["poly.degree_max"] = max(tr.maxima["poly.degree_max"], members[0].degree)
        bits = max(c.numerator.bit_length() + c.denominator.bit_length()
                   for m in members for c in m.coeffs)
        tr.maxima["poly.coeff_bits_max"] = max(tr.maxima["poly.coeff_bits_max"], bits)


def _prove_hook(tr, args, result, error, parent):
    if error is None:
        tr.counts["prover.proofs"] += 1
        tr.counts["prover.levels"] += max((e.l for e in result.assignment), default=1)
    elif type(error).__name__ == "SearchExhaustedError":
        tr.counts["prover.search_exhausted"] += 1
        # a pure polynomial has no depth to search and is tried once
        tr.counts["prover.levels"] += error.max_l or 1


def _exp_sum_hook(tr, args, result, error, parent):
    if tr.parent_name(parent) != "expr.exp_sum_at":
        tr.counts["expr.exp_sum_at.points"] += 1


def _layer_hook(short):
    if short != "arith":
        return None

    def hook(tr, args, result, error, parent):
        # count a budget overrun once, where it leaves the arith layer
        if type(error).__name__ == "BudgetExceededError" and not tr.parent_name(
            parent
        ).startswith("arith."):
            tr.counts["arith.budget_exceeded"] += 1

    return hook


HOOKS = {
    "poly.sturm_build": _sturm_hook,
    "prover.prove_positive": _prove_hook,
    "expr.exp_sum_at": _exp_sum_hook,
}
