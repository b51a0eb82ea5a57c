"""Span recorder for the traced run (`run.py --trace 1`).

`Tracer.install` replaces setcat's public callables with wrappers, from the
benchmark's side: every call records a span with its layer name, start, end,
parent span and the op it belongs to.  The layer's self time is the span's
duration minus the time of its child spans.  Spans stay in memory (the first
`MAX_SPANS` of them) and are written out when the run ends; the per-layer
totals are kept for every span.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from math import lcm

# (layer, module, class, methods); methods listed together share one wrapper
METHODS = [
    ("cyclo.mul", "cyclo", "Cyclo", ("__mul__", "__rmul__")),
    ("cyclo.add", "cyclo", "Cyclo", ("__add__", "__radd__")),
    ("cyclo.galois", "cyclo", "Cyclo", ("galois",)),
    ("cyclo.inverse", "cyclo", "Cyclo", ("inverse",)),
    ("fusion.validate", "fusion", "FusionRing", ("validate",)),
    ("fusion.product", "fusion", "FusionRing", ("product",)),
    ("fusion.fp_dims", "fusion", "FusionRing", ("fp_dims",)),
    ("premodular.s_entry", "premodular", "Premodular", ("s_entry",)),
    ("premodular.deligne", "premodular", "Premodular", ("deligne",)),
    ("premodular.validate", "premodular", "Premodular", ("validate",)),
    ("premodular.is_nondegenerate", "premodular", "Premodular", ("is_nondegenerate",)),
    ("pointed.condense", "pointed", "MetricGroup", ("condense",)),
    ("pointed.to_premodular", "pointed", "MetricGroup", ("to_premodular",)),
]
# (layer, module, function); replaced wherever a setcat module imported it
FUNCTIONS = [
    ("relprod.condense", "relprod", "condense_by_invertible_bosons"),
    ("relprod.relative_tensor_product", "relprod", "relative_tensor_product"),
    ("equiv.find_equivalence", "equiv", "find_equivalence"),
    ("equiv.check_bijection", "equiv", "check_bijection"),
    ("double.drinfeld_double", "double", "drinfeld_double"),
]

CALL_LAYERS = ["cyclo.mul", "cyclo.add", "cyclo.galois", "cyclo.inverse",
               "fusion.validate", "premodular.s_entry", "premodular.deligne",
               "relprod.condense", "equiv.find_equivalence"]
SELF_LAYERS = [layer for layer, *_ in METHODS + FUNCTIONS] + ["op"]
HIGH_CONDUCTOR = 120

# name -> (unit, better) of every per-layer metric: those `Tracer.metrics`
# reports, then those the runner measures around the traced passes
LAYER_METRICS = {
    **{f"{layer}.calls": ("count", "lower") for layer in CALL_LAYERS},
    **{f"{layer}.self_s": ("s", "lower") for layer in SELF_LAYERS},
    f"cyclo.mul.calls.ge{HIGH_CONDUCTOR}": ("count", "lower"),
    f"cyclo.mul.self_s.ge{HIGH_CONDUCTOR}": ("s", "lower"),
    "cyclo.max_conductor": ("order", "lower"),
    "premodular.s_entry.hit_ratio": ("ratio", "higher"),
    "relprod.condense.failed": ("count", "lower"),
    "catalog.build_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
MAX_SPANS = 100_000


def _order(x) -> int:
    return getattr(x, "order", 1)


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear the totals (recorded spans are kept)."""
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._agg: dict[str, list] = {}  # layer -> [calls, self seconds, raised]
        self._op = -1
        self._max_conductor = 1
        self._hi_calls = 0
        self._hi_self = 0.0
        self._s_hits = 0
        self._s_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, fn, hook=None):
        """`fn` wrapped so that each call records a span of `layer`."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            raised = True
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                agg = self._agg.get(layer)
                if agg is None:
                    agg = self._agg[layer] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += own
                agg[2] += raised
                if hook is not None and not raised:
                    hook(args, out, own)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[1], parent, self._op, layer, t0, t1))
                else:
                    self.dropped += 1
        return wrapper

    def run_op(self, index: int, fn) -> None:
        """Run one op as a root span of layer "op"; spans inside carry its index."""
        self._op = index
        try:
            self.span("op", fn)()
        finally:
            self._op = -1

    # -- per-layer hooks -------------------------------------------------------

    def _result_order(self, args, out, own) -> None:
        n = _order(out)
        if n > self._max_conductor:
            self._max_conductor = n

    def _mul(self, args, out, own) -> None:
        self._result_order(args, out, own)
        if lcm(_order(args[0]), _order(args[1])) >= HIGH_CONDUCTOR:
            self._hi_calls += 1
            self._hi_self += own

    def _s_entry(self, args, out, own) -> None:
        seen = self._s_seen.setdefault(args[0], set())
        key = (args[1], args[2])
        if key in seen:
            self._s_hits += 1
        else:
            seen.add(key)

    # -- install / uninstall ---------------------------------------------------

    def install(self, lib) -> None:
        hooks = {"cyclo.mul": self._mul, "cyclo.add": self._result_order,
                 "cyclo.galois": self._result_order,
                 "cyclo.inverse": self._result_order,
                 "premodular.s_entry": self._s_entry}
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(getattr(lib, module), cls_name)
            wrapper = self.span(layer, getattr(cls, methods[0]), hooks.get(layer))
            for name in methods:
                self._patch(cls, name, wrapper)
        setcat_modules = [m for name, m in sys.modules.items()
                          if name == "setcat" or name.startswith("setcat.")]
        for layer, module, name in FUNCTIONS:
            original = getattr(getattr(lib, module), name)
            wrapper = self.span(layer, original)
            for mod in setcat_modules:
                if getattr(mod, name, None) is original:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last `reset`."""
        def agg(layer):
            return self._agg.get(layer, [0, 0.0, 0])

        out: dict[str, float] = {}
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = agg(layer)[0]
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = agg(layer)[1]
        out[f"cyclo.mul.calls.ge{HIGH_CONDUCTOR}"] = self._hi_calls
        out[f"cyclo.mul.self_s.ge{HIGH_CONDUCTOR}"] = self._hi_self
        out["cyclo.max_conductor"] = self._max_conductor
        s_calls = agg("premodular.s_entry")[0]
        out["premodular.s_entry.hit_ratio"] = self._s_hits / s_calls if s_calls else 0.0
        out["relprod.condense.failed"] = agg("relprod.condense")[2]
        return out
