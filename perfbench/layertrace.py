"""Per-layer tracing for the traced benchmark run.

Only ``run.py --trace 1`` imports this module.  ``Tracer.install`` rebinds
each traced public function of ``qknorm`` to a timing wrapper in every
``qknorm`` module that holds it (most modules bind names with
``from .x import f``, so patching the defining module alone would miss
them); ``Tracer.restore`` puts every original object back.

Outer functions are recorded as spans ``(id, name, start, end, parent)``.
Hot leaf functions are recorded as in-memory counters keyed by
``(function, name of the enclosing span)``.  Every wrapped call, span or
counter, pushes a frame that collects the time of its wrapped callees, so a
call's self time is its duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

SPAN = "span"
COUNTER = "counter"


def _scan_counts_name(args, kwargs):
    disc = args[0] if args else kwargs["disc"]
    return ("classgroup.scan_counts.imag" if disc.delta < 0
            else "classgroup.scan_counts.real")


# (layer name, module, attribute, kind, name function or None); an attribute
# "Class.method" patches the method on the class.
TARGETS = [
    ("cli.main", "qknorm.cli", "main", SPAN, None),
    ("cli.run_scan", "qknorm.cli", "run_scan", SPAN, None),
    ("cli.fundamental_range", "qknorm.cli", "fundamental_range", SPAN, None),
    ("mv.genus_engine", "qknorm.mv", "genus_engine", SPAN, None),
    ("classgroup.scan_counts", "qknorm.classgroup", "scan_counts", SPAN,
     _scan_counts_name),
    ("local.genus_char_space", "qknorm.local", "genus_char_space", SPAN,
     None),
    ("classgroup.class_group", "qknorm.classgroup", "class_group", SPAN,
     None),
    ("knorm.k0_context", "qknorm.knorm", "k0_context", SPAN, None),
    ("knorm.k0_group", "qknorm.knorm", "k0_group", SPAN, None),
    ("knorm.bass_sequence_report", "qknorm.knorm", "bass_sequence_report",
     SPAN, None),
    ("mv.sampled_exactness", "qknorm.mv", "sampled_exactness", SPAN, None),
    ("mv.boundary_preimage", "qknorm.mv", "boundary_preimage", SPAN, None),
    ("knorm.solve_norm_equation", "qknorm.knorm", "solve_norm_equation",
     SPAN, None),
    ("quadfield.is_fundamental", "qknorm.quadfield", "is_fundamental",
     COUNTER, None),
    ("quadfield.make_discriminant", "qknorm.quadfield", "make_discriminant",
     COUNTER, None),
    ("units.fundamental_unit", "qknorm.units", "fundamental_unit", COUNTER,
     None),
    ("local.is_global_norm", "qknorm.local", "is_global_norm", COUNTER,
     None),
    ("local.hilbert_symbol", "qknorm.local", "hilbert_symbol", COUNTER, None),
    ("ideals.FracIdeal.mul", "qknorm.ideals", "FracIdeal.__mul__", COUNTER,
     None),
    ("ideals.primes_above", "qknorm.ideals", "primes_above", COUNTER, None),
    ("ideals.ideal_valuation", "qknorm.ideals", "ideal_valuation", COUNTER,
     None),
    ("classgroup.principal_generator", "qknorm.classgroup",
     "principal_generator", COUNTER, None),
    ("knorm.k0_key", "qknorm.knorm", "k0_key", COUNTER, None),
    ("mv.boundary", "qknorm.mv", "boundary", COUNTER, None),
    ("mv.map_i", "qknorm.mv", "map_i", COUNTER, None),
]

# layers reported with .calls and .self_s, in report order
LAYERS = [
    "quadfield.is_fundamental", "quadfield.make_discriminant",
    "classgroup.scan_counts.imag", "classgroup.scan_counts.real",
    "classgroup.class_group", "classgroup.principal_generator",
    "units.fundamental_unit",
    "local.genus_char_space", "local.is_global_norm", "local.hilbert_symbol",
    "ideals.FracIdeal.mul", "ideals.primes_above", "ideals.ideal_valuation",
    "knorm.k0_group", "knorm.k0_key", "knorm.bass_sequence_report",
    "knorm.solve_norm_equation",
    "mv.boundary_preimage", "mv.boundary", "mv.map_i",
    "mv.sampled_exactness", "mv.genus_engine",
    "cli.fundamental_range", "cli.run_scan", "cli.main",
]


def _qknorm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qknorm"
                                  or name.startswith("qknorm."))]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, float]] = []
        # (name, enclosing span name) -> [calls, total seconds, self seconds]
        self.counters: dict[tuple[str, str | None], list] = {}
        self._frames: list[list[float]] = []
        self._span_stack: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, kind, name_of):
        clock = time.perf_counter
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        counters = self.counters
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            frame = [0.0]
            frames.append(frame)
            if kind == SPAN:
                span_id = next(ids)
                parent = span_stack[-1][0] if span_stack else None
                span_stack.append((span_id, label))
            else:
                parent_name = span_stack[-1][1] if span_stack else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                self_s = dur - frame[0]
                if kind == SPAN:
                    span_stack.pop()
                    spans.append((span_id, label, start, end, parent,
                                  self_s))
                else:
                    c = counters.get((label, parent_name))
                    if c is None:
                        c = counters[(label, parent_name)] = [0, 0.0, 0.0]
                    c[0] += 1
                    c[1] += dur
                    c[2] += self_s

        return wrapper

    # -- install and restore -------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded qknorm module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _qknorm_modules()
        for name, modname, attr, kind, name_of in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig,
                            self._wrap(orig, name, kind, name_of))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, kind, name_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, target, key, orig, wrapper) -> None:
        setattr(target, key, wrapper)
        self._patches.append((target, key, orig))

    def restore(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._patches:
            target, key, orig = self._patches.pop()
            setattr(target, key, orig)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds] over spans and counters."""
        out: dict[str, list] = {}
        for _, name, _, _, _, self_s in self.spans:
            t = out.setdefault(name, [0, 0.0])
            t[0] += 1
            t[1] += self_s
        for (name, _), (calls, _, self_s) in self.counters.items():
            t = out.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += self_s
        return out

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer calls and self seconds plus the derived counts.

        ``local.hilbert_symbol.per_genus_call`` is the number of Hilbert
        symbols evaluated directly under a ``genus_char_space`` span, per
        such span.  The ``per_field`` counts are spans per ``cli.main`` span.
        Each is 0 when its denominator is 0.
        """
        totals = self.totals()
        out = {}
        for name in LAYERS:
            calls, self_s = totals.get(name, [0, 0.0])
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        genus_calls = totals.get("local.genus_char_space", [0, 0.0])[0]
        hilbert_in_genus = self.counters.get(
            ("local.hilbert_symbol", "local.genus_char_space"), [0])[0]
        fields = totals.get("cli.main", [0, 0.0])[0]

        def ratio(num, den):
            return num / den if den else 0.0

        out["local.hilbert_symbol.per_genus_call"] = {
            "value": ratio(hilbert_in_genus, genus_calls), "unit": "ratio"}
        for layer in ("knorm.k0_context", "knorm.k0_group"):
            out[f"{layer}.per_field"] = {
                "value": ratio(totals.get(layer, [0])[0], fields),
                "unit": "ratio"}
        return out

    def write(self, path) -> None:
        """Write spans and counters as one JSON document."""
        doc = {
            "spans": [{"id": i, "name": n, "start": s, "end": e,
                       "parent": p, "self_s": st}
                      for i, n, s, e, p, st in self.spans],
            "counters": [{"name": n, "parent": p, "calls": c[0],
                          "total_s": c[1], "self_s": c[2]}
                         for (n, p), c in sorted(
                             self.counters.items(),
                             key=lambda kv: (kv[0][0], kv[0][1] or ""))],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
