"""Span tracing around the public functions of each gflownf module.

The tracer rebinds every module-level alias of a traced function (``from .x
import y`` copies the name into the importing module), records one span per
call in memory and restores the originals on exit. Each span holds its name,
start, end, parent span and item id; self time is a span's duration minus the
time its child spans cover. Calls are synchronous on one thread, so child
spans are disjoint and self time can be summed as the spans close.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# Traced public functions, by module. Per-layer metric names derive from these.
TRACED = {
    "opengraph": ("parse_open_graph_document", "serialize_open_graph", "odd_neighbourhood"),
    "gflow": (
        "verify_gflow",
        "extensivity_order",
        "check_normal_form",
        "corrective_maps",
        "parse_gflow",
        "serialize_gflow",
    ),
    "search": ("find_gflow", "brute_force_enumerate", "exists_normal_form"),
    "normal_forms": ("focus", "promote_all"),
    "sim": (
        "prepare",
        "measure",
        "apply_correction",
        "run_all_branches",
        "check_determinism",
        "pattern_from_gflow",
        "extract_isometry",
    ),
    "instances": ("random_instance",),
}
# Generators: each next() is a span and each yielded value counts as an item.
TRACED_GENERATORS = {"instances": ("all_instances",)}

# find_gflow time per call by vertex count: (label, largest vertex count).
FIND_BUCKETS = (("v64", 64), ("v128", 128), ("v256", 256))

SPAN_CAP = 200_000  # spans kept for the span file; aggregates cover every call


class Agg:
    __slots__ = ("calls", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _find_extra(agg, args, result, dur):
    n = len(args[0].vertices)
    agg.add("found", result is not None)
    agg.add("vertices", n)
    for label, top in FIND_BUCKETS:
        if n <= top:
            agg.add(f"{label}.calls", 1)
            agg.add(f"{label}.time", dur)
            break


def _prepare_extra(agg, args, result, dur):
    n = len(args[0].vertices)
    agg.add("state_bytes_computed", 16 * 2**n)
    agg.extra["max_qubits"] = max(agg.extra.get("max_qubits", 0), n)


def _branches_extra(agg, args, result, dur):
    agg.add("branches", len(result))
    agg.add("zero_prob_branches", sum(1 for r in result if r.probability == 0))


EXTRAS = {
    "search.find_gflow": _find_extra,
    "search.brute_force_enumerate": lambda agg, a, r, d: (
        agg.add("gflows", len(r.gflows)),
        agg.add("not_exhausted", not r.exhausted),
    ),
    "search.exists_normal_form": lambda agg, a, r, d: agg.add("undecided", r is None),
    "gflow.verify_gflow": lambda agg, a, r, d: agg.add("invalid", not r.valid),
    "normal_forms.promote_all": lambda agg, a, r, d: agg.add("steps", len(r[2])),
    "opengraph.parse_open_graph_document": lambda agg, a, r, d: agg.add("bytes", len(a[0])),
    "sim.run_all_branches": _branches_extra,
    "sim.prepare": _prepare_extra,
}


class Tracer:
    """Context manager that traces the TRACED functions through every gflownf
    module and the given extra modules, then restores them."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.active = True
        self.item = -1
        self.aggs: dict[str, Agg] = {}
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def __enter__(self):
        namespaces = [
            m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gflownf"
        ]
        namespaces += list(self.extra_modules)
        for mod_name, funcs in list(TRACED.items()) + list(TRACED_GENERATORS.items()):
            module = sys.modules[f"gflownf.{mod_name}"]
            for fname in funcs:
                original = getattr(module, fname)
                qual = f"{mod_name}.{fname}"
                generator = fname in TRACED_GENERATORS.get(mod_name, ())
                wrapper = (self._wrap_gen if generator else self._wrap)(qual, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()
        return False

    def _open(self, qual):
        agg = self.aggs.get(qual)
        if agg is None:
            agg = self.aggs[qual] = Agg()
            self._index[qual] = len(self.names)
            self.names.append(qual)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return agg, sid, parent

    def _close(self, qual, agg, sid, parent, start, end):
        _, child = self._stack.pop()
        dur = end - start
        agg.calls += 1
        agg.self_time += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if sid < SPAN_CAP:
            self.span_name.append(self._index[qual])
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_item.append(self.item)
            self.span_start.append(start)
            self.span_end.append(end)

    def _wrap(self, qual, fn):
        extra = EXTRAS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            agg, sid, parent = self._open(qual)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(qual, agg, sid, parent, start, end)
            if extra is not None:
                extra(agg, args, result, end - start)
            return result

        return wrapper

    def _wrap_gen(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self.active:
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    yield value
                    continue
                agg, sid, parent = self._open(qual)
                start = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(qual, agg, sid, parent, start, perf_counter())
                agg.add("items", 1)
                yield value

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit), zero for layers not called."""
        out = {}
        for mod_name, funcs in list(TRACED.items()) + list(TRACED_GENERATORS.items()):
            for fname in funcs:
                qual = f"{mod_name}.{fname}"
                agg = self.aggs.get(qual, Agg())
                if fname in TRACED_GENERATORS.get(mod_name, ()):
                    out[f"{qual}.items"] = (agg.extra.get("items", 0), "count")
                else:
                    out[f"{qual}.calls"] = (agg.calls, "count")
                out[f"{qual}.self_ms"] = (1e3 * agg.self_time, "ms")
        aggs = self.aggs
        find = aggs.get("search.find_gflow", Agg()).extra
        out["search.find_gflow.found"] = (find.get("found", 0), "count")
        out["search.find_gflow.vertices"] = (find.get("vertices", 0), "count")
        for label, _ in FIND_BUCKETS:
            calls = find.get(f"{label}.calls", 0)
            ms = 1e3 * find.get(f"{label}.time", 0.0) / calls if calls else 0.0
            out[f"search.find_gflow.ms_per_call.{label}"] = (ms, "ms")
        for qual, key, unit in (
            ("search.brute_force_enumerate", "gflows", "count"),
            ("search.brute_force_enumerate", "not_exhausted", "count"),
            ("search.exists_normal_form", "undecided", "count"),
            ("gflow.verify_gflow", "invalid", "count"),
            ("normal_forms.promote_all", "steps", "count"),
            ("opengraph.parse_open_graph_document", "bytes", "bytes"),
            ("sim.run_all_branches", "branches", "count"),
            ("sim.run_all_branches", "zero_prob_branches", "count"),
            ("sim.prepare", "state_bytes_computed", "bytes"),
            ("sim.prepare", "max_qubits", "qubits"),
        ):
            out[f"{qual}.{key}"] = (aggs.get(qual, Agg()).extra.get(key, 0), unit)
        return out

    def write_spans(self, path):
        """Write the kept spans as tab-separated lines, times relative to the first."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept: {len(self.span_id)} of {self._next_id}\n")
            fh.write("span\tparent\titem\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{1e6 * (self.span_start[i] - origin):.1f}\t"
                    f"{1e6 * (self.span_end[i] - origin):.1f}\n"
                )
