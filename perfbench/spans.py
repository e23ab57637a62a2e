"""Spans for the traced run, recorded around the library's public functions.

Wrappers are installed at the bindings the callers look up: a module that
imported a name at import time gets its own binding replaced, and the core
backend is replaced by a namespace of wrapped functions in each module
that holds it.  The library source is not touched.  A binding that no
longer exists is reported as missing and its metrics are left out.

Spans live in flat arrays while the run goes (name, start, end, parent
span, request id) and are reduced to per-layer self times at the end.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import types
from array import array
from time import perf_counter

REQUEST = "request"
MEMO_HIT = "core.memo_hit"

# (module, dotted attribute, layer, kind); "memo" marks core functions that take
# their memo dict as the last argument
PATCHES = (
    ("qbtrials.cli", "main", "cli", ""),
    ("qbtrials.cli", "differential_scan", "oracle", ""),
    ("qbtrials.oracle", "oracle_waiting_pmf", "oracle", ""),
    ("qbtrials.oracle", "oracle_event_prob", "oracle.event_prob", ""),
    ("qbtrials.oracle", "core.waiting_stop_counts", "core.waiting_stop_counts", ""),
    ("qbtrials", "waiting_time_table", "distributions", ""),
    ("qbtrials", "longest_run_pmf", "distributions", ""),
    ("qbtrials", "longest_run_cdf", "distributions", ""),
    ("qbtrials", "joint_longest", "distributions", ""),
    ("qbtrials.distributions", "waiting_time_pmf", "distributions", ""),
    ("qbtrials.distributions", "named_kernel", "kernels.named_kernel", ""),
    ("qbtrials.distributions", "q_pochhammer", "qcalc.q_pochhammer", ""),
    ("qbtrials.distributions", "longest_cell_kernel_U", "kernels.cell", ""),
    ("qbtrials.distributions", "longest_cell_kernel_V", "kernels.cell", ""),
    ("qbtrials.kernels", "KernelValueCache.value", "kernels.value", ""),
    ("qbtrials.kernels", "core.kernel_eval_poly", "core.kernel_eval_poly", "memo"),
    ("qbtrials.kernels", "core.cell_poly_u", "core.cell_poly", "memo"),
    ("qbtrials.kernels", "core.cell_poly_v", "core.cell_poly", "memo"),
)
# differential_scan binds waiting_time_pmf as a default argument at import
DEFAULT_ARG_PATCHES = (("qbtrials.oracle", "differential_scan"),)

# layers whose spans mean a request built a polynomial or enumerated 2^n
BUILD_LAYERS = ("core.kernel_eval_poly", "core.cell_poly", "core.waiting_stop_counts")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._request = -1  # spans are recorded only inside a timed request
        self._undo: list = []
        self.missing: list[str] = []
        self.installed_layers: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def begin_request(self, rid: int) -> None:
        self._request = rid
        self._begin(self.name_id(REQUEST))

    def end_request(self) -> None:
        self._finish(self._open[-1])
        self._request = -1

    def wrap(self, fn, layer: str):
        nid = self.name_id(layer)

        def traced(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            idx = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)

        return traced

    def wrap_memoized(self, fn, layer: str):
        """A call that leaves its memo the same size built nothing: it is
        recorded under MEMO_HIT, so `<layer>.calls` counts constructions."""
        nid = self.name_id(layer)
        hit_id = self.name_id(MEMO_HIT)

        def traced(*args):
            if self._request < 0:
                return fn(*args)
            memo = args[-1]
            before = len(memo)
            idx = self._begin(nid)
            try:
                return fn(*args)
            finally:
                self._finish(idx)
                if len(memo) == before:
                    self.name_of[idx] = hit_id

        return traced

    def install(self) -> None:
        wrappers: dict[tuple[int, str], object] = {}
        for module_name, dotted, layer, kind in PATCHES:
            try:
                owner, attr = self._owner(importlib.import_module(module_name), dotted)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._report_missing(f"{module_name}.{dotted}")
                continue
            key = (id(original), layer)
            if key not in wrappers:
                wrap = self.wrap_memoized if kind == "memo" else self.wrap
                wrappers[key] = wrap(original, layer)
            self._set(owner, attr, wrappers[key])
            self.installed_layers.add(layer)
        by_original = {orig: w for (orig, _), w in wrappers.items()}
        for module_name, fn_name in DEFAULT_ARG_PATCHES:
            fn = getattr(importlib.import_module(module_name), fn_name, None)
            defaults = getattr(fn, "__defaults__", None)
            if not defaults:
                self._report_missing(f"{module_name}.{fn_name}.__defaults__")
                continue
            new = tuple(by_original.get(id(d), d) for d in defaults)
            self._set(fn, "__defaults__", new)

    def _owner(self, module, dotted: str):
        """Object holding the binding; a module's `core` backend is swapped
        for a namespace copy first, so other holders keep the original."""
        *path, attr = dotted.split(".")
        owner = module
        for part in path:
            child = getattr(owner, part)
            if part == "core" and isinstance(child, types.ModuleType):
                child = types.SimpleNamespace(**vars(child))
                self._set(owner, part, child)
            owner = child
        return owner, attr

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _report_missing(self, target: str) -> None:
        self.missing.append(target)
        print(f"trace: patch target {target} not found; its metrics are left out",
              file=sys.stderr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reduce(self):
        """Per-layer totals and per-request self times from the spans.

        Returns (layers, per_request, extra): layers maps a span name to
        {"calls", "self_s", "with_children"}; per_request maps a request id
        to {layer: self_s}.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        has_child = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                has_child[p] = 1
        layers: dict[str, dict] = {
            name: {"calls": 0, "self_s": 0.0, "with_children": 0} for name in self.names}
        per_request: dict[int, dict[str, float]] = {}
        cold_requests = set()
        build_ids = {self._ids[name] for name in BUILD_LAYERS if name in self._ids}
        for i in range(n):
            name = self.names[self.name_of[i]]
            own = dur[i] - child_time[i]
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["with_children"] += has_child[i]
            rid = self.request[i]
            row = per_request.setdefault(rid, {})
            row[name] = row.get(name, 0.0) + own
            if self.name_of[i] in build_ids:
                cold_requests.add(rid)
        extra = {"spans": n, "cold_requests": len(cold_requests)}
        return layers, per_request, extra


def _calls(layers, name):
    return layers.get(name, {}).get("calls", 0)


def _self(layers, *names):
    return sum(layers.get(name, {}).get("self_s", 0.0) for name in names)


def _hit_ratio(layers, name):
    """Share of lookups answered without a child call; 0 with no lookups."""
    entry = layers.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return 1 - entry["with_children"] / entry["calls"]


# (metric, unit, layers the metric needs installed, value from the layer table)
PER_LAYER = (
    ("core.kernel_eval_poly.calls", "count", ("core.kernel_eval_poly",),
     lambda L: _calls(L, "core.kernel_eval_poly")),
    ("core.kernel_eval_poly.self_s", "s", ("core.kernel_eval_poly",),
     lambda L: _self(L, "core.kernel_eval_poly")),
    ("core.cell_poly.calls", "count", ("core.cell_poly",),
     lambda L: _calls(L, "core.cell_poly")),
    ("core.cell_poly.self_s", "s", ("core.cell_poly",),
     lambda L: _self(L, "core.cell_poly")),
    ("core.waiting_stop_counts.calls", "count", ("core.waiting_stop_counts",),
     lambda L: _calls(L, "core.waiting_stop_counts")),
    ("core.waiting_stop_counts.self_s", "s", ("core.waiting_stop_counts",),
     lambda L: _self(L, "core.waiting_stop_counts")),
    ("core.memo_hit.calls", "count", ("core.kernel_eval_poly", "core.cell_poly"),
     lambda L: _calls(L, MEMO_HIT)),
    ("core.memo_hit.self_s", "s", ("core.kernel_eval_poly", "core.cell_poly"),
     lambda L: _self(L, MEMO_HIT)),
    ("kernels.named_kernel.calls", "count", ("kernels.named_kernel",),
     lambda L: _calls(L, "kernels.named_kernel")),
    ("kernels.named_kernel.self_s", "s", ("kernels.named_kernel",),
     lambda L: _self(L, "kernels.named_kernel")),
    ("kernels.value.calls", "count", ("kernels.value",),
     lambda L: _calls(L, "kernels.value")),
    ("kernels.value.self_s", "s", ("kernels.value",),
     lambda L: _self(L, "kernels.value")),
    ("kernels.value.hit_ratio", "ratio", ("kernels.value", "core.kernel_eval_poly"),
     lambda L: _hit_ratio(L, "kernels.value")),
    ("kernels.cell.calls", "count", ("kernels.cell",),
     lambda L: _calls(L, "kernels.cell")),
    ("kernels.cell.self_s", "s", ("kernels.cell",),
     lambda L: _self(L, "kernels.cell")),
    ("kernels.cell.hit_ratio", "ratio", ("kernels.cell", "core.cell_poly"),
     lambda L: _hit_ratio(L, "kernels.cell")),
    ("qcalc.q_pochhammer.calls", "count", ("qcalc.q_pochhammer",),
     lambda L: _calls(L, "qcalc.q_pochhammer")),
    ("qcalc.q_pochhammer.self_s", "s", ("qcalc.q_pochhammer",),
     lambda L: _self(L, "qcalc.q_pochhammer")),
    ("distributions.calls", "count", ("distributions",),
     lambda L: _calls(L, "distributions")),
    ("distributions.self_s", "s", ("distributions",),
     lambda L: _self(L, "distributions")),
    ("oracle.event_prob.calls", "count", ("oracle.event_prob",),
     lambda L: _calls(L, "oracle.event_prob")),
    ("oracle.self_s", "s", ("oracle", "oracle.event_prob"),
     lambda L: _self(L, "oracle", "oracle.event_prob")),
    ("oracle.counts.hit_ratio", "ratio", ("oracle.event_prob", "core.waiting_stop_counts"),
     lambda L: _hit_ratio(L, "oracle.event_prob")),
    ("cli.self_s", "s", ("cli",), lambda L: _self(L, "cli")),
    ("trace.request_s", "s", (), lambda L: sum(e["self_s"] for e in L.values())),
    ("trace.unattributed_s", "s", (), lambda L: _self(L, REQUEST)),
)
