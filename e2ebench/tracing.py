"""Layer spans recorded from outside the program, and their attribution.

The benchmark wraps the public calls at each layer boundary of the
``repro`` package (instance attributes, class methods or module
functions) instead of instrumenting ``src/``.  Every span records its
name, ``perf_counter`` start and end, its parent span and the request
it belongs to.  Spans stay in memory until the run ends.

Calls on the request thread nest naturally through a thread-local span
stack.  The model runs on the service's batcher threads, so those spans
are tied back to requests through the cache key each request submitted:
``MicroBatcher.submit`` remembers which request owns the key, and the
``translate_batch`` / ``TranslationCache.put`` wrappers look it up.

A layer's self time is its span's duration minus the part of that
interval its child spans cover, so the self times of all layers plus the
root's own self time add up to the request time.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Span name -> the ``repro`` layer it times.
LAYER_OF = {
    "request": "serving.service",
    "preprocess": "runtime.preprocess",
    "value_index.exact": "db.index",
    "value_index.fuzzy": "db.index",
    "cache.get": "serving.cache",
    "cache.put": "serving.cache",
    "batcher.submit": "serving.batcher",
    "batcher.wait": "serving.batcher",
    "model": "neural",
    "postprocess": "runtime.postprocess",
    "repair": "serving.repair",
    "repair.lint": "analysis",
    "exec.naive": "db.executor",
    "exec.session": "db.planner",
    "adapter.execute": "adapters",
    "adapter.compile": "adapters.sqlite3_adapter",
}


@dataclass
class Span:
    name: str
    request: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class _Flight:
    """One model call a request handed to the batcher, keyed by cache key."""

    root: Span
    submit: Span
    batch: "tuple[float, float] | None" = None


class Tracer:
    """Records the spans of the requests opened with ``record=True``.

    Wrappers are installed once, before the service is built; outside a
    recorded request they only pass the call through.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        #: (start, end, batch size, recorded requests served) per model batch.
        self.batches: list[tuple[float, float, int, int]] = []
        self._local = threading.local()
        self._flights: dict[str, _Flight] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- span plumbing ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int, record: bool):
        """Root span of one client request (no-op unless ``record``)."""
        if not record:
            yield
            return
        root = Span("request", request_id, None, time.perf_counter())
        stack = self._stack()
        stack.append(root)
        try:
            yield
        finally:
            root.end = time.perf_counter()
            stack.pop()
            self.roots.append(root)

    def _wrap(self, name: str, fn, note=None):
        """``fn`` timed as a child of the current span, when there is one."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, parent.request, parent, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                parent.children.append(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a wrapper.

        A plain function set on a class still binds ``self``; one set on an
        instance shadows the bound method it wraps.
        """
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), note))

    # -- installation ------------------------------------------------------

    def install_globals(self) -> None:
        """Patch the module functions and classes every stack shares."""
        import repro.adapters.sqlite3_adapter as sqlite_mod
        import repro.db.executor as executor_mod
        import repro.serving.repair as repair_mod
        from repro.adapters.base import iter_backends
        from repro.db.planner import ExecutorSession
        from repro.serving.batcher import MicroBatcher
        from repro.serving.repair import RepairPipeline

        self._patch(executor_mod, "execute", "exec.naive", _note_rows)
        self._patch(ExecutorSession, "execute", "exec.session", _note_rows)
        for _, backend in iter_backends():
            self._patch(backend, "execute", "adapter.execute", _note_rows)
        self._patch(sqlite_mod, "compile_select", "adapter.compile")
        self._patch(repair_mod, "analyze_query", "repair.lint")
        self._patch(RepairPipeline, "run", "repair", _note_repair)
        self._install_submit(MicroBatcher)

    def install_nlidb(self, nlidb) -> None:
        """Instance wrappers on one DBPal; call before building a service,
        so the service's preprocess memo wraps the wrapper and only memo
        misses are timed."""
        index = nlidb.preprocessor.value_index
        self._patch(nlidb.preprocessor, "preprocess", "preprocess")
        self._patch(index, "lookup", "value_index.exact")
        self._patch(index, "fuzzy_lookup", "value_index.fuzzy", _note_hits)
        self._patch(nlidb.postprocessor, "process", "postprocess", _note_postprocess)

    def install_model(self, model) -> None:
        """``translate`` on the request thread (the DBPal facade) and
        ``translate_batch`` on the batcher threads (the service)."""
        self._patch(model, "translate", "model")
        original = model.translate_batch
        flights = self._flights

        def translate_batch(inputs):
            start = time.perf_counter()
            try:
                return original(inputs)
            finally:
                end = time.perf_counter()
                served = 0
                for key in inputs:
                    flight = flights.get(key)
                    if flight is not None and flight.batch is None:
                        flight.batch = (start, end)
                        served += 1
                if served:
                    self.batches.append((start, end, len(inputs), served))

        self._undo.append((model, "translate_batch", None))
        model.translate_batch = translate_batch

    def install_cache(self, cache) -> None:
        self._patch(cache, "get", "cache.get", _note_cache_get)
        original = cache.put
        flights = self._flights

        def put(key, value):
            start = time.perf_counter()
            try:
                return original(key, value)
            finally:
                flight = flights.pop(key, None)
                if flight is not None:
                    span = Span("cache.put", flight.root.request, flight.root, start)
                    span.end = time.perf_counter()
                    span.attrs["worker"] = True
                    flight.root.children.append(span)
                    _add_model_spans(flight)

        self._undo.append((cache, "put", None))
        cache.put = put

    def _install_submit(self, batcher_cls) -> None:
        original = batcher_cls.__dict__["submit"]
        flights = self._flights

        def submit(self_, request):
            stack = self._stack()
            if not stack:
                return original(self_, request)
            root = stack[0]
            span = Span("batcher.submit", root.request, stack[-1], time.perf_counter())
            flights[request.key] = _Flight(root, span)
            try:
                return original(self_, request)
            finally:
                span.end = time.perf_counter()
                stack[-1].children.append(span)

        self._undo.append((batcher_cls, "submit", original))
        batcher_cls.submit = submit

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- attribution -------------------------------------------------------

    def report(self, cache_stats: "tuple[dict, dict] | None" = None) -> dict:
        """Per-layer metrics over every recorded request."""
        return attribute(self.roots, self.batches, cache_stats)


def _add_model_spans(flight: _Flight) -> None:
    """Batch wait and model time as children of the waiting request.

    Both are clipped to start after ``submit`` returned, so they never
    overlap the submit span on the request thread.
    """
    if flight.batch is None:
        return
    floor = flight.submit.end or flight.submit.start
    batch_start, batch_end = flight.batch
    model_start = max(batch_start, floor)
    wait = Span("batcher.wait", flight.root.request, flight.root, floor, model_start)
    wait.attrs["wait"] = batch_start - flight.submit.start
    model = Span("model", flight.root.request, flight.root, model_start, max(batch_end, model_start))
    model.attrs["worker"] = True
    flight.root.children.extend([wait, model])


def _note_rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = len(result)


def _note_hits(span, args, kwargs, result) -> None:
    span.attrs["hit"] = bool(result)


def _note_cache_get(span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None


def _note_postprocess(span, args, kwargs, result) -> None:
    span.attrs["repaired"] = bool(result is not None and result.repaired)


def _note_repair(span, args, kwargs, result) -> None:
    span.attrs["outcome"] = result.outcome
    span.attrs["accepted"] = bool(result.accepted)


def self_seconds(span: Span) -> float:
    """Duration minus the union of the child intervals inside it."""
    covered = 0.0
    cursor = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(span.seconds - covered, 0.0)


def _walk(span: Span, under_repair: bool = False):
    yield span, under_repair
    inside = under_repair or span.name == "repair"
    for child in span.children:
        yield from _walk(child, inside)


def attribute(roots: list[Span], batches: list, cache_stats=None) -> dict:
    """The per-layer metrics of the recorded requests (see BENCHMARK.json)."""
    n = max(len(roots), 1)
    layer_ms: Counter = Counter()  # self time per layer
    self_ms: Counter = Counter()  # self time per span name
    total_ms: Counter = Counter()  # duration per span name
    calls: Counter = Counter()
    flagged: Counter = Counter()  # (span name, attribute) -> spans where it is true
    waits: list[float] = []
    for root in roots:
        for span, under_repair in _walk(root):
            own = self_seconds(span) * 1000.0
            layer_ms[LAYER_OF[span.name]] += own
            self_ms[span.name] += own
            if span.name == "model" and span.attrs.get("worker"):
                continue  # batched model calls are counted from the batches
            total_ms[span.name] += span.seconds * 1000.0
            calls[span.name] += 1
            for key, value in span.attrs.items():
                if value is True:
                    flagged[span.name, key] += 1
            if span.name == "batcher.wait":
                waits.append(span.attrs["wait"] * 1000.0)
            elif span.name == "repair":
                flagged["repair", "attempted"] += span.attrs.get("outcome") != "clean"
            elif span.name == "adapter.execute" and under_repair:
                flagged["repair", "exec"] += 1
            if span.parent is root and "rows" in span.attrs and not under_repair:
                flagged["request", "rows"] += span.attrs["rows"]
    request_ms = sum(r.seconds for r in roots) * 1000.0
    batch_items = sum(size for _, _, size, _ in batches)
    batch_ms = sum(end - start for start, end, _, _ in batches) * 1000.0
    served = sum(count for _, _, _, count in batches)

    def per_req(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    canonical = 0.0
    if cache_stats is not None:
        before, after = cache_stats
        probes = after.get("canonical_probes", 0) - before.get("canonical_probes", 0)
        hits = after.get("canonical_hits", 0) - before.get("canonical_hits", 0)
        canonical = ratio(hits, probes)
    metrics = {
        "preprocess.calls_per_req": per_req(calls["preprocess"]),
        "preprocess.self_ms_per_req": per_req(self_ms["preprocess"]),
        "value_index.fuzzy_calls_per_req": per_req(calls["value_index.fuzzy"]),
        "value_index.fuzzy_ms_per_req": per_req(total_ms["value_index.fuzzy"]),
        "value_index.exact_calls_per_req": per_req(calls["value_index.exact"]),
        "value_index.fuzzy_hit_ratio": ratio(flagged["value_index.fuzzy", "hit"], calls["value_index.fuzzy"]),
        "cache.hit_ratio": ratio(flagged["cache.get", "hit"], calls["cache.get"]),
        "cache.us_per_req": per_req(layer_ms["serving.cache"] * 1000.0),
        "cache.canonical_hit_ratio": canonical,
        "batcher.wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "batcher.batch_size_mean": ratio(batch_items, len(batches)),
        "model.calls_per_req": per_req(served + calls["model"]),
        "model.ms_per_item": ratio(batch_ms + total_ms["model"], batch_items + calls["model"]),
        "postprocess.ms_per_req": per_req(self_ms["postprocess"]),
        "postprocess.repaired_ratio": ratio(flagged["postprocess", "repaired"], calls["postprocess"]),
        "repair.ms_per_req": per_req(self_ms["repair"]),
        "repair.lint_ms_per_req": per_req(self_ms["repair.lint"]),
        "repair.exec_calls_per_req": per_req(flagged["repair", "exec"]),
        "repair.attempted_ratio": ratio(flagged["repair", "attempted"], calls["repair"]),
        "repair.repaired_ratio": ratio(flagged["repair", "accepted"], calls["repair"]),
        "exec.ms_per_req": per_req(self_ms["exec.naive"] + self_ms["exec.session"]),
        "exec.rows_per_req": per_req(flagged["request", "rows"]),
        "adapter.compile_ms_per_req": per_req(self_ms["adapter.compile"]),
        "adapter.exec_ms_per_req": per_req(self_ms["adapter.execute"]),
        "service.self_ms_per_req": per_req(self_ms["request"]),
        "trace.request_ms_per_req": per_req(request_ms),
        "trace.accounted_ratio": ratio(sum(layer_ms.values()), request_ms),
    }
    layers = {layer: per_req(ms) for layer, ms in sorted(layer_ms.items())}
    return {"metrics": metrics, "layer_self_ms_per_req": layers, "requests": len(roots)}
