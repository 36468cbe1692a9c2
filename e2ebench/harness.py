"""Closed-loop client, correctness checks and metrics of one workload run.

A run:

1. sets the workload up (timed: ``setup_s``), generates its questions
   and gold rows (not timed);
2. sends questions from one closed-loop client thread for the measured
   window, timing each request from question to rows;
3. serves, untimed, any of the first ``scored`` requests the window did
   not reach, so ``exec_accuracy`` and ``success_rate`` are scored over
   the same requests however fast the program is;
4. runs the checks that fail the run (service accounting at quiescence,
   memory vs sqlite rows on ``join_retail``, trace accounting);
5. tears down and sets up again ``setup_repeats - 1`` more times, so
   ``setup_s`` is a median.

Request times are scaled to a reference host speed (see ``speed.py``):
the client runs a fixed reference loop between requests.  Set-up times
are wall times.

A request the program answers with one of its own errors (a
``ReproError``: untranslatable question, executor refusal, unresolved
placeholder) is a wrong answer: it counts against ``exec_accuracy`` and
``success_rate`` and in the failure histogram.  A request that ends in
any other exception is a crash, and only crashes are ``failed``
operations of the run.

With tracing on, every other request of the window records spans (up
to ``MAX_TRACED_REQUESTS``) and the per-layer metrics come from those;
the requests in between pass through the same wrappers unrecorded, so
their latency against the recorded ones' is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.adapters import MemoryAdapter, normalize_rows
from repro.errors import ReproError
from repro.serving import TranslationService

from speed import SpeedProbe
from tracing import Tracer
from workloads import (
    GoldChecker,
    Workload,
    build_stack,
    close_stack,
    question_stream,
)

#: At most this many requests keep spans in a traced run.
MAX_TRACED_REQUESTS = 4000
#: Served queries re-run on both engines on the library path.
CROSS_ENGINE_SAMPLE = 12
#: Trace accounting tolerance: layer self times must sum to request time.
ACCOUNTING_TOLERANCE = 0.05


class CheckFailed(Exception):
    """A correctness check failed; the run exits non-zero."""


class Client:
    """The closed-loop client: one thread, so the sqlite connection it
    opens is always used on the thread that opened it."""

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="e2e-client")

    def run(self, fn):
        """``fn()`` on the client thread; re-raises its failure."""
        return self._pool.submit(fn).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def failure_code(exc: BaseException) -> str:
    """The stable ``E_*`` code when the error carries one, else its type."""
    return getattr(exc, "code", None) or type(exc).__name__


@dataclass
class Outcome:
    position: int
    start: float
    latency: float
    error: str | None
    crashed: bool  # an exception that is not one of the program's errors
    correct: bool
    traced: bool


class Stream:
    """Hands out request positions in order until a limit or deadline."""

    def __init__(self, start: int, limit: int | None, deadline: float | None) -> None:
        self.position = start
        self.limit = limit
        self.deadline = deadline

    def next(self) -> int | None:
        if self.limit is not None and self.position >= self.limit:
            return None
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return None
        self.position += 1
        return self.position - 1


@dataclass
class Window:
    """Requests served in one measured (or untimed) phase."""

    outcomes: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def rps(self) -> float:
        return len(self.outcomes) / self.seconds if self.seconds else 0.0


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.client = Client()
        self.probe = SpeedProbe()
        self.tracer = Tracer() if trace else None
        self.failures: Counter = Counter()
        self.checks: dict = {}
        self.tracing = False
        self.stack = None

    # -- phases ----------------------------------------------------------

    def setup(self, tracer=None):
        stack = build_stack(self.workload, self.client.run, tracer)
        questions, picks = question_stream(self.workload, stack.database, self.seed)
        if self.workload.popularity:
            # Fill the translation cache once: part of set-up.
            stack.watch.time(
                "warm_fill", lambda: [stack.service.translate(q.nl) for q in questions]
            )
        return stack, questions, picks

    def question_index(self, position: int) -> int:
        if self.picks is not None:
            return int(self.picks[position % len(self.picks)])
        return position % len(self.questions)

    def _epoch_end(self, position: int) -> int | None:
        """Cold service traffic starts a fresh service every pass over the
        question list, so a pass never finds its own keys in the cache."""
        if self.stack.service is None or self.picks is not None:
            return None
        size = len(self.questions)
        return (position // size + 1) * size

    def _client_loop(self, stream: Stream, sink: list) -> None:
        call = self.stack.endpoint()
        tracer = self.tracer
        probe = self.probe
        while True:
            probe.maybe_sample()
            position = stream.next()
            if position is None:
                return
            index = self.question_index(position)
            nl = self.questions[index].nl
            error = None
            crashed = False
            rows = None
            traced = self._traced(position)
            start = time.perf_counter()
            try:
                if tracer is None:
                    rows = call(nl)
                else:
                    with tracer.request(position, traced):
                        rows = call(nl)
            except Exception as exc:  # noqa: BLE001 — every failure is counted
                error = failure_code(exc)
                crashed = not isinstance(exc, ReproError)
            latency = time.perf_counter() - start
            correct = self.checker.matches(index, rows)
            sink.append(Outcome(position, start, latency, error, crashed, correct, traced))

    def _traced(self, position: int) -> bool:
        return (
            self.tracer is not None
            and self.tracing
            and position % 2 == 1
            and position < 2 * MAX_TRACED_REQUESTS
        )

    def serve(self, start: int, deadline: float | None, limit: int | None) -> tuple[Window, int]:
        """Serve from ``start`` until the deadline or ``limit``; switches
        to a fresh service at each cold epoch boundary (not timed)."""
        window = Window()
        position = start
        while True:
            epoch_end = self._epoch_end(position)
            bounds = [x for x in (limit, epoch_end) if x is not None]
            stream = Stream(position, min(bounds) if bounds else None, deadline)
            began = time.perf_counter()
            self.client.run(lambda: self._client_loop(stream, window.outcomes))
            window.seconds += time.perf_counter() - began
            position = stream.position
            if (deadline is not None and time.perf_counter() >= deadline) or (
                limit is not None and position >= limit
            ):
                return window, position
            if epoch_end is not None and position >= epoch_end:
                self._next_service()

    def _next_service(self) -> None:
        self._retire_service()
        self.stack.service = TranslationService(self.stack.nlidb).start()
        if self.tracer is not None:
            self.tracer.install_cache(self.stack.service.cache)

    def _retire_service(self) -> None:
        service = self.stack.service
        service.stop()
        accounting = service.stats()["accounting"]
        if not accounting["consistent"]:
            bad = [i for i in accounting["identities"] if not i["ok"]]
            raise CheckFailed(f"service accounting inconsistent at quiescence: {bad}")
        self.checks["services_reconciled"] = self.checks.get("services_reconciled", 0) + 1

    def cross_engine_check(self) -> dict:
        """Re-run a fixed sample of served queries on the memory arm.

        The sample is the first ``CROSS_ENGINE_SAMPLE`` questions of the
        stream.  A query either engine refuses is counted, not compared;
        different rows fail the run.
        """
        nlidb = self.stack.nlidb
        memory = MemoryAdapter(self.stack.database)
        sample = [self.questions[self.question_index(p)] for p in range(CROSS_ENGINE_SAMPLE)]

        def compare() -> dict:
            report = {"compared": 0, "refused": 0}
            for question in sample:
                result = nlidb.translate(question.nl)
                if not result.ok:
                    report["refused"] += 1
                    continue
                try:
                    on_sqlite = nlidb.backend.execute(result.query)
                    on_memory = memory.execute(result.query)
                except Exception:  # noqa: BLE001 — refusals are counted, not compared
                    report["refused"] += 1
                    continue
                if normalize_rows(on_sqlite) != normalize_rows(on_memory):
                    raise CheckFailed(f"memory and sqlite rows differ for {result.sql!r}")
                report["compared"] += 1
            return report

        # The client thread owns nlidb's sqlite connection.
        return self.client.run(compare)

    # -- the whole run ---------------------------------------------------

    def execute(self) -> dict:
        """The whole run; whatever fails, every service and client thread
        is stopped and every patch undone before this returns."""
        try:
            return self._run()
        finally:
            if self.stack is not None:
                close_stack(self.stack, self.client.run)
            if self.tracer is not None:
                self.tracer.close()
            self.client.close()

    def _run(self) -> dict:
        workload = self.workload
        if self.tracer is not None:
            self.tracer.install_globals()
        self.stack, self.questions, self.picks = self.setup(self.tracer)
        setups = [self.stack.watch]
        self.checker = GoldChecker(self.stack.database, self.questions)
        cache_before = self.stack.service.cache.stats() if self.stack.service else None
        self.tracing = True
        timed, position = self.serve(0, time.perf_counter() + self.seconds, None)
        self.tracing = False
        completion = Window()
        if position < workload.scored:
            completion, position = self.serve(position, None, workload.scored)
        cache_stats = None
        if self.stack.service is not None:
            cache_stats = (cache_before, self.stack.service.cache.stats())
            self._retire_service()
        else:
            self.checks["cross_engine"] = self.cross_engine_check()
        layers = None
        if self.tracer is not None:
            layers = self.tracer.report(cache_stats)
            accounted = layers["metrics"]["trace.accounted_ratio"]
            self.checks["trace_accounted_ratio"] = accounted
            if layers["requests"] and abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
                raise CheckFailed(f"layer self times cover {accounted:.3f} of request time")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spans = self._dump_spans() if self.tracer is not None else None
        corpus_pairs = self.stack.corpus_pairs
        self.stack.service = None  # retired above
        close_stack(self.stack, self.client.run)
        self.stack = None
        if self.tracer is not None:
            self.tracer.close()
        for _ in range(workload.setup_repeats - 1):
            gc.collect()
            self.stack, _, _ = self.setup()
            setups.append(self.stack.watch)
            close_stack(self.stack, self.client.run)
            self.stack = None

        outcomes = timed.outcomes + completion.outcomes
        for outcome in outcomes:
            if outcome.error is not None:
                self.failures[outcome.error] += 1
        scored = [o for o in outcomes if o.position < workload.scored]
        failed_scored = sum(o.error is not None for o in scored)
        # Timed requests, in seconds on the reference host (speed.py).
        latencies = sorted(
            o.latency * self.probe.factor(o.start, o.start + o.latency)
            for o in timed.outcomes
        )
        wall = sorted(o.latency for o in timed.outcomes)
        p95 = _quantile(latencies, 0.95)
        end_to_end = {
            "setup_s": statistics.median(w.total for w in setups),
            # Closed loop: one request in flight at a time.
            "rps": len(latencies) / sum(latencies),
            "latency_p50_ms": _quantile(latencies, 0.50) * 1000.0,
            "latency_p95_ms": p95 * 1000.0,
            "exec_accuracy": sum(o.correct for o in scored) / len(scored),
            "success_rate": 1.0 - failed_scored / len(scored),
            "peak_rss_mb": peak_rss_mb,
        }
        setup_layers = {
            f"setup.{phase}_s": statistics.median(w.phases.get(phase, 0.0) for w in setups)
            for phase in ("populate", "synthesis", "fit", "index", "backend_load")
        }
        setup_layers["setup.corpus_pairs"] = corpus_pairs
        per_layer = None
        if layers is not None:
            per_layer = dict(layers["metrics"])
            per_layer.update(setup_layers)
            per_layer["trace.overhead_ratio"] = _overhead(timed.outcomes)
        return {
            # Checks that fail the run raise CheckFailed before this point.
            "correct": True,
            "attempted": len(outcomes),
            "failed": sum(o.crashed for o in outcomes),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "context": {
                "workload": workload.name,
                "seed": self.seed,
                "trace": self.trace,
                "sizes": asdict(workload),
                "clients": 1,
                "distinct_questions": len(self.questions),
                "timed_requests": len(timed.outcomes),
                "beyond_p95": sum(1 for x in latencies if x > p95),
                "scored_requests": len(scored),
                "completion_requests": len(completion.outcomes),
                "error_rate": failed_scored / len(scored),
                "wall": {
                    "rps": timed.rps,
                    "latency_p50_ms": _quantile(wall, 0.50) * 1000.0,
                    "latency_p95_ms": _quantile(wall, 0.95) * 1000.0,
                    "reference_loop_ms": self.probe.median_loop_ms(),
                },
                "failures": dict(sorted(self.failures.items())),
                "checks": self.checks,
                "setup_phases_s": setup_layers,
                "largest_layer": (
                    max(layers["layer_self_ms_per_req"].items(), key=lambda kv: kv[1])[0]
                    if layers and layers["layer_self_ms_per_req"]
                    else None
                ),
                "layer_self_ms_per_req": layers["layer_self_ms_per_req"] if layers else None,
                "spans_file": spans,
                "env": environment(),
            },
        }

    def _dump_spans(self) -> str:
        """Write the recorded spans as JSON; returns the relative path."""
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{self.workload.name}-seed{self.seed}.json"
        ids: dict[int, int] = {}
        records = []

        def visit(span) -> None:
            ids[id(span)] = len(ids)
            records.append(
                {
                    "id": ids[id(span)],
                    "name": span.name,
                    "request": span.request,
                    "parent": None if span.parent is None else ids.get(id(span.parent)),
                    "start": span.start,
                    "end": span.end,
                    "attrs": span.attrs,
                }
            )
            for child in sorted(span.children, key=lambda c: c.start):
                visit(child)

        for root in self.tracer.roots:
            visit(root)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"batches": self.tracer.batches, "spans": records}, handle)
        return str(path.relative_to(Path(__file__).resolve().parent.parent))


def _overhead(outcomes: list[Outcome]) -> float:
    """Mean latency of recorded requests over that of the unrecorded ones
    they were interleaved with (1.0 = tracing costs nothing)."""
    last = max((o.position for o in outcomes if o.traced), default=-1)
    window = [o for o in outcomes if o.position <= last]
    traced = [o.latency for o in window if o.traced]
    plain = [o.latency for o in window if not o.traced]
    if not traced or not plain:
        return 0.0
    return statistics.fmean(traced) / statistics.fmean(plain)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
