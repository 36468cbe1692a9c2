"""The three workloads: their sizes, question streams, gold rows and set-up.

Questions are synthesized SynQL-style from the program's own generators
and bound to constants sampled from the populated database, so a
workload is fixed by its parameters plus the ``--seed``.  The program
under test only ever sees the generated question strings.

Gold rows come from the gold query on the reference engine (the
in-memory planner behind :class:`repro.adapters.MemoryAdapter`), with
placeholders bound through :func:`repro.runtime.postprocess.restore_placeholders`.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.adapters import MemoryAdapter, SqliteAdapter, normalize_rows
from repro.bench.patients import build_patients_benchmark
from repro.core import GenerationConfig, TrainingPipeline
from repro.core.generator import Generator
from repro.core.seed_templates import SEED_TEMPLATES
from repro.core.templates import Family
from repro.db import populate
from repro.neural import SyntaxAwareModel
from repro.runtime import DBPal
from repro.runtime.parameter_handler import Binding
from repro.runtime.postprocess import restore_placeholders
from repro.schema import load_schema
from repro.serving import TranslationService
from repro.sql.ast import (
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    InPredicate,
    Like,
    Placeholder,
    Query,
    conjoin,
)

#: Fixed model/corpus seed: the translator is part of set-up, not input.
MODEL_SEED = 0
#: Fixed seeds of the workload definition: the database contents, and
#: which question patterns are used in which order.  ``--seed`` draws the
#: constants bound into the patterns and the replay sequence.
DATABASE_SEED = 0
PATTERN_SEED = 0


@dataclass(frozen=True)
class Workload:
    """Size parameters of one workload (see BENCHMARK.json for why)."""

    name: str
    schema: str
    rows: int  # rows per table
    path: str  # "service": TranslationService.query; "library": DBPal.query on sqlite
    distinct: int | None  # distinct questions; None = the whole pool
    scored: int  # requests scored for exec_accuracy / success_rate
    popularity: bool = False  # skewed replay of the distinct questions
    corpus_pairs: int = 500
    epochs: int = 6
    setup_repeats: int = 3


#: Rows per table are sized so a 25-second run serves at least 200
#: requests (p95 with ten samples beyond it): value matching scans every
#: text value for each phrase of a new question, so at 1 000 rows a
#: request takes about 0.3 s (Patients) and 0.5 s (retail).
#:
#: Each workload has one closed-loop client thread (``harness.Client``).
#: With two, the interpreter hands the GIL over every 5 ms, and two
#: clients fall into a convoy or an interleaved regime that differs
#: between identical runs (warm p50 0.5 vs 1.8 ms), so their timings
#: measure the scheduler.
WORKLOADS = {
    "cold_patients": Workload("cold_patients", "patients", 400, "service", None, 200),
    "warm_patients": Workload(
        "warm_patients", "patients", 40, "service", 100, 10000, popularity=True
    ),
    # 400 of the 469 distinct questions are scored: which constants a seed
    # binds moves whether a join compiles, so 200 spread success_rate
    # too widely across seeds.
    "join_retail": Workload("join_retail", "retail", 100, "library", None, 400),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` (for the benchmark's tests)."""
    return replace(
        workload,
        rows=min(workload.rows, 30),
        distinct=min(workload.distinct or 12, 12),
        scored=6 if not workload.popularity else 40,
        corpus_pairs=60,
        epochs=1,
        setup_repeats=1,
    )


# ----------------------------------------------------------------------
# Questions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Question:
    nl: str
    gold: Query


_PLACEHOLDER = re.compile(r"@[A-Z_]+(?:\.[A-Z_]+)?")


def _column_segment(name: str) -> str:
    parts = name.lower().split(".")
    if parts[-1] in ("low", "high"):
        parts = parts[:-1]
    return parts[-1]


def placeholder_columns(query: Query, schema) -> dict[str, tuple[str, str]]:
    """Gold placeholder name -> the (table, column) it is compared with."""
    found: dict[str, tuple[str, str]] = {}

    def owner(column: str, tables) -> str | None:
        for table in tables:
            if table in schema and column in schema.table(table):
                return table
        hits = schema.tables_with_column(column)
        return hits[0].name if hits else None

    def visit(q: Query) -> None:
        for pred in q.walk_predicates():
            pairs = []
            if isinstance(pred, Comparison):
                pairs = [(pred.left, pred.right), (pred.right, pred.left)]
            elif isinstance(pred, Between):
                pairs = [(pred.column, pred.low), (pred.column, pred.high)]
            elif isinstance(pred, Like):
                pairs = [(pred.column, pred.pattern)]
            elif isinstance(pred, InPredicate):
                pairs = [(pred.column, value) for value in pred.values]
            for column, operand in pairs:
                if isinstance(operand, Placeholder) and isinstance(column, ColumnRef):
                    table = column.table or owner(column.column, q.from_tables)
                    if table is not None:
                        found[operand.name] = (table, column.column)
        for sub in q.walk_subqueries():
            visit(sub)

    visit(query)
    return found


class ConstantSampler:
    """Draws placeholder constants from the populated database."""

    def __init__(self, database, rng: np.random.Generator) -> None:
        self.database = database
        self.rng = rng
        self._values: dict[tuple[str, str], list] = {}

    def values(self, table: str, column: str) -> list:
        key = (table, column)
        if key not in self._values:
            self._values[key] = sorted(set(self.database.column_values(table, column)))
        return self._values[key]

    def bind(self, nl: str, query: Query) -> tuple[str, list[Binding]]:
        """Fill ``nl``'s placeholders; return the text and gold bindings."""
        columns = placeholder_columns(query, self.database.schema)
        unused = [p.name for p in query.placeholders()]
        drawn: dict[tuple[str, str], list] = {}
        bindings: list[Binding] = []
        text = nl
        for token in _PLACEHOLDER.findall(nl):
            # The NL may name a placeholder by its column only ("@PRICE" for
            # "@PRODUCT.PRICE"): match exactly, then by column, then in order.
            name = token[1:]
            if name not in unused:
                segment = _column_segment(name)
                same = [n for n in unused if _column_segment(n) == segment]
                name = (same or unused or [name])[0]
            if name in unused:
                unused.remove(name)
            value = self._draw(name, columns.get(name), drawn)
            bindings.append(Binding(placeholder=name, value=value))
            text = text.replace(token, str(value), 1)
        return text, bindings

    def _draw(self, name: str, column, drawn: dict):
        if column is None:  # e.g. @NUM compared with COUNT(*)
            return int(self.rng.integers(1, 16))
        pool = self.values(*column)
        side = name.rsplit(".", 1)[-1]
        if side not in ("LOW", "HIGH"):
            return pool[int(self.rng.integers(len(pool)))]
        if column not in drawn:
            picks = self.rng.choice(len(pool), size=2, replace=False)
            drawn[column] = sorted(pool[int(i)] for i in picks)
        return drawn[column][0 if side == "LOW" else 1]


def stratified(items: list, key, rng: np.random.Generator) -> list:
    """Round-robin over strata (shuffled within), so every prefix of the
    order draws evenly from every stratum."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    order = [groups[name] for name in sorted(groups)]
    order = [order[i] for i in rng.permutation(len(order))]
    shuffled = [[group[i] for i in rng.permutation(len(group))] for group in order]
    out = []
    for depth in range(max(len(g) for g in shuffled)):
        out.extend(group[depth] for group in shuffled if depth < len(group))
    return out


def patients_questions(database, order: np.random.Generator, values: np.random.Generator) -> list[Question]:
    """Every distinct Patients-benchmark pattern, stratified by shape."""
    seen: set[str] = set()
    items = []
    for item in build_patients_benchmark():
        if item.nl not in seen:
            seen.add(item.nl)
            items.append(item)
    sampler = ConstantSampler(database, values)
    questions = []
    for item in stratified(items, lambda it: it.source, order):
        nl, bindings = sampler.bind(item.nl, item.sql)
        questions.append(Question(nl, restore_placeholders(item.sql, bindings)))
    return questions


#: Spider-substitute families the join workload draws from.
RETAIL_FAMILIES = (Family.JOIN, Family.GROUPBY, Family.NESTED)


def retail_questions(database, order: np.random.Generator, values: np.random.Generator) -> list[Question]:
    """Spider-substitute join / group-by / nested questions."""
    schema = database.schema
    templates = [
        t
        for t in SEED_TEMPLATES
        if t.family in RETAIL_FAMILIES and t.paraphrase_kind.value == "naive"
    ]
    config = GenerationConfig(size_slotfills=30, size_para=0, num_missing=0)
    pairs = Generator(schema, config, templates, seed=int(order.integers(2**31))).generate()
    seen: set[str] = set()
    unique = [p for p in pairs if not (p.nl in seen or seen.add(p.nl))]
    sampler = ConstantSampler(database, values)
    questions = []
    for pair in stratified(unique, lambda p: p.template_id, order):
        nl, bindings = sampler.bind(pair.nl, pair.sql)
        gold = expand_join(restore_placeholders(pair.sql, bindings), schema)
        questions.append(Question(nl, gold))
    return questions


def expand_join(query: Query, schema) -> Query:
    """Replace a gold ``@JOIN`` by the FK join of the referenced tables.

    Done here from the schema's join graph rather than by the program's
    post-processor, so gold rows do not depend on the code under test.
    """
    if not query.uses_join_placeholder:
        return query
    tables = schema.join_tables(query.referenced_tables())
    conditions = [
        Comparison(
            ColumnRef(fk.column, table=fk.table),
            CompOp.EQ,
            ColumnRef(fk.ref_column, table=fk.ref_table),
        )
        for fk in schema.join_path(tables)
    ]
    where = conjoin(([query.where] if query.where is not None else []) + conditions)
    return replace(query, from_tables=tuple(tables), where=where)


def question_stream(workload: Workload, database, seed: int) -> tuple[list[Question], np.ndarray | None]:
    """The workload's distinct questions and, for a skewed replay, the
    order in which requests pick them.

    The database, which question patterns a workload uses, their order
    and their popularity are part of its definition and fixed; ``seed``
    draws the constants bound into the patterns and the replay sequence.
    So runs on different seeds send different questions with the same
    make-up, and their accuracy is comparable.
    """
    order = np.random.default_rng(PATTERN_SEED)
    replay = np.random.default_rng([seed, 1])
    # A replayed workload's questions are fixed too: a popular set is one
    # set of questions, and ``seed`` only draws the order they arrive in.
    values = np.random.default_rng(PATTERN_SEED) if workload.popularity else replay
    make = patients_questions if workload.schema == "patients" else retail_questions
    questions = make(database, order, values)
    if workload.distinct is not None:
        questions = questions[: workload.distinct]
    if not workload.popularity:
        return questions, None
    # Zipf-like popularity, weight 1/(rank + 10), ranked in the stratified
    # order: each round of ranks visits every query shape once, so the
    # skew is over questions and not over shapes.
    weights = 1.0 / (np.arange(len(questions)) + 10.0)
    picks = replay.choice(len(questions), size=1 << 20, p=weights / weights.sum())
    return questions, picks


# ----------------------------------------------------------------------
# Gold rows and comparison
# ----------------------------------------------------------------------


def _values(rows) -> list[tuple]:
    return [tuple(row.values()) for row in normalize_rows(rows)]


class GoldChecker:
    """Compares served rows with the gold query's rows.

    Row order is ignored unless the gold query has ORDER BY.  Column
    labels are ignored: two answers match when their values match.
    """

    def __init__(self, database, questions: list[Question]) -> None:
        reference = MemoryAdapter(database)
        self._gold = [_values(reference.execute(q.gold)) for q in questions]
        self._ordered = [bool(q.gold.order_by) for q in questions]
        # Raw row tuples already proven equal to gold, per question, so a
        # repeated identical answer is checked by one tuple comparison.
        self._known: list[set] = [set() for _ in questions]

    def matches(self, index: int, rows) -> bool:
        if rows is None:
            return False
        raw = tuple(tuple(row.values()) for row in rows)
        known = self._known[index]
        if raw in known:
            return True
        served = _values(rows)
        gold = self._gold[index]
        if self._ordered[index]:
            ok = served == gold
        else:
            ok = Counter(served) == Counter(gold)
        if ok:
            known.add(raw)
        return ok


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class Stopwatch:
    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    def time(self, phase: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - start

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class Stack:
    """Everything set-up builds for one workload run."""

    database: object
    model: object
    corpus_pairs: int
    nlidb: DBPal
    service: TranslationService | None
    watch: Stopwatch

    def endpoint(self):
        if self.service is not None:
            return self.service.query
        return self.nlidb.query


def train_model(workload: Workload, schema, watch: Stopwatch):
    pipeline = TrainingPipeline(schema, GenerationConfig(size_slotfills=2), seed=MODEL_SEED)
    corpus = watch.time("synthesis", pipeline.generate)
    corpus = corpus.subsample(workload.corpus_pairs, seed=MODEL_SEED)
    model = SyntaxAwareModel(
        embed_dim=24,
        hidden_dim=48,
        epochs=workload.epochs,
        lr=2e-2,
        batch_size=32,
        seed=MODEL_SEED,
    )
    watch.time("fit", model.fit, corpus.pairs)
    return model, len(corpus)


def build_stack(workload: Workload, on_client, tracer=None) -> Stack:
    """Populate, synthesize, train and build the serving objects.

    ``on_client`` runs a callable on the client thread and returns its
    result: a sqlite connection may only be used by the thread that
    opened it, so the library path's DBPal is built there.
    """
    watch = Stopwatch()
    schema = load_schema(workload.schema)
    database = watch.time("populate", populate, schema, workload.rows, DATABASE_SEED)
    model, corpus_pairs = train_model(workload, schema, watch)
    if tracer is not None:
        tracer.install_model(model)
    service = None
    if workload.path == "service":
        nlidb = watch.time("index", DBPal, database, model)
        if tracer is not None:
            tracer.install_nlidb(nlidb)
        service = watch.time("service", lambda: TranslationService(nlidb).start())
        if tracer is not None:
            tracer.install_cache(service.cache)
    else:

        def open_client():
            backend = watch.time("backend_load", SqliteAdapter.from_database, database)
            return watch.time("index", DBPal, database, model, backend=backend)

        nlidb = on_client(open_client)
        if tracer is not None:
            tracer.install_nlidb(nlidb)
    return Stack(database, model, corpus_pairs, nlidb, service, watch)


def close_stack(stack: Stack, on_client) -> None:
    if stack.service is not None:
        stack.service.stop()
    if stack.nlidb.backend is not None:
        # The sqlite connection is closed on the thread that opened it.
        on_client(stack.nlidb.backend.close)
