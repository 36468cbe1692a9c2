"""Differential property tests: naive ≡ planned execution.

The planner (:mod:`repro.db.planner`) claims bit-identical results —
row values *and* row order — to the naive cross-product executor on
every query both arms can run.  This suite checks that claim over:

* the **seed corpora** of two schemas (every distinct canonical query
  the training pipeline synthesizes, with ``@JOIN`` expanded through
  the post-processor and placeholders bound to constants that actually
  occur in the database);
* **randomized databases**: every built-in schema populated at several
  seeds, probed with join/filter/aggregate queries derived from its
  foreign keys and columns, including at the 400-rows-per-table size
  the cold serving workload runs at; and
* **dtype edges**: NULLs, values that bypass ``insert()`` coercion
  (mixed int/float, strings in numeric columns), NaN, integers beyond
  int64, and strings with quotes, NUL bytes or 600 characters.

Divergence rules: when naive execution raises ``ExecutionError`` the
planner may either raise too or succeed (it short-circuits predicates
the naive arm evaluates eagerly and survives cross products the naive
guard refuses); it must never crash with a non-Repro exception.
"""

from __future__ import annotations

import pytest

from repro.db import Database, populate
from repro.db.executor import execute
from repro.db.planner import ExecutorSession, execute_planned
from repro.errors import ExecutionError, ReproError
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import (
    SCHEMA_FACTORIES,
    Schema,
    Table,
    floating,
    integer,
    load_schema,
    text,
)
from repro.sql.normalize import canonical_sql
from repro.sql.parser import parse
from repro.sql.printer import to_sql


class _ConstantBinder:
    """Duck-typed resolver: placeholders → constants present in the DB."""

    def __init__(self, database):
        self._database = database

    def resolve(self, placeholder):
        schema = self._database.schema
        column = placeholder.column
        table = placeholder.table
        if table is None or table not in schema:
            candidates = schema.tables_with_column(column)
            if not candidates:
                return None
            table = candidates[0].name
        if column not in schema.table(table):
            return None
        values = [
            v
            for v in self._database.column_values(table, column)
            if v is not None
        ]
        return values[0] if values else None


def corpus_queries(corpus, database):
    """Distinct executable queries: @JOIN expanded, constants bound."""
    post = PostProcessor(database.schema)
    binder = _ConstantBinder(database)
    queries, seen = [], set()
    for pair in corpus.pairs:
        processed = post.process(to_sql(pair.sql))
        if processed is None:
            continue
        query = _transform_query(processed.query, binder)
        key = canonical_sql(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def assert_arms_agree(query, database, session=None):
    """Planned output must equal naive output whenever naive succeeds."""
    try:
        expected = execute(query, database)
    except ExecutionError:
        # Naive refused (guard / eager predicate): the planner may
        # succeed, but any failure must stay inside the Repro
        # exception hierarchy.
        try:
            execute_planned(query, database)
        except ReproError:
            pass
        return False
    assert execute_planned(query, database) == expected, canonical_sql(query)
    if session is not None:
        assert session.execute(query) == expected, canonical_sql(query)
    return True


# ----------------------------------------------------------------------
# Seed-corpus differentials
# ----------------------------------------------------------------------


def test_patients_corpus_differential(patients_corpus, patients_db):
    queries = corpus_queries(patients_corpus, patients_db)
    assert len(queries) > 50
    session = ExecutorSession(patients_db)
    compared = sum(
        assert_arms_agree(query, patients_db, session) for query in queries
    )
    # The overwhelming majority of corpus queries must actually execute
    # on both arms — the differential is vacuous otherwise.
    assert compared >= len(queries) * 0.9


def test_geography_corpus_differential(geography_corpus, geography_db):
    queries = corpus_queries(geography_corpus, geography_db)
    assert len(queries) > 50
    session = ExecutorSession(geography_db)
    compared = sum(
        assert_arms_agree(query, geography_db, session) for query in queries
    )
    assert compared >= len(queries) * 0.9


def test_geography_corpus_has_real_joins(geography_corpus, geography_db):
    queries = corpus_queries(geography_corpus, geography_db)
    joins = [q for q in queries if len(q.from_tables) > 1]
    assert joins, "corpus differential never exercised a join"


# ----------------------------------------------------------------------
# Randomized schemas and databases
# ----------------------------------------------------------------------


def schema_probe_queries(database):
    """Join/filter/aggregate probes derived from the schema itself."""
    schema = database.schema
    queries = []
    for table in schema.tables:
        first = table.column_names[0]
        numeric = next((c.name for c in table.columns if c.is_numeric), None)
        queries.append(parse(f"SELECT * FROM {table.name}"))
        values = [
            v for v in database.column_values(table.name, first) if v is not None
        ]
        if values:
            constant = values[len(values) // 2]
            rendered = f"'{constant}'" if isinstance(constant, str) else constant
            queries.append(
                parse(
                    f"SELECT {first} FROM {table.name} WHERE {first} = {rendered}"
                )
            )
        if numeric:
            queries.append(
                parse(f"SELECT COUNT(*) FROM {table.name} WHERE {numeric} > 0")
            )
            queries.append(
                parse(
                    f"SELECT {first}, {numeric} FROM {table.name} "
                    f"ORDER BY {numeric} DESC, {first} LIMIT 7"
                )
            )
    for fk in schema.foreign_keys:
        join = (
            f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
        )
        left_col = f"{fk.table}.{schema.table(fk.table).column_names[0]}"
        right_col = (
            f"{fk.ref_table}.{schema.table(fk.ref_table).column_names[0]}"
        )
        queries.append(
            parse(
                f"SELECT {left_col}, {right_col} "
                f"FROM {fk.table}, {fk.ref_table} WHERE {join}"
            )
        )
        queries.append(
            parse(
                f"SELECT {right_col}, COUNT(*) "
                f"FROM {fk.table}, {fk.ref_table} WHERE {join} "
                f"GROUP BY {right_col} ORDER BY {right_col}"
            )
        )
    return queries


@pytest.mark.parametrize("schema_name", sorted(SCHEMA_FACTORIES))
@pytest.mark.parametrize(
    "seed, rows_per_table",
    [
        pytest.param(0, 25, id="0"),
        pytest.param(17, 25, id="17"),
        # The row count cold_patients serves at.
        pytest.param(0, 400, id="0-400rows"),
    ],
)
def test_randomized_database_differential(schema_name, seed, rows_per_table):
    database = populate(
        load_schema(schema_name), rows_per_table=rows_per_table, seed=seed
    )
    session = ExecutorSession(database)
    for query in schema_probe_queries(database):
        assert_arms_agree(query, database, session)


# ----------------------------------------------------------------------
# Dtype edges
# ----------------------------------------------------------------------

_JOIN_T_U = "SELECT t.a, u.label FROM t, u WHERE t.d = u.a ORDER BY t.a"
_QUOTED = ['he said "hi"', "O'Brien", 'mix "of\' both', "plain", ""]

#: case id -> (extra ``t`` rows as (row, bypass insert coercion), queries)
DTYPE_EDGE_CASES = {
    # One case per query over the NULL-laden rows alone.
    "nulls-eq": ([], ["SELECT a FROM t WHERE d = 7"]),
    "nulls-gt": ([], ["SELECT a FROM t WHERE d > 0 ORDER BY a"]),
    "nulls-order-by": ([], ["SELECT a, b FROM t ORDER BY b, a"]),
    "nulls-group-count": (
        [],
        ["SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b"],
    ),
    "nulls-group-sum": ([], ["SELECT b, SUM(d) FROM t GROUP BY b"]),
    "nulls-distinct": ([], ["SELECT DISTINCT b FROM t"]),
    "nulls-count": ([], ["SELECT COUNT(d), COUNT(*) FROM t"]),
    "nulls-between": ([], ["SELECT a FROM t WHERE d BETWEEN 3 AND 9"]),
    "nulls-in": ([], ["SELECT a FROM t WHERE b IN ('x', 'z')"]),
    "null-join-keys": ([], [_JOIN_T_U]),
    "str-in-text-and-int": (
        [({"a": 5, "b": 99, "c": 3.5, "d": 3}, True)],
        ["SELECT a, b FROM t ORDER BY a", "SELECT b, COUNT(*) FROM t GROUP BY b"],
    ),
    "int-in-float": (
        [({"a": 5, "b": "z", "c": 2, "d": 3}, True)],
        ["SELECT c FROM t ORDER BY a", "SELECT a FROM t WHERE c = 2"],
    ),
    "nan": (
        [({"a": 5, "b": "z", "c": float("nan"), "d": 3}, False)],
        ["SELECT a FROM t WHERE c > 0 ORDER BY a", "SELECT DISTINCT c FROM t"],
    ),
    "huge-int": (
        [({"a": 5, "b": "z", "c": 3.5, "d": 2**66}, False)],
        ["SELECT a, d FROM t WHERE d > 0", "SELECT SUM(d), MAX(d) FROM t"],
    ),
    "nul-byte-string": (
        [({"a": 5, "b": "nul\x00byte", "c": 3.5, "d": 3}, False)],
        ["SELECT DISTINCT b FROM t", "SELECT a FROM t WHERE b = 'nul'"],
    ),
    "oversized-string": (
        [({"a": 5, "b": "w" * 600, "c": 3.5, "d": 3}, False)],
        ["SELECT a, b FROM t ORDER BY b"],
    ),
    "str-join-key": (
        [({"a": 5, "b": "z", "c": 3.5, "d": "three"}, True)],
        [_JOIN_T_U],
    ),
    "quoted-strings": (
        [
            ({"a": 10 + i, "b": b, "c": 0.5, "d": i}, False)
            for i, b in enumerate(_QUOTED + _QUOTED)
        ],
        [
            "SELECT a, b FROM t ORDER BY b, a",
            "SELECT DISTINCT b FROM t ORDER BY b",
            "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
        ],
    ),
}


def edge_database(extra_rows) -> Database:
    """NULL-laden rows plus a case's extra rows; ``bypass`` rows skip
    ``insert()`` coercion, the way hand-built or externally loaded rows
    arrive."""
    database = Database(
        Schema(
            "edge",
            [
                Table(
                    "t",
                    [
                        integer("a", primary_key=True),
                        text("b"),
                        floating("c"),
                        integer("d"),
                    ],
                ),
                Table("u", [integer("a", primary_key=True), text("label")]),
            ],
        )
    )
    for a, b, c, d in [
        (0, "x", 1.5, 7),
        (1, None, 2.5, None),
        (2, "y", None, 3),
        (3, "x", 0.5, None),
        (4, None, None, 7),
    ]:
        database.insert("t", {"a": a, "b": b, "c": c, "d": d})
    database.insert_many(
        "u", [{"a": 7, "label": "seven"}, {"a": 3, "label": "three"}]
    )
    for row, bypass in extra_rows:
        if bypass:
            database._rows["t"].append(row)
            database._views.pop("t", None)
            database._version += 1
        else:
            database.insert("t", row)
    return database


@pytest.mark.parametrize("case", sorted(DTYPE_EDGE_CASES))
def test_dtype_edge_differential(case):
    extra_rows, queries = DTYPE_EDGE_CASES[case]
    database = edge_database(extra_rows)
    session = ExecutorSession(database)
    for sql in queries:
        assert assert_arms_agree(parse(sql), database, session), sql
