"""Reference query executor over the in-memory database.

Implements the classic pipeline FROM → WHERE → GROUP BY → HAVING →
SELECT → DISTINCT → ORDER BY → LIMIT for the SQL subset.  Multi-table
FROM clauses are evaluated as a cross product filtered by the WHERE
predicate — the shape the post-processor emits after expanding the
``@JOIN`` placeholder into explicit tables plus join conditions.

This module is the *naive* reference arm: simple, obviously correct,
and quadratic-or-worse on joins.  The optimized path lives in
:mod:`repro.db.planner` (predicate pushdown + hash joins) and is
property-checked to return bit-identical results; both paths share the
post-join pipeline (:func:`finish_rows`) so grouping, ordering and
projection can never diverge.

Results are lists of dicts keyed by output-column labels, in output
order.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError, SchemaError
from repro.db.expressions import JoinedRow, evaluate_predicate, resolve_column
from repro.db.functions import evaluate_aggregate
from repro.db.storage import Database, Row
from repro.sql.ast import (
    JOIN_PLACEHOLDER,
    Aggregate,
    ColumnRef,
    Comparison,
    Query,
    Star,
    Subquery,
)

#: Guard against accidentally exploding cross products in tests.
MAX_CROSS_PRODUCT = 2_000_000


def validate_query(query: Query, database: Database) -> None:
    """Reject queries outside the executable subset before touching rows."""
    if query.uses_join_placeholder:
        raise ExecutionError(
            f"cannot execute query with unresolved {JOIN_PLACEHOLDER} placeholder; "
            "run the post-processor first"
        )
    for table in query.from_tables:
        if table not in database.schema:
            raise ExecutionError(
                f"unknown table {table!r} in schema {database.schema.name!r}"
            )


def cross_product_error(
    tables: Sequence[str], estimated_rows: int, schema=None
) -> ExecutionError:
    """The guard error: names the estimated size and the missing join.

    When a ``schema`` is given, its join graph is consulted to propose
    the FK equality predicate(s) that would have turned the cross
    product into a hash join.
    """
    message = (
        f"cross product of {list(tables)} has an estimated "
        f"{estimated_rows:,} rows (limit {MAX_CROSS_PRODUCT:,}); refusing"
    )
    if schema is not None:
        try:
            fks = schema.join_path(list(tables))
        except SchemaError:
            fks = []
        if fks:
            conditions = " AND ".join(
                f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
                for fk in fks
            )
            message += f"; add a join predicate, e.g. WHERE {conditions}"
    return ExecutionError(message)


def execute(query: Query, database: Database, max_rows: int | None = None) -> list[Row]:
    """Execute ``query`` against ``database`` (naive reference path).

    Raises :class:`~repro.errors.ExecutionError` for queries outside
    the executable subset (unresolved placeholders, unknown tables or
    columns, correlated subqueries).
    """
    validate_query(query, database)
    subquery_values = make_subquery_resolver(database, execute)

    # FROM: cross product of the referenced tables.
    per_table_rows = [database.scan(t) for t in query.from_tables]
    size = 1
    for rows in per_table_rows:
        size *= max(len(rows), 1)
    if size > MAX_CROSS_PRODUCT:
        raise cross_product_error(query.from_tables, size, database.schema)
    joined: list[JoinedRow] = [
        dict(zip(query.from_tables, combo))
        for combo in itertools.product(*per_table_rows)
    ]

    # WHERE.
    if query.where is not None:
        joined = [
            row
            for row in joined
            if evaluate_predicate(query.where, row, subquery_values)
        ]

    return finish_rows(query, joined, subquery_values, max_rows=max_rows)


def make_subquery_resolver(
    database: Database, exec_fn: Callable[[Query, Database], list[Row]]
) -> Callable[[Subquery], Any]:
    """A memoizing resolver for uncorrelated subqueries.

    ``exec_fn`` is the executor to run subqueries with — the naive
    :func:`execute` here, the planned path in :mod:`repro.db.planner`
    (where a session additionally caches across top-level queries).
    """
    cache: dict[int, Any] = {}

    def subquery_values(sub: Subquery) -> Any:
        key = id(sub)
        if key not in cache:
            cache[key] = _subquery_result(sub.query, database, exec_fn)
        return cache[key]

    return subquery_values


def finish_rows(
    query: Query,
    joined: list[JoinedRow],
    subquery_values,
    max_rows: int | None = None,
    recorder=None,
) -> list[Row]:
    """The shared post-join pipeline: group → project → distinct →
    order → limit.  Both executor arms funnel through this, so planned
    and naive execution agree bit-for-bit past the join.

    ``recorder`` (a :class:`~repro.perf.PerfRecorder`) gets ``group``
    and ``sort`` stage timings when provided; each stage counts the
    rows it takes in.
    """

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    has_aggregates = bool(query.aggregates()) or any(
        isinstance(i, Aggregate) for i in query.select
    )

    with stage("group") as group_stats:
        if group_stats is not None:
            group_stats.items += len(joined)
        if query.group_by or has_aggregates:
            output = _execute_grouped(query, joined, subquery_values)
        else:
            output = _execute_plain(query, joined, subquery_values)

    return apply_distinct_order_limit(
        query, output, max_rows=max_rows, recorder=recorder
    )


def apply_distinct_order_limit(
    query: Query,
    output: list[Row],
    max_rows: int | None = None,
    recorder=None,
) -> list[Row]:
    """The tail of the pipeline: DISTINCT → ORDER BY → LIMIT.

    DISTINCT keys on ``tuple(row.values())`` *including* any
    ``__order__`` helper columns.
    """

    def stage(name: str):
        return recorder.stage(name) if recorder is not None else nullcontext()

    if query.distinct:
        with stage("group") as group_stats:
            if group_stats is not None:
                group_stats.items += len(output)
            seen: set[tuple] = set()
            unique = []
            for row in output:
                key = tuple(row.values())
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            output = unique

    if query.order_by:
        with stage("sort") as sort_stats:
            if sort_stats is not None:
                sort_stats.items += len(output)
            output = _order_rows(output, query)

    if query.limit is not None:
        output = output[: query.limit]
    if max_rows is not None:
        output = output[:max_rows]
    return output


# ----------------------------------------------------------------------
# Non-grouped execution
# ----------------------------------------------------------------------


def _execute_plain(query: Query, joined: list[JoinedRow], subquery_values) -> list[Row]:
    output: list[Row] = []
    for row in joined:
        record: Row = {}
        for item in query.select:
            if isinstance(item, Star):
                for table in query.from_tables:
                    for column, value in row[table].items():
                        record[_star_label(query, table, column)] = value
            elif isinstance(item, ColumnRef):
                record[str(item)] = resolve_column(item, row)
            else:
                raise ExecutionError(
                    f"aggregate {item} outside grouped execution"
                )
        # Keep sort keys accessible for ORDER BY on non-selected columns.
        for order in query.order_by:
            if isinstance(order.expr, ColumnRef) and str(order.expr) not in record:
                record["__order__" + str(order.expr)] = resolve_column(order.expr, row)
        output.append(record)
    return output


def _star_label(query: Query, table: str, column: str) -> str:
    return f"{table}.{column}" if len(query.from_tables) > 1 else column


# ----------------------------------------------------------------------
# Grouped execution
# ----------------------------------------------------------------------


def _execute_grouped(query: Query, joined: list[JoinedRow], subquery_values) -> list[Row]:
    groups: dict[tuple, list[JoinedRow]] = {}
    if query.group_by:
        for row in joined:
            key = tuple(resolve_column(c, row) for c in query.group_by)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = joined

    output: list[Row] = []
    for key, rows in groups.items():
        if query.having is not None:
            if not _evaluate_group_predicate(query.having, rows, key, query, subquery_values):
                continue
        record: Row = {}
        for item in query.select:
            if isinstance(item, Aggregate):
                record[str(item)] = _aggregate_over(item, rows)
            elif isinstance(item, ColumnRef):
                record[str(item)] = _group_key_value(item, key, query, rows)
            elif isinstance(item, Star):
                raise ExecutionError("SELECT * cannot be combined with GROUP BY")
        for order in query.order_by:
            label = str(order.expr)
            if label in record:
                continue
            if isinstance(order.expr, Aggregate):
                record["__order__" + label] = _aggregate_over(order.expr, rows)
            else:
                record["__order__" + label] = _group_key_value(
                    order.expr, key, query, rows
                )
        output.append(record)
    return output


def _aggregate_over(agg: Aggregate, rows: list[JoinedRow]) -> Any:
    if isinstance(agg.arg, Star):
        return evaluate_aggregate(agg.func, [1] * len(rows), agg.distinct)
    values = [resolve_column(agg.arg, row) for row in rows]
    values = [v for v in values if v is not None]
    return evaluate_aggregate(agg.func, values, agg.distinct)


def _group_key_value(ref: ColumnRef, key: tuple, query: Query, rows: list[JoinedRow]) -> Any:
    for position, group_col in enumerate(query.group_by):
        if group_col == ref or (group_col.column == ref.column and ref.table is None):
            return key[position]
    if not query.group_by and rows:
        # Implicit single group: a bare column is only well-defined if
        # constant; we take the first row's value (SQLite-style leniency).
        return resolve_column(ref, rows[0])
    if not rows:
        return None
    raise ExecutionError(f"column {ref} is neither grouped nor aggregated")


def _evaluate_group_predicate(pred, rows, key, query, subquery_values) -> bool:
    """Evaluate a HAVING predicate for one group."""
    from repro.db.expressions import compare, evaluate_operand
    from repro.sql.ast import And, CompOp, Or

    if isinstance(pred, And):
        return all(
            _evaluate_group_predicate(p, rows, key, query, subquery_values)
            for p in pred.operands
        )
    if isinstance(pred, Or):
        return any(
            _evaluate_group_predicate(p, rows, key, query, subquery_values)
            for p in pred.operands
        )
    if isinstance(pred, Comparison):
        def side(operand):
            if isinstance(operand, Aggregate):
                return _aggregate_over(operand, rows)
            if isinstance(operand, ColumnRef):
                return _group_key_value(operand, key, query, rows)
            return evaluate_operand(operand, rows[0] if rows else {}, subquery_values)

        return compare(pred.op, side(pred.left), side(pred.right))
    raise ExecutionError(f"unsupported HAVING predicate {pred!r}")


# ----------------------------------------------------------------------
# Ordering and subqueries
# ----------------------------------------------------------------------


def _order_rows(output: list[Row], query: Query) -> list[Row]:
    # Sort once per ORDER BY item, last key first, honouring per-key
    # direction (Python's sort is stable, so earlier keys win ties and
    # input order survives as the final tiebreak).
    result = list(output)
    for position in range(len(query.order_by) - 1, -1, -1):
        order = query.order_by[position]
        label = str(order.expr)

        def key_for(row: Row, label=label, desc=order.desc):
            value = row.get(label, row.get("__order__" + label))
            missing = value is None
            if desc:
                return (missing, _Reversed(value, label))
            return (missing, _Comparable(value, label))

        result.sort(key=key_for)
    # Strip helper sort columns.
    return [
        {k: v for k, v in row.items() if not k.startswith("__order__")}
        for row in result
    ]


class _Comparable:
    """Total-order wrapper for sort keys (None handled upstream).

    A sort key column holding values of incomparable types (e.g. model
    output that mixes strings into a numeric column) raises
    :class:`~repro.errors.ExecutionError` naming the offending ORDER BY
    key, instead of leaking a bare ``TypeError`` out of ``list.sort``.
    """

    __slots__ = ("value", "label")

    def __init__(self, value, label: str = "") -> None:
        self.value = value
        self.label = label

    def __lt__(self, other: "_Comparable") -> bool:
        left, right = self.value, other.value
        if left is None or right is None:
            return False
        try:
            return left < right
        except TypeError:
            raise ExecutionError(
                f"ORDER BY key {self.label!r} mixes incomparable types "
                f"({type(left).__name__} vs {type(right).__name__})"
            ) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, _Comparable) and self.value == other.value


class _Reversed(_Comparable):
    def __lt__(self, other: "_Comparable") -> bool:  # type: ignore[override]
        return _Comparable(other.value, self.label) < _Comparable(self.value, self.label)


def _subquery_result(
    query: Query, database: Database, exec_fn: Callable[[Query, Database], list[Row]]
) -> Any:
    """Execute an uncorrelated subquery.

    * scalar subqueries (single aggregate select) return the scalar;
    * one-column subqueries return the list of values (for IN);
    * EXISTS subqueries return the raw row list.
    """
    rows = exec_fn(query, database)
    if len(query.select) == 1 and isinstance(query.select[0], Aggregate):
        if not rows:
            return None
        return next(iter(rows[0].values()))
    if len(query.select) == 1 and not isinstance(query.select[0], Star):
        return [next(iter(row.values())) for row in rows]
    return rows
