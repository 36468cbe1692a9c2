"""In-memory row storage.

A :class:`Database` binds a :class:`~repro.schema.schema.Schema` to
concrete rows.  Rows are plain dicts keyed by column name; values are
``int``/``float``/``str`` or ``None``.  The executor, the value index
(constant anonymization), and the execution-based equivalence checker
all operate on this structure.

Reads come in two explicit flavours:

* :meth:`Database.scan` — the hot path.  Returns a zero-copy, read-only
  view (a lazily built tuple of the live row dicts); callers must not
  mutate the rows.  The executor and planner scan tables through this.
* :meth:`Database.rows` — the mutation-safe path.  Returns fresh
  shallow copies on every call, for callers that want to edit rows
  without touching storage.

The :attr:`Database.version` counter increments on every insert so
caching layers (hash indexes, result caches) can detect staleness.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ExecutionError, SchemaError
from repro.schema.column import ColumnType
from repro.schema.schema import Schema

Row = dict[str, Any]


class Database:
    """A schema plus in-memory rows for each of its tables."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._rows: dict[str, list[Row]] = {t.name: [] for t in schema.tables}
        self._views: dict[str, tuple[Row, ...]] = {}
        self._version = 0

    def __repr__(self) -> str:
        sizes = {name: len(rows) for name, rows in self._rows.items()}
        return f"Database({self.schema.name!r}, rows={sizes})"

    @property
    def version(self) -> int:
        """Monotone counter bumped on every insert (cache invalidation)."""
        return self._version

    def insert(self, table_name: str, row: Mapping[str, Any]) -> None:
        """Insert one row; validates column names and value types."""
        table = self.schema.table(table_name)
        clean: Row = {}
        for column in table.columns:
            value = row.get(column.name)
            if value is not None:
                value = _coerce(value, column.ctype, table_name, column.name)
            clean[column.name] = value
        unknown = set(row) - set(table.column_names)
        if unknown:
            raise SchemaError(
                f"row for table {table_name!r} has unknown columns {sorted(unknown)}"
            )
        self._rows[table_name].append(clean)
        self._views.pop(table_name, None)
        self._version += 1

    def insert_many(self, table_name: str, rows: Iterable[Mapping[str, Any]]) -> None:
        """Insert many rows."""
        for row in rows:
            self.insert(table_name, row)

    def scan(self, table_name: str) -> Sequence[Row]:
        """Zero-copy, read-only view of a table's rows.

        The returned tuple aliases the live row dicts — callers must
        treat them as immutable.  The view is built once per table
        version and shared by every scan, so repeated scans allocate
        nothing (the per-row deep copies :meth:`rows` makes dominated
        the executor profile before this existed).
        """
        if table_name not in self._rows:
            raise SchemaError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        view = self._views.get(table_name)
        if view is None:
            view = tuple(self._rows[table_name])
            self._views[table_name] = view
        return view

    def rows(self, table_name: str) -> list[Row]:
        """All rows of a table as fresh shallow copies (safe to mutate).

        This is the explicit mutation-safe read; use :meth:`scan` for
        read-only access without the per-call allocation churn.
        """
        return [dict(row) for row in self.scan(table_name)]

    def row_count(self, table_name: str) -> int:
        if table_name not in self._rows:
            raise SchemaError(
                f"database {self.schema.name!r} has no table {table_name!r}"
            )
        return len(self._rows[table_name])

    def column_values(self, table_name: str, column_name: str) -> list[Any]:
        """All non-null values of one column, in insertion order."""
        self.schema.column(table_name, column_name)
        return [
            row[column_name]
            for row in self._rows[table_name]
            if row[column_name] is not None
        ]


def _coerce(value: Any, ctype: ColumnType, table: str, column: str) -> Any:
    """Coerce ``value`` to the column's logical type or raise."""
    try:
        if ctype is ColumnType.INTEGER:
            if isinstance(value, bool):
                raise TypeError
            return int(value)
        if ctype is ColumnType.FLOAT:
            return float(value)
        if ctype in (ColumnType.TEXT, ColumnType.DATE):
            if not isinstance(value, str):
                raise TypeError
            return value
    except (TypeError, ValueError):
        pass
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(f"unhandled column type {ctype}")
    raise ExecutionError(
        f"value {value!r} is not valid for {table}.{column} of type {ctype.value}"
    )
