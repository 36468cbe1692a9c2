"""Tests for in-memory row storage."""

import pytest

from repro.db import Database
from repro.errors import ExecutionError, SchemaError
from repro.schema import Schema, Table, floating, integer, text


def make_db():
    schema = Schema(
        "s",
        [Table("t", [integer("a", primary_key=True), text("b"), floating("c")])],
    )
    return Database(schema)


class TestInsert:
    def test_insert_and_read(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x", "c": 2.5})
        assert db.rows("t") == [{"a": 1, "b": "x", "c": 2.5}]

    def test_missing_columns_become_null(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert db.rows("t")[0]["b"] is None

    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.insert("t", {"a": 1, "zz": 2})

    def test_integer_coercion(self):
        db = make_db()
        db.insert("t", {"a": "7"})
        assert db.rows("t")[0]["a"] == 7

    def test_float_coercion(self):
        db = make_db()
        db.insert("t", {"a": 1, "c": 3})
        assert db.rows("t")[0]["c"] == 3.0

    def test_bad_type_rejected(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": "not a number"})
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": 1, "b": 42})
        with pytest.raises(ExecutionError):
            db.insert("t", {"a": True})

    def test_insert_many(self):
        db = make_db()
        db.insert_many("t", [{"a": i} for i in range(5)])
        assert db.row_count("t") == 5


class TestRead:
    def test_rows_are_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        db.rows("t")[0]["a"] = 999
        assert db.rows("t")[0]["a"] == 1

    def test_unknown_table_raises(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.rows("missing")
        with pytest.raises(SchemaError):
            db.row_count("missing")

    def test_column_values_skip_nulls(self):
        db = make_db()
        db.insert("t", {"a": 1, "b": "x"})
        db.insert("t", {"a": 2})
        assert db.column_values("t", "b") == ["x"]

    def test_column_values_unknown_column(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.column_values("t", "zz")

    def test_repr_shows_sizes(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert "'t': 1" in repr(db)


class TestScan:
    """The zero-copy read path behind the executors."""

    def test_scan_returns_live_views_not_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        view = db.scan("t")
        assert view[0] is db.scan("t")[0]  # same underlying dict, no copy

    def test_scan_view_is_cached_per_version(self):
        db = make_db()
        db.insert("t", {"a": 1})
        assert db.scan("t") is db.scan("t")
        db.insert("t", {"a": 2})
        assert len(db.scan("t")) == 2

    def test_scan_unknown_table_raises(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.scan("missing")

    def test_version_bumps_on_insert_only(self):
        db = make_db()
        before = db.version
        db.rows("t")
        db.scan("t")
        assert db.version == before
        db.insert("t", {"a": 1})
        assert db.version == before + 1

    def test_rows_still_returns_mutation_safe_copies(self):
        db = make_db()
        db.insert("t", {"a": 1})
        copies = db.rows("t")
        copies[0]["a"] = 999
        assert db.scan("t")[0]["a"] == 1
