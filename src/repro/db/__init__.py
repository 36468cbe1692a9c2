"""In-memory DBMS substrate: storage, executor, planner, value index,
data generation."""

from repro.db.datagen import populate
from repro.db.executor import MAX_CROSS_PRODUCT, execute
from repro.db.index import ValueHit, ValueIndex
from repro.db.planner import (
    ExecutorSession,
    QueryPlan,
    build_plan,
    execute_planned,
    explain,
)
from repro.db.similarity import (
    best_match,
    char_trigrams,
    jaccard_tokens,
    jaccard_trigram,
)
from repro.db.storage import Database, Row

__all__ = [
    "Database",
    "ExecutorSession",
    "MAX_CROSS_PRODUCT",
    "QueryPlan",
    "Row",
    "ValueHit",
    "ValueIndex",
    "best_match",
    "build_plan",
    "char_trigrams",
    "execute",
    "execute_planned",
    "explain",
    "jaccard_tokens",
    "jaccard_trigram",
    "populate",
]
