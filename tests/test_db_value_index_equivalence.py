"""The trigram-indexed fuzzy lookup is the linear scan, bit for bit.

``ValueIndex.fuzzy_lookup`` answers the default ``jaccard_trigram``
metric from a trigram inverted index.  These tests hold it to the
linear ``best_match`` scan it replaces (kept here as the oracle): same
hits, same values, same float scores, same order — over every catalog
schema, several thresholds and hostile constants — and hold the
parameter handler built on it to one built on the scan path.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.bench import spider_train_pairs
from repro.core import GenerationConfig
from repro.core.generator import Generator
from repro.core.seed_templates import SEED_TEMPLATES
from repro.db import ValueHit, ValueIndex, best_match, jaccard_tokens, jaccard_trigram, populate
from repro.runtime import ParameterHandler
from repro.schema import load_schema
from repro.schema.catalog import SCHEMA_FACTORIES

THRESHOLDS = (0.0, 0.4, 0.45, 0.9)
HOSTILE = (
    "",
    " ",
    "   \t\n ",
    "São Paulo",
    "Zürich straße",
    "東京",
    "emoji 🙂 value",
    "\x00",
    "nul\x00inside",
    "'",
    '"',
    "O'Brien",
    "'; DROP TABLE patients; --",
    "x" * 513,
    "influenza " * 60,
)


def _scan_oracle(database, index, constant, threshold, similarity=jaccard_trigram):
    """The pre-index ``fuzzy_lookup``: exact hits, else a best_match scan
    of every text column."""
    exact = index.lookup(constant)
    if exact:
        return exact
    hits = []
    for table in database.schema.tables:
        for column in table.columns:
            if column.is_numeric:
                continue
            values = [
                str(v)
                for v in dict.fromkeys(database.column_values(table.name, column.name))
            ]
            match, score = best_match(constant, values, similarity, threshold)
            if match is not None:
                hits.append(ValueHit(table.name, column.name, match, score))
    hits.sort(key=lambda h: (-h.score, h.table, h.column))
    return hits


def _constants(database, count: int, seed: int) -> list[str]:
    """Stored text values, near-misses of them, and hostile strings."""
    rng = random.Random(seed)
    values = [
        str(v)
        for table in database.schema.tables
        for column in table.columns
        if not column.is_numeric
        for v in database.column_values(table.name, column.name)
    ]
    out = list(HOSTILE)
    for _ in range(count):
        value = rng.choice(values)
        kind = rng.randrange(6)
        if kind == 0 and len(value) > 2:
            cut = rng.randrange(len(value))
            value = value[:cut] + value[cut + 1 :]
        elif kind == 1:
            value = value + rng.choice("aexz")
        elif kind == 2 and value.split():
            value = value.split()[0]
        elif kind == 3:
            value = value.upper()
        elif kind == 4:
            value = "".join(rng.choice("abcdefghij ") for _ in range(rng.randrange(1, 12)))
        out.append(value)
    return out


@pytest.mark.parametrize("rows,count", [(40, 40), (400, 12)])
@pytest.mark.parametrize("schema_name", sorted(SCHEMA_FACTORIES))
def test_indexed_fuzzy_lookup_equals_scan(schema_name, rows, count):
    database = populate(load_schema(schema_name), rows_per_table=rows, seed=7)
    constants = _constants(database, count, seed=rows)
    for threshold in THRESHOLDS:
        index = ValueIndex(database, similarity_threshold=threshold)
        for constant in constants:
            got = index.fuzzy_lookup(constant)
            want = _scan_oracle(database, index, constant, threshold)
            assert got == want, (schema_name, rows, threshold, constant)
            assert [h.score for h in got] == [h.score for h in want]


def test_ties_go_to_the_first_stored_value(patients_db):
    index = ValueIndex(patients_db, similarity_threshold=0.0)
    for constant in ("a", "an", "ma", "son"):
        assert index.fuzzy_lookup(constant) == _scan_oracle(patients_db, index, constant, 0.0)


def test_custom_similarity_keeps_the_scan(patients_db):
    index = ValueIndex(patients_db, similarity=jaccard_tokens, similarity_threshold=0.3)
    name = next(v for v in patients_db.column_values("patients", "name") if " " in str(v))
    constant = f"{str(name).split()[0]} nobody"
    hits = index.fuzzy_lookup(constant)
    assert any(h.column == "name" and h.score >= 1 / 3 for h in hits)
    for constant in (constant, str(name).upper(), "influenzza", *HOSTILE):
        want = _scan_oracle(patients_db, index, constant, 0.3, jaccard_tokens)
        assert index.fuzzy_lookup(constant) == want


# ----------------------------------------------------------------------
# ParameterHandler.anonymize: indexed vs scan, over seed-corpus questions
# ----------------------------------------------------------------------

_PLACEHOLDER = re.compile(r"@([A-Z_]+)(?:\.[A-Z_]+)?")


def _bind(nl: str, database, rng: random.Random) -> str:
    """Fill ``nl``'s placeholders with stored values (some misspelled)."""

    def value_for(match: re.Match) -> str:
        name = match.group(1).lower()
        for table in database.schema.tables:
            if name in table:
                value = str(rng.choice(database.column_values(table.name, name)))
                if rng.random() < 0.3 and len(value) > 3:
                    value = value[:-1]
                return value
        return str(rng.randrange(1, 50))

    return _PLACEHOLDER.sub(value_for, nl)


def _questions() -> list[tuple[str, str]]:
    """(schema name, question) from the Patients seed templates and the
    Spider-substitute training pairs, placeholders left in."""
    generator = Generator(
        load_schema("patients"),
        GenerationConfig(size_slotfills=2, size_para=0, num_missing=0),
        SEED_TEMPLATES,
        seed=0,
    )
    patients = [("patients", pair.nl) for pair in generator.generate()]
    spider = [(pair.schema_name, pair.nl) for pair in spider_train_pairs(pairs_per_schema=25)]
    return patients[::3] + spider


def test_anonymize_matches_the_scan_handler():
    rng = random.Random(11)
    handlers = {}
    checked = 0
    for schema_name, nl in _questions():
        if schema_name not in handlers:
            database = populate(load_schema(schema_name), rows_per_table=40, seed=2)
            scan_index = ValueIndex(
                database, similarity=lambda a, b: jaccard_trigram(a, b), similarity_threshold=0.45
            )
            handlers[schema_name] = (
                database,
                ParameterHandler(database),
                ParameterHandler(database, value_index=scan_index),
            )
        database, indexed, scanned = handlers[schema_name]
        question = _bind(nl, database, rng)
        got, want = indexed.anonymize(question), scanned.anonymize(question)
        assert got.nl == want.nl, question
        assert got.bindings == want.bindings, question
        checked += 1
    assert checked > 200
