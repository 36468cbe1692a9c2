"""Value-matching benchmark: the trigram inverted index vs the linear scan.

Marked ``perf`` and excluded from tier-1 (``pytest -x -q`` collects
``tests/`` only); run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_value_index.py -m perf

On Patients at 4 000 rows per table, ``ValueIndex.fuzzy_lookup`` with
the default ``jaccard_trigram`` (served by the trigram index) must be at
least 10× faster than the same lookup forced onto the scan path by a
wrapped metric, while returning identical hits.  Both arms run in one
process, interleaved round by round, so the claim is a ratio within one
run.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.db import ValueIndex, jaccard_trigram, populate
from repro.schema import patients_schema

ROWS = 4000
CONSTANTS = 60
ROUNDS = 3
MIN_SPEEDUP = 10.0


def _constants(database, count: int, seed: int) -> list[str]:
    """Misspelled stored values (so the fuzzy path runs) and strangers."""
    rng = random.Random(seed)
    values = [
        str(v)
        for column in database.schema.table("patients").text_columns
        for v in database.column_values("patients", column.name)
    ]
    out = []
    for _ in range(count):
        value = rng.choice(values)
        if rng.random() < 0.8 and len(value) > 3:
            cut = rng.randrange(len(value))
            value = value[:cut] + "q" + value[cut + 1 :]
        else:
            value = "".join(rng.choice("abcdefghij ") for _ in range(8))
        out.append(value)
    return out


def _time(index: ValueIndex, constants: list[str]) -> tuple[float, list]:
    start = time.perf_counter()
    hits = [index.fuzzy_lookup(c) for c in constants]
    return time.perf_counter() - start, hits


@pytest.mark.perf
def test_trigram_index_beats_scan():
    database = populate(patients_schema(), rows_per_table=ROWS, seed=0)
    indexed = ValueIndex(database, similarity_threshold=0.45)
    scanned = ValueIndex(
        database, similarity=lambda a, b: jaccard_trigram(a, b), similarity_threshold=0.45
    )
    constants = _constants(database, CONSTANTS, seed=1)
    indexed_s = scanned_s = 0.0
    for _ in range(ROUNDS):
        seconds, fast_hits = _time(indexed, constants)
        indexed_s += seconds
        seconds, slow_hits = _time(scanned, constants)
        scanned_s += seconds
        assert fast_hits == slow_hits
    speedup = scanned_s / indexed_s
    per_lookup_ms = 1000 / (ROUNDS * CONSTANTS)
    print(
        f"\nvalue index @ {ROWS} rows: indexed {indexed_s * per_lookup_ms:.3f} ms, "
        f"scan {scanned_s * per_lookup_ms:.3f} ms per lookup, {speedup:.0f}x"
    )
    assert speedup >= MIN_SPEEDUP, speedup
