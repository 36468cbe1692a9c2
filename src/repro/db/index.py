"""Value index: constant -> candidate (table, column) attributions.

"As a temporary solution in the basic version of DBPal, we build an
index on each attribute of the schema that maps constants to possible
attribute names" (paper §4.1).  The runtime parameter handler uses this
index to anonymize constants in the user's NL query, with a similarity
fallback for string constants that only approximately match database
values (e.g. "New York City" vs "NYC").

With the default metric (:func:`~repro.db.similarity.jaccard_trigram`)
the fallback runs on a trigram inverted index instead of scanning every
stored value, with the scan's results score for score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from repro.db.similarity import (
    SimilarityFn,
    best_match,
    char_trigrams,
    jaccard_trigram,
)
from repro.db.storage import Database


@dataclass(frozen=True)
class ValueHit:
    """One attribution of a constant to a schema column."""

    table: str
    column: str
    value: int | float | str
    score: float  # 1.0 for exact hits, the similarity score otherwise


class ValueIndex:
    """Inverted index over every attribute of the database."""

    def __init__(
        self,
        database: Database,
        similarity: SimilarityFn = jaccard_trigram,
        similarity_threshold: float = 0.4,
    ) -> None:
        self._similarity = similarity
        self._threshold = similarity_threshold
        self._exact: dict[str, list[tuple[str, str, object]]] = {}
        self._text_values: dict[tuple[str, str], list[str]] = {}
        for table in database.schema.tables:
            for column in table.columns:
                values = database.column_values(table.name, column.name)
                unique = list(dict.fromkeys(values))
                if not column.is_numeric:
                    self._text_values[(table.name, column.name)] = [
                        str(v) for v in unique
                    ]
                for value in unique:
                    key = self._normalize(value)
                    self._exact.setdefault(key, []).append(
                        (table.name, column.name, value)
                    )
        # Trigram inverted index for the default metric: every text value
        # gets an id, ascending in (column, insertion position) order, so
        # the lowest id is the scan's first-seen tie winner.  An entry is
        # (column number, value, trigram-set size).  A caller-supplied
        # metric keeps the scan (§4.1: the metric is pluggable).
        self._columns = list(self._text_values)
        self._entries: list[tuple[int, str, int]] = []
        self._postings: dict[str, list[int]] | None = None
        if similarity is jaccard_trigram:
            self._postings = {}
            for column_no, values in enumerate(self._text_values.values()):
                for value in values:
                    trigrams = char_trigrams(value)
                    for trigram in trigrams:
                        self._postings.setdefault(trigram, []).append(
                            len(self._entries)
                        )
                    self._entries.append((column_no, value, len(trigrams)))

    @staticmethod
    def _normalize(value) -> str:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return str(value).strip().lower()

    def lookup(self, constant: str) -> list[ValueHit]:
        """Exact (normalized) lookup of a constant."""
        hits = self._exact.get(self._normalize(constant), [])
        return [ValueHit(t, c, v, 1.0) for t, c, v in hits]

    def fuzzy_lookup(self, constant: str) -> list[ValueHit]:
        """Exact lookup with a similarity fallback for strings (§4.1).

        When the similarity of all values is below the threshold —
        "which could mean that the value does not exist in the
        database" — an empty list is returned and the caller keeps the
        constant as given by the user.
        """
        exact = self.lookup(constant)
        if exact:
            return exact
        if self._postings is None:
            hits = self._scan(constant)
        else:
            hits = self._trigram_search(constant)
        hits.sort(key=lambda h: (-h.score, h.table, h.column))
        return hits

    def _scan(self, constant: str) -> list[ValueHit]:
        """The most similar value of every text column, by a full scan."""
        hits: list[ValueHit] = []
        for (table, column), values in self._text_values.items():
            match, score = best_match(
                constant, values, self._similarity, self._threshold
            )
            if match is not None:
                hits.append(ValueHit(table, column, match, score))
        return hits

    def _trigram_search(self, constant: str) -> list[ValueHit]:
        """:meth:`_scan` under ``jaccard_trigram``, on the inverted index.

        Values sharing no trigram score 0, which the scan never picks, so
        only the constant's postings are walked.  Jaccard is at most
        ``min(|A|, |B|) / max(|A|, |B|)`` and float division is monotone,
        so a value whose size ratio is below the threshold scores below
        it too and is dropped unscored.  Survivors are scored exactly as
        ``jaccard_trigram`` does; per column the highest score wins, ties
        to the lowest id, then the threshold applies as in ``best_match``.
        """
        trigrams = char_trigrams(constant)
        size = len(trigrams)
        threshold = self._threshold
        shared = Counter(
            chain.from_iterable(self._postings.get(t, ()) for t in trigrams)
        )
        best: dict[int, tuple[float, int]] = {}
        for value_id, common in shared.items():
            column_no, _, other = self._entries[value_id]
            if (other / size if other < size else size / other) < threshold:
                continue
            score = common / (size + other - common)
            current = best.get(column_no)
            if (
                current is None
                or score > current[0]
                or (score == current[0] and value_id < current[1])
            ):
                best[column_no] = (score, value_id)
        hits: list[ValueHit] = []
        for column_no, (score, value_id) in best.items():
            if score >= threshold:
                table, column = self._columns[column_no]
                value = self._entries[value_id][1]
                hits.append(ValueHit(table, column, value, score))
        return hits

    def columns_for(self, constant: str) -> list[tuple[str, str]]:
        """Candidate (table, column) pairs for a constant, best first."""
        return [(h.table, h.column) for h in self.fuzzy_lookup(constant)]
