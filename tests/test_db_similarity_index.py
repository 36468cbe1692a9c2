"""Tests for string similarity and the value index."""

from hypothesis import given, strategies as st

from repro.db import (
    ValueIndex,
    best_match,
    char_trigrams,
    jaccard_tokens,
    jaccard_trigram,
    populate,
)
from repro.schema import patients_schema


class TestJaccard:
    def test_identity(self):
        assert jaccard_trigram("boston", "boston") == 1.0
        assert jaccard_tokens("new york", "new york") == 1.0

    def test_disjoint(self):
        assert jaccard_trigram("abc", "xyz") == 0.0

    def test_case_insensitive(self):
        assert jaccard_trigram("Boston", "boston") == 1.0

    def test_trigrams_are_padded_and_lower_cased(self):
        assert char_trigrams("Ab") == {"  a", " ab", "ab "}
        assert char_trigrams("") == {"   "}

    def test_partial_overlap_ranks_correctly(self):
        close = jaccard_trigram("influenza", "influenzza")
        far = jaccard_trigram("influenza", "fracture")
        assert close > far > 0.0 or far == 0.0

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_symmetry(self, a, b):
        assert jaccard_trigram(a, b) == jaccard_trigram(b, a)

    @given(st.text(min_size=0, max_size=20))
    def test_reflexive(self, a):
        assert jaccard_trigram(a, a) == 1.0

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_trigram(a, b) <= 1.0


class TestBestMatch:
    def test_picks_best(self):
        match, score = best_match("influenzza", ["fracture", "influenza", "asthma"])
        assert match == "influenza"
        assert score > 0.5

    def test_threshold(self):
        match, score = best_match("zzzzzz", ["influenza"], threshold=0.5)
        assert match is None and score == 0.0

    def test_empty_candidates(self):
        assert best_match("x", []) == (None, 0.0)


class TestValueIndex:
    def test_exact_lookup(self, patients_db):
        value = patients_db.rows("patients")[0]["diagnosis"]
        hits = ValueIndex(patients_db).lookup(value)
        assert any(h.column == "diagnosis" and h.score == 1.0 for h in hits)

    def test_numeric_lookup(self, patients_db):
        age = patients_db.rows("patients")[0]["age"]
        hits = ValueIndex(patients_db).lookup(str(age))
        assert any(h.column == "age" for h in hits)

    def test_lookup_normalizes_case(self, patients_db):
        value = patients_db.rows("patients")[0]["name"]
        hits = ValueIndex(patients_db).lookup(value.upper())
        assert hits

    def test_fuzzy_lookup_corrects_typo(self, patients_db):
        index = ValueIndex(patients_db)
        hits = index.fuzzy_lookup("influenzza")
        assert hits and hits[0].value == "influenza"

    def test_fuzzy_lookup_below_threshold_empty(self, patients_db):
        index = ValueIndex(patients_db, similarity_threshold=0.9)
        assert index.fuzzy_lookup("qqqqqwwww") == []

    def test_columns_for(self, patients_db):
        index = ValueIndex(patients_db)
        value = patients_db.rows("patients")[0]["gender"]
        assert ("patients", "gender") in index.columns_for(value)

    def test_fuzzy_hits_sorted_by_score(self, patients_db):
        index = ValueIndex(patients_db)
        hits = index.fuzzy_lookup("influenz")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestPopulate:
    def test_deterministic(self):
        first = populate(patients_schema(), rows_per_table=10, seed=5)
        second = populate(patients_schema(), rows_per_table=10, seed=5)
        assert first.rows("patients") == second.rows("patients")

    def test_seed_changes_data(self):
        first = populate(patients_schema(), rows_per_table=10, seed=5)
        second = populate(patients_schema(), rows_per_table=10, seed=6)
        assert first.rows("patients") != second.rows("patients")

    def test_row_counts(self, geography_db):
        for table in geography_db.schema.tables:
            assert geography_db.row_count(table.name) == 25

    def test_foreign_keys_reference_parents(self, geography_db):
        states = set(geography_db.column_values("state", "state_name"))
        cities = geography_db.rows("city")
        assert all(row["state_name"] in states for row in cities)

    def test_domain_ranges_respected(self, patients_db):
        ages = patients_db.column_values("patients", "age")
        assert all(1 <= a <= 99 for a in ages)

    def test_primary_keys_sequential(self, patients_db):
        pids = patients_db.column_values("patients", "patient_id")
        assert pids == list(range(1, 31))

    def test_all_catalog_schemas_populate(self):
        from repro.schema import all_schemas

        for schema in all_schemas():
            db = populate(schema, rows_per_table=5, seed=1)
            for table in schema.tables:
                assert db.row_count(table.name) == 5
