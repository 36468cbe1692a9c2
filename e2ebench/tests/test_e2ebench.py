"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from harness import Run  # noqa: E402
from run import END_TO_END_UNITS, per_layer_unit, result_line  # noqa: E402
from workloads import WORKLOADS, GoldChecker, Question, question_stream, tiny  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

logging.getLogger("repro").setLevel(logging.ERROR)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_runs(request):
    """One untraced and one traced tiny run of each workload."""
    workload = tiny(WORKLOADS[request.param])
    return {trace: Run(workload, seed=3, seconds=1.0, trace=trace).execute() for trace in (False, True)}


def test_tiny_workload_runs_end_to_end(tiny_runs):
    for trace, result in tiny_runs.items():
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        assert set(result["end_to_end"]) == set(END_TO_END_UNITS)
        assert result["end_to_end"]["setup_s"] > 0
        assert result["end_to_end"]["rps"] > 0
        # Program errors are wrong answers in the histogram; only
        # crashes (other exceptions) are failed operations.
        assert result["failed"] <= sum(result["context"]["failures"].values())
    traced = tiny_runs[True]
    assert traced["context"]["largest_layer"] is not None
    assert abs(traced["per_layer"]["trace.accounted_ratio"] - 1.0) <= 0.05


def test_metric_names_and_units_match_benchmark_json(tiny_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = result_line(tiny_runs[trace], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert NAME.match(name), name
            assert UNIT.match(metric["unit"]), metric
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], float | int)
        json.dumps(line)  # the line is plain JSON


def test_every_per_layer_metric_has_a_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert per_layer_unit(metric["name"]) == metric["unit"]


def test_gold_check_fires_on_a_wrong_answer():
    from repro.adapters import MemoryAdapter
    from repro.db import populate
    from repro.schema import load_schema
    from repro.sql.parser import parse

    database = populate(load_schema("patients"), rows_per_table=30, seed=1)
    ordered = parse("SELECT name, age FROM patients ORDER BY age DESC")
    unordered = parse("SELECT name FROM patients WHERE age > 30")
    questions = [Question("q1", ordered), Question("q2", unordered)]
    checker = GoldChecker(database, questions)
    reference = MemoryAdapter(database)
    gold_ordered = reference.execute(ordered)
    gold_unordered = reference.execute(unordered)

    assert checker.matches(0, gold_ordered)
    assert checker.matches(1, list(reversed(gold_unordered)))  # order ignored
    assert not checker.matches(0, list(reversed(gold_ordered)))  # ORDER BY kept
    assert not checker.matches(1, gold_unordered[1:])  # a missing row
    assert not checker.matches(1, gold_unordered + [{"name": "nobody"}])  # an extra row
    assert not checker.matches(1, None)  # a failed request is wrong


def test_questions_depend_only_on_the_seed():
    from repro.db import populate
    from repro.schema import load_schema

    workload = tiny(WORKLOADS["cold_patients"])
    database = populate(load_schema("patients"), rows_per_table=30, seed=5)
    first, _ = question_stream(workload, database, 5)
    again, _ = question_stream(workload, database, 5)
    other, _ = question_stream(workload, database, 6)
    assert [q.nl for q in first] == [q.nl for q in again]
    assert [q.nl for q in first] != [q.nl for q in other]
    assert all("@" not in q.nl for q in first)


def test_warm_replay_repeats_questions():
    from repro.db import populate
    from repro.schema import load_schema

    workload = WORKLOADS["warm_patients"]
    database = populate(load_schema("patients"), rows_per_table=40, seed=5)
    questions, picks = question_stream(workload, database, 5)
    assert len(questions) == workload.distinct
    first = picks[: workload.scored]
    repeats = 1.0 - len(np.unique(first)) / len(first)
    assert repeats >= 0.8


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cold_patients", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_program_errors_are_wrong_answers_and_other_exceptions_crashes():
    from repro.errors import ExecutionError

    def answer(exc):
        def call(_nl):
            raise exc

        return call

    workload = tiny(WORKLOADS["warm_patients"])
    for exc, crashed in ((ExecutionError("refused"), False), (KeyError("bug"), True)):
        run = Run(workload, seed=3, seconds=0.2, trace=False)
        try:
            run.stack, run.questions, run.picks = run.setup()
            run.checker = GoldChecker(run.stack.database, run.questions)
            run.stack.endpoint = lambda call=answer(exc): call
            window, _ = run.serve(0, None, 3)
        finally:
            from workloads import close_stack

            close_stack(run.stack, run.client.run)
            run.client.close()
        assert [o.crashed for o in window.outcomes] == [crashed] * 3
        assert not any(o.correct for o in window.outcomes)


def test_speed_scale_uses_the_loops_next_to_the_work():
    from speed import REFERENCE_LOOP_MS, SpeedProbe

    probe = SpeedProbe()
    probe.times = [1.0, 2.0, 3.0, 4.0]
    probe.loop_ms = [1.0, 2.0, 4.0, 8.0]
    # Work between t=2.1 and t=2.9: the loops at t=2 and t=3.
    assert probe.factor(2.1, 2.9) == pytest.approx(REFERENCE_LOOP_MS / 3.0)
    # Work before the first loop: only the one after it.
    assert probe.factor(0.1, 0.5) == pytest.approx(REFERENCE_LOOP_MS / 1.0)
