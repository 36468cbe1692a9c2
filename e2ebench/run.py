"""End-to-end NL -> rows benchmark of the DBPal runtime.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cold_patients --seed 1 --seconds 25 --trace 0

Workloads: ``cold_patients``, ``warm_patients``, ``join_retail`` (see
``BENCHMARK.json`` for why each exists and ``workloads.py`` for sizes).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Request times are scaled to a reference host speed (``speed.py``); ``failed``
counts crashes, while the program's own errors count as wrong answers
(``harness.py``).  The line before it describes the run: sizes, the
failure-code histogram, the error rate, the unscaled wall times, the
checks, the largest layer and the environment.  The exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: model outputs repeat bit for bit, and the model stays
# off the core the service threads use.  Must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Metric name -> unit, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "exec_accuracy": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (
        ("us_per_req", "us"),
        ("ms_per_req", "ms"),
        ("ms_per_item", "ms"),
        ("ms_p50", "ms"),
        ("_s", "s"),
        ("ratio", "ratio"),
        ("per_req", "count"),
        ("mean", "count"),
        ("corpus_pairs", "count"),
    ):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(result: dict, trace: bool) -> dict:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    units = {name: (per_layer_unit(name) if trace else END_TO_END_UNITS[name]) for name in metrics}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    import json
    import logging

    from harness import CheckFailed, Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Synthesis lint notes are about templates, not this run.
    logging.getLogger("repro").setLevel(logging.ERROR)
    try:
        result = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result["context"], sort_keys=True))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
