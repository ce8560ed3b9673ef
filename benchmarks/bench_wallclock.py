"""Wall-clock benchmark: compiled vs interpreted, merge vs hash.

Unlike the rest of the benchmark suite, which reports the simulator's
page-I/O counters, this harness times real executions of the Figure-1
workloads (Type-N, Type-J, Type-JA) under every configuration:

* nested iteration with the expression compiler disabled (the
  interpreted baseline),
* nested iteration with compiled predicates/projections (the default),
* the transformed plan under each join method (merge, nested, hash).

Every leg runs cold (buffer flushed, counters zeroed) ``--repeats``
times and keeps the fastest run.  Results land in ``BENCH_PR2.json``
at the repo root as a list of ``{workload, op, rows, seconds, pages}``
records, so the headline claims — compiled beats interpreted, hash
beats merge on unsorted inputs — are regenerable from one command:

    PYTHONPATH=src python benchmarks/bench_wallclock.py

(``BENCH_PR2.json`` as committed also holds ``transform[...|vectorized]``
records from when a second, row-at-a-time operator set existed; the
row-vs-batch scaling curve is ``BENCH_PR6.json``.  Both are history.)

``--smoke`` runs a reduced matrix (the two nested-iteration legs) and
exits non-zero if compilation fails to pay for itself on any workload;
CI runs it as a perf regression gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter

from repro.bench.harness import MeasuredRun, measure
from repro.engine.compile import interpreted_only
from repro.workloads.generators import (
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR2.json"

#: The Figure-1 synthetic instances (same specs as bench_figure1.py).
#: ``check`` is the cross-leg agreement discipline; every workload
#: requires bag (multiset) agreement — an ``IN`` is merged as a
#: semi-join, so a type-J match does not fan out (see DESIGN.md).
WORKLOADS = [
    {
        "name": "figure1-type-n",
        "query": GENERATED_N_QUERY,
        "spec": PartsSupplySpec(
            num_parts=150, num_supply=4000, rows_per_page=10,
            buffer_pages=6, seed=11,
        ),
        "check": "bag",
    },
    {
        "name": "figure1-type-j",
        "query": GENERATED_J_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=12,
        ),
        "check": "bag",
    },
    {
        "name": "figure1-type-ja",
        "query": GENERATED_JA_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=13,
        ),
        "check": "bag",
    },
]

JOIN_METHODS = ("merge", "nested", "hash")


def best_of(repeats: int, run) -> MeasuredRun:
    """Fastest of ``repeats`` cold runs (rows/pages are identical)."""
    runs = [run() for _ in range(repeats)]
    return min(runs, key=lambda r: r.seconds)


def measure_workload(workload: dict, repeats: int, smoke: bool) -> list[dict]:
    catalog = build_parts_supply(workload["spec"])
    query = workload["query"]

    legs: dict[str, MeasuredRun] = {}
    with interpreted_only():
        legs["nested_iteration[interpreted]"] = best_of(
            repeats,
            lambda: measure(catalog, query, "nested_iteration"),
        )
    legs["nested_iteration[compiled]"] = best_of(
        repeats,
        lambda: measure(catalog, query, "nested_iteration"),
    )
    if not smoke:
        for join_method in JOIN_METHODS:
            legs[f"transform[{join_method}]"] = best_of(
                repeats,
                lambda: measure(
                    catalog, query, "transform",
                    join_method=join_method,
                ),
            )

    check_agreement(workload, legs)

    return [
        {
            "workload": workload["name"],
            "op": op,
            "rows": len(run.rows),
            "seconds": round(run.seconds, 6),
            "pages": run.page_ios,
        }
        for op, run in legs.items()
    ]


def check_agreement(workload: dict, legs: dict[str, MeasuredRun]) -> None:
    """A benchmark must never time a wrong answer."""
    reference = legs["nested_iteration[compiled]"]
    for op, run in legs.items():
        if workload["check"] == "set":
            agree = set(run.rows) == set(reference.rows)
        else:
            agree = Counter(run.rows) == Counter(reference.rows)
        if not agree:
            raise AssertionError(
                f"{workload['name']}: {op} disagrees with the baseline"
            )


def speedup(records: list[dict], workload: str, slow_op: str, fast_op: str):
    by_op = {r["op"]: r for r in records if r["workload"] == workload}
    return by_op[slow_op]["seconds"] / max(by_op[fast_op]["seconds"], 1e-9)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_wallclock.py",
        description="Time nested iteration and transformed plans "
        "under every configuration.",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="cold runs per leg, fastest kept (default 3)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="nested-iteration legs only; fail if compiled is slower "
        "than interpreted on any workload; skip writing the result file",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    for workload in WORKLOADS:
        records.extend(measure_workload(workload, args.repeats, args.smoke))
        compiled_gain = speedup(
            records, workload["name"],
            "nested_iteration[interpreted]", "nested_iteration[compiled]",
        )
        print(f"{workload['name']}: compiled speedup {compiled_gain:.2f}x")

    failures = []
    for workload in WORKLOADS:
        gain = speedup(
            records, workload["name"],
            "nested_iteration[interpreted]", "nested_iteration[compiled]",
        )
        if gain < 1.0:
            failures.append(
                f"{workload['name']}: compiled slower than interpreted "
                f"({gain:.2f}x)"
            )

    if args.smoke:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print("perf smoke " + ("FAILED" if failures else "passed"))
        return 1 if failures else 0

    args.output.write_text(json.dumps(records, indent=2) + "\n")
    print(f"[{len(records)} records written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
