"""Wall-clock benchmark: nested iteration vs the transformed plans.

Unlike the rest of the benchmark suite, which reports the simulator's
page-I/O counters, this harness times real executions of the Figure-1
workloads (Type-N, Type-J, Type-JA) under every configuration:

* nested iteration (the baseline),
* the transformed plan under each join method (merge, nested, hash).

Every leg runs cold (buffer flushed, counters zeroed) ``--repeats``
times and keeps the fastest run, and every leg must return the
baseline's bag of rows.  ``--output FILE`` writes the records as a list
of ``{workload, op, rows, seconds, pages}``:

    PYTHONPATH=src python benchmarks/bench_wallclock.py --output out.json

(``BENCH_PR2.json`` at the repo root is history: it also holds a
``nested_iteration[interpreted]`` leg from when the engine could
evaluate expressions through a tree-walking interpreter, and
``transform[...|vectorized]`` records from when a second, row-at-a-time
operator set existed; the row-vs-batch scaling curve is
``BENCH_PR6.json``.)

``--smoke`` runs every leg once and exits non-zero if any leg's bag
differs from the baseline's; CI runs it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from collections import Counter

from repro.bench.harness import MeasuredRun, measure
from repro.workloads.generators import (
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

#: The Figure-1 synthetic instances (same specs as bench_figure1.py).
#: Every leg must agree with nested iteration as a bag — an ``IN`` is
#: merged as a semi-join, so a type-J match does not fan out (see
#: DESIGN.md).
WORKLOADS = [
    {
        "name": "figure1-type-n",
        "query": GENERATED_N_QUERY,
        "spec": PartsSupplySpec(
            num_parts=150, num_supply=4000, rows_per_page=10,
            buffer_pages=6, seed=11,
        ),
    },
    {
        "name": "figure1-type-j",
        "query": GENERATED_J_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=12,
        ),
    },
    {
        "name": "figure1-type-ja",
        "query": GENERATED_JA_QUERY,
        "spec": PartsSupplySpec(
            num_parts=100, num_supply=600, rows_per_page=10,
            buffer_pages=6, seed=13,
        ),
    },
]

JOIN_METHODS = ("merge", "nested", "hash")


def best_of(repeats: int, run) -> MeasuredRun:
    """Fastest of ``repeats`` cold runs (rows/pages are identical)."""
    runs = [run() for _ in range(repeats)]
    return min(runs, key=lambda r: r.seconds)


def measure_workload(workload: dict, repeats: int) -> list[dict]:
    catalog = build_parts_supply(workload["spec"])
    query = workload["query"]

    legs: dict[str, MeasuredRun] = {
        "nested_iteration": best_of(
            repeats, lambda: measure(catalog, query, "nested_iteration")
        )
    }
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
    reference = Counter(legs["nested_iteration"].rows)
    for op, run in legs.items():
        if Counter(run.rows) != reference:
            raise AssertionError(
                f"{workload['name']}: {op} disagrees with the baseline"
            )


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
        "--output", type=pathlib.Path, default=None,
        help="result file (default: print the timings only)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one run per leg; fail if any leg's rows differ from the "
        "baseline's",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    for workload in WORKLOADS:
        try:
            rows = measure_workload(workload, 1 if args.smoke else args.repeats)
        except AssertionError as error:
            print(f"FAIL {error}")
            return 1
        records.extend(rows)
        for record in rows:
            print(
                f"{workload['name']}: {record['op']} "
                f"{record['seconds'] * 1000:.1f} ms, {record['pages']} pages"
            )

    if args.output is not None:
        args.output.write_text(json.dumps(records, indent=2) + "\n")
        print(f"[{len(records)} records written to {args.output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
