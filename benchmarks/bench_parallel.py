"""Scaling curve for partitioned parallel execution: BENCH_PR7.json.

``BENCH_PR6.json`` (PR 6) scaled the Figure-1 workloads to show what
batch execution buys on the CPU side.  This harness measures the
other axis: intra-query parallelism on an I/O-bound instance.  The
generated PARTS/SUPPLY database simulates per-page read latency
(``io_delay``, slept *outside* all locks), so sharded scans, the
partitioned hash-join probe, and parallel partial aggregation overlap
their page waits — that overlap, not Python-level CPU concurrency, is
where the speedup comes from (the GIL serializes compute; it does not
serialize sleeping readers).

The sweep crosses workload x SUPPLY rows x worker threads; the
effective partition count (worker shards actually cut from the
driving table's partition map, clamped by its page count) is recorded
per point.  Every point runs cold and must satisfy two invariants
against the serial (``threads=1``) leg of the same (workload, size):

* identical result bag — parallel execution is not allowed to change
  answers, and
* identical total page I/O — the exchange operators repartition *work*,
  never the cost model.  Each shard reads exactly the pages the serial
  scan would have read; shards are disjoint and exhaustive.

Results land in ``BENCH_PR7.json`` as ``{workload, supply_rows,
threads, partitions, rows, seconds, pages, speedup}`` records:

    PYTHONPATH=src python benchmarks/bench_parallel.py

``--smoke`` runs only the gated point — the type-JA workload at 100k
SUPPLY rows, threads 1 and 4 — and exits non-zero unless 4 threads
beat serial by at least 1.5x (plus the unconditional row/page-identity
asserts).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter

from repro.bench.harness import MeasuredRun, measure
from repro.workloads.generators import (
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR7.json"

#: SUPPLY row counts on the scaling curve (PARTS = SUPPLY / 20).
DEFAULT_SIZES = (10_000, 30_000, 100_000)

#: Worker-thread degrees swept per point (1 = the serial baseline).
DEFAULT_THREADS = (1, 2, 4, 8)

#: Simulated per-page read latency (seconds).  1ms makes the 100k
#: instance I/O-bound without inflating the full sweep past ~2 minutes.
DEFAULT_IO_DELAY = 0.001

#: --smoke gate: minimum speedup of 4 threads over serial on the
#: type-JA workload at 100k SUPPLY rows.
SMOKE_GATE = 1.5
SMOKE_WORKLOAD = "figure1-type-ja"
SMOKE_ROWS = 100_000
SMOKE_THREADS = (1, 4)

WORKLOADS = [
    {
        "name": "figure1-type-n",
        "query": GENERATED_N_QUERY,
    },
    {
        "name": "figure1-type-j",
        "query": GENERATED_J_QUERY,
    },
    {
        "name": "figure1-type-ja",
        "query": GENERATED_JA_QUERY,
    },
]


def spec_for(supply_rows: int, seed: int, io_delay: float) -> PartsSupplySpec:
    # The pool must hold the full working set (base tables + temps):
    # when scans spill, LRU victim choice depends on the *timing* of
    # temp writes relative to reads, and the exchange operators batch
    # their writes after the sharded reads — identical page accesses,
    # different eviction victims, diverging re-read counts.  With the
    # working set resident, every page is read exactly once cold and
    # the page-I/O identity assert below is exact.  (The difftest
    # checks the same identity at deliberately tiny pool sizes.)
    return PartsSupplySpec(
        num_parts=max(50, supply_rows // 20),
        num_supply=supply_rows,
        rows_per_page=64,
        buffer_pages=max(256, 6 * supply_rows // 64),
        seed=seed,
        io_delay=io_delay,
    )


def best_of(repeats: int, run) -> MeasuredRun:
    return min((run() for _ in range(repeats)), key=lambda r: r.seconds)


def measure_point(
    workload: dict,
    supply_rows: int,
    threads: tuple[int, ...],
    repeats: int,
    io_delay: float,
) -> list[dict]:
    """Time every thread degree of one (workload, size) point."""
    catalog = build_parts_supply(
        spec_for(supply_rows, seed=41 + len(workload["name"]), io_delay=io_delay)
    )
    supply_pages = catalog.heap_of("SUPPLY").num_pages

    legs: dict[int, MeasuredRun] = {}
    for degree in threads:
        legs[degree] = best_of(
            repeats,
            lambda degree=degree: measure(
                catalog, workload["query"], "transform",
                join_method="hash",
                parallelism=degree,
            ),
        )

    serial = legs[min(legs)]
    for degree, run_ in legs.items():
        if Counter(run_.rows) != Counter(serial.rows):
            raise AssertionError(
                f"{workload['name']}@{supply_rows}: threads={degree} rows "
                "disagree with the serial leg"
            )
        if run_.page_ios != serial.page_ios:
            raise AssertionError(
                f"{workload['name']}@{supply_rows}: threads={degree} charges "
                f"{run_.page_ios} page I/Os, serial charges "
                f"{serial.page_ios}"
            )

    return [
        {
            "workload": workload["name"],
            "supply_rows": supply_rows,
            "threads": degree,
            "partitions": min(degree, supply_pages),
            "rows": len(run_.rows),
            "seconds": round(run_.seconds, 6),
            "pages": run_.page_ios,
            "speedup": round(serial.seconds / max(run_.seconds, 1e-9), 3),
        }
        for degree, run_ in legs.items()
    ]


def point_speedup(point: list[dict], threads: int) -> float:
    by_threads = {r["threads"]: r for r in point}
    return by_threads[threads]["speedup"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_parallel.py",
        description="Sweep the Figure-1 workloads over worker-thread "
        "degrees on a simulated-latency instance.",
    )
    parser.add_argument(
        "--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated SUPPLY row counts "
        f"(default {','.join(str(s) for s in DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--threads", default=",".join(str(t) for t in DEFAULT_THREADS),
        help="comma-separated worker-thread degrees "
        f"(default {','.join(str(t) for t in DEFAULT_THREADS)})",
    )
    parser.add_argument(
        "--io-delay", type=float, default=DEFAULT_IO_DELAY,
        help=f"simulated seconds per page read (default {DEFAULT_IO_DELAY})",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="cold runs per leg, fastest kept (default 2)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help=f"result file (default {DEFAULT_OUTPUT}; smoke runs write a "
        ".smoke.json sidecar so they never clobber the committed sweep)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="gated point only (type-JA @ 100k rows, threads 1 and 4); "
        f"fail unless 4 threads beat serial by {SMOKE_GATE}x",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = (
            DEFAULT_OUTPUT.with_suffix(".smoke.json")
            if args.smoke
            else DEFAULT_OUTPUT
        )

    if args.smoke:
        sweep = [
            (w, SMOKE_ROWS, SMOKE_THREADS)
            for w in WORKLOADS
            if w["name"] == SMOKE_WORKLOAD
        ]
    else:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        threads = tuple(int(t) for t in args.threads.split(",") if t.strip())
        sweep = [(w, rows, threads) for w in WORKLOADS for rows in sizes]

    records: list[dict] = []
    failures: list[str] = []
    for workload, supply_rows, threads in sweep:
        point = measure_point(
            workload, supply_rows, threads, args.repeats, args.io_delay
        )
        records.extend(point)
        gains = ", ".join(
            f"{r['threads']}t={r['speedup']:.2f}x"
            for r in point
            if r["threads"] > 1
        )
        print(
            f"{workload['name']}@{supply_rows}: {gains or 'serial only'} "
            f"({point[0]['pages']} page I/Os, all degrees)"
        )
        if (
            args.smoke
            and workload["name"] == SMOKE_WORKLOAD
            and supply_rows == SMOKE_ROWS
        ):
            gain = point_speedup(point, 4)
            if gain < SMOKE_GATE:
                failures.append(
                    f"{workload['name']}@{supply_rows}: 4 threads only "
                    f"{gain:.2f}x over serial (gate {SMOKE_GATE}x)"
                )

    args.output.write_text(json.dumps(records, indent=2) + "\n")
    print(f"[{len(records)} records written to {args.output}]")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if args.smoke:
        print("parallel smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
