"""Serving-layer throughput benchmark: cold vs cached vs prepared.

Times the Figure-1 workloads through three execution paths:

* **cold** — the full pipeline per call (parse → qualify → rewrite →
  NEST-G → verify → lint → build temps → final query), what a naive
  server would do for every request;
* **cached** — ``Engine.run_cached``: normalize, hit the plan cache,
  replay the already-verified plan (materialized temps memoized per
  parameter sub-vector);
* **prepared** — ``PreparedStatement.execute``: no per-call parsing or
  normalization at all, the vector binds straight into the compiled
  plan.

Latency legs run single-threaded with zero simulated I/O delay and
report QPS plus p50/p99 per-call latency.  The thread-scaling legs run
the cached path from 1, 4, and 8 worker threads over a larger instance
with a per-page-read delay (the sleep happens outside all locks, so
concurrent faults overlap — an I/O-bound workload): QPS should rise
with the thread count because the lock-striped buffer pool and the
re-entrant catalog read lock let replays proceed concurrently.

Every path's rows are checked identical to the cold path's, and the
cold rows are checked against the SQLite oracle, so the benchmark can
never time a wrong answer.  Results land in ``BENCH_PR5.json``:

    PYTHONPATH=src python benchmarks/bench_throughput.py

``--smoke`` runs a reduced matrix and exits non-zero unless the cached
path is at least 1.5x faster than cold on every workload; CI runs it
as a perf-regression gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import threading
import time
from collections import Counter

from repro.core.pipeline import Engine
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.serve.cache import PlanCache
from repro.workloads.generators import (
    CUTOFF,
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR5.json"

#: The Figure-1 workloads.  ``param_query``/``params`` is the prepared
#: variant: the predicate literal becomes an explicit bind marker.
WORKLOADS = [
    {
        "name": "figure1-type-n",
        "query": GENERATED_N_QUERY,
        "param_query": (
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < ?)"
        ),
        "params": (CUTOFF,),
    },
    {
        "name": "figure1-type-j",
        "query": GENERATED_J_QUERY,
        "param_query": GENERATED_J_QUERY,
        "params": (),
        # The query text carries its cutoff as a literal and the plan
        # is one inner temp plus a semi-join, so a cache hit skips
        # little besides planning/verification.  The gate just
        # requires the cached path not to be slower.
        "min_speedup": 1.0,
    },
    {
        "name": "figure1-type-ja",
        "query": GENERATED_JA_QUERY,
        "param_query": (
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
        ),
        "params": (CUTOFF,),
    },
]

#: Instance for the single-thread latency legs (no simulated I/O).
LATENCY_SPEC = PartsSupplySpec(
    num_parts=50, num_supply=200, rows_per_page=10, buffer_pages=16, seed=13
)

#: Larger, I/O-bound instance for the thread-scaling legs: the buffer
#: is far smaller than the working set, so every replay keeps faulting
#: pages whose simulated read delay overlaps across threads.
SCALING_SPEC = PartsSupplySpec(
    num_parts=150, num_supply=1200, rows_per_page=10, buffer_pages=24, seed=17
)
SCALING_IO_DELAY = 0.0003
THREAD_COUNTS = (1, 4, 8)

#: Output for the mixed read/write legs (``--mix R/W``); ``--smoke``
#: writes a ``.smoke.json`` sidecar instead so CI can upload both.
MIXED_OUTPUT = REPO_ROOT / "BENCH_PR8.json"


def _percentile(latencies: list[float], fraction: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _timed(call, iters: int) -> dict:
    """Run ``call`` ``iters`` times; QPS + p50/p99 latency in seconds."""
    latencies = []
    for _ in range(iters):
        start = time.perf_counter()
        call()
        latencies.append(time.perf_counter() - start)
    return {
        "iters": iters,
        "qps": round(iters / sum(latencies), 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "mean_ms": round(statistics.mean(latencies) * 1000, 3),
    }


def _check_rows(name: str, leg: str, rows, reference) -> None:
    if Counter(rows) != Counter(reference):
        raise AssertionError(
            f"{name}: {leg} produced different rows than the cold path"
        )


def measure_latency(workload: dict, iters: int) -> list[dict]:
    """Single-thread QPS/latency for cold, cached, and prepared."""
    catalog = build_parts_supply(LATENCY_SPEC)
    cache = PlanCache()
    cache.attach(catalog)
    engine = Engine(catalog, plan_cache=cache)
    name = workload["name"]

    cold_report = engine.run(workload["query"], method="transform")
    reference = cold_report.result.rows
    with SQLiteOracle(catalog) as oracle:
        oracle_rows = oracle.run(workload["query"])
    if normalize_rows(reference) != normalize_rows(oracle_rows):
        raise AssertionError(f"{name}: cold path disagrees with SQLite")

    records = []

    cold = _timed(
        lambda: engine.run(workload["query"], method="transform"), iters
    )
    records.append({"workload": name, "op": "cold", "threads": 1, **cold})

    cached_rows = engine.run_cached(
        workload["query"], method="transform"
    ).result.rows
    _check_rows(name, "cached", cached_rows, reference)
    cached = _timed(
        lambda: engine.run_cached(workload["query"], method="transform"),
        iters,
    )
    records.append({"workload": name, "op": "cached", "threads": 1, **cached})

    statement = engine.prepare(workload["param_query"], method="transform")
    prepared_rows = statement.execute(workload["params"]).result.rows
    _check_rows(name, "prepared", prepared_rows, reference)
    prepared = _timed(lambda: statement.execute(workload["params"]), iters)
    records.append(
        {"workload": name, "op": "prepared", "threads": 1, **prepared}
    )
    return records


def measure_scaling(workload: dict, calls_per_thread: int) -> list[dict]:
    """Cached-path QPS from 1/4/8 worker threads on an I/O-bound instance."""
    catalog = build_parts_supply(SCALING_SPEC)
    catalog.buffer.disk.io_delay = SCALING_IO_DELAY
    cache = PlanCache()
    cache.attach(catalog)
    engine = Engine(catalog, plan_cache=cache)
    name = workload["name"]
    reference = engine.run_cached(
        workload["query"], method="transform"
    ).result.rows

    records = []
    for threads in THREAD_COUNTS:
        failures: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(calls_per_thread):
                    report = engine.run_cached(
                        workload["query"], method="transform"
                    )
                    _check_rows(name, "threaded", report.result.rows, reference)
            except BaseException as error:  # surface in the main thread
                failures.append(error)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        start = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start
        if failures:
            raise failures[0]
        total = threads * calls_per_thread
        records.append(
            {
                "workload": name,
                "op": "cached",
                "threads": threads,
                "iters": total,
                "qps": round(total / elapsed, 1),
                "io_delay": SCALING_IO_DELAY,
            }
        )
    return records


def _build_mixed_database(spec):
    """A live Database loaded with the generator's PARTS/SUPPLY rows.

    The generator builds a bare catalog; the mixed legs need the full
    transactional stack (WAL, MVCC snapshots, autocommit), so the rows
    are re-inserted through :class:`~repro.api.Database`.  The I/O
    delay is switched on only after loading.
    """
    from repro.api import Database

    source = build_parts_supply(spec)
    db = Database(buffer_pages=spec.buffer_pages)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", list(source.heap_of("PARTS").scan()))
    db.insert("SUPPLY", list(source.heap_of("SUPPLY").scan()))
    db.disk.io_delay = SCALING_IO_DELAY
    return db


def measure_mixed(
    mix: tuple[int, int],
    calls_per_thread: int,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> list[dict]:
    """Mixed read/write throughput of the type-JA cached path.

    Each worker interleaves cached reads with autocommitted SUPPLY
    inserts in the requested ratio (``--mix 90/10``: 9 reads per
    write).  The writes are *neutral*: the inserted PNUMs do not occur
    in PARTS, so the type-JA answer never changes and every read is
    asserted equal to the pre-write reference — the benchmark measures
    the snapshot/plan-cache machinery under write pressure without
    ever timing a wrong answer.  Commits publish new snapshots and
    flush memoized temps, so reads pay the real invalidation costs.
    """
    import math

    read_share, write_share = mix
    gcd = math.gcd(read_share, write_share)
    period = (read_share + write_share) // gcd
    writes_per_period = write_share // gcd
    name = f"mixed-{read_share}/{write_share}"
    query = WORKLOADS[2]["query"]  # type-JA: temps + memo, I/O-heavy

    records = []
    for threads in thread_counts:
        db = _build_mixed_database(SCALING_SPEC)
        reference = db.execute_cached(query, method="transform").result.rows
        failures: list[BaseException] = []
        writes_done = [0] * threads

        def worker(worker_id: int) -> None:
            try:
                base = 100_000 + worker_id * 10_000
                for call in range(calls_per_thread):
                    if call % period < writes_per_period:
                        dangling = base + call
                        db.insert(
                            "SUPPLY", [(dangling, 1, "1985-01-15")]
                        )
                        writes_done[worker_id] += 1
                    else:
                        report = db.execute_cached(
                            query, method="transform"
                        )
                        _check_rows(
                            name, "mixed", report.result.rows, reference
                        )
            except BaseException as error:  # surface in the main thread
                failures.append(error)

        pool = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads)
        ]
        start = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start
        if failures:
            raise failures[0]
        total = threads * calls_per_thread
        writes = sum(writes_done)
        records.append(
            {
                "workload": name,
                "op": "mixed",
                "threads": threads,
                "iters": total,
                "reads": total - writes,
                "writes": writes,
                "commits": db.txn.commits,
                "qps": round(total / elapsed, 1),
                "io_delay": SCALING_IO_DELAY,
            }
        )
    return records


def _qps(records: list[dict], workload: str, op: str, threads: int) -> float:
    for record in records:
        if (
            record["workload"] == workload
            and record["op"] == op
            and record["threads"] == threads
        ):
            return record["qps"]
    raise KeyError((workload, op, threads))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_throughput.py",
        description="Serving-layer throughput: cold vs cached vs prepared, "
        "plus cached-path thread scaling.",
    )
    parser.add_argument(
        "--iters", type=int, default=60,
        help="calls per single-thread leg (default 60)",
    )
    parser.add_argument(
        "--calls-per-thread", type=int, default=8,
        help="calls each worker makes in the scaling legs (default 8)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced iteration counts, no result file; fail unless the "
        "cached path is >= 1.5x cold on every workload",
    )
    parser.add_argument(
        "--witness", action="store_true",
        help="run every leg with the runtime lock witness enabled: "
        "locks created by the benchmark are wrapped, the acquisition-"
        "order graph is checked after the run, and any cycle fails the "
        "benchmark; QPS numbers then include the witness overhead",
    )
    parser.add_argument(
        "--mix", default=None, metavar="R/W",
        help="run the mixed read/write legs instead (e.g. 90/10): "
        "cached type-JA reads interleaved with autocommitted inserts "
        f"at 1/4/8 threads, written to {MIXED_OUTPUT.name}; with "
        "--smoke runs 1/4 threads and writes a .smoke.json sidecar; "
        "fails unless 4 threads beat 1",
    )
    args = parser.parse_args(argv)

    if args.witness:
        # Enable before any catalog/Database is built so the locks those
        # constructors create come out wrapped (wrapping happens at
        # creation time; import-time module locks stay plain).
        from repro.analysis.concurrency import witness

        witness.reset()
        witness.enable()

    try:
        exit_code = _main_mixed(args) if args.mix is not None else _run(args)
    finally:
        if args.witness:
            from repro.analysis.concurrency import witness

            witness.check()  # raises on any recorded order violation
            print(
                f"witness: {witness.edge_count()} lock-order edge(s) "
                "observed, 0 violations"
            )
            witness.reset()
            witness.disable()
    return exit_code


def _run(args) -> int:

    iters = 15 if args.smoke else args.iters
    calls = 3 if args.smoke else args.calls_per_thread

    records: list[dict] = []
    for workload in WORKLOADS:
        latency = measure_latency(workload, iters)
        records.extend(latency)
        by_op = {r["op"]: r for r in latency}
        print(
            f"{workload['name']}: cold {by_op['cold']['qps']} qps, "
            f"cached {by_op['cached']['qps']} qps "
            f"({by_op['cached']['qps'] / by_op['cold']['qps']:.1f}x), "
            f"prepared {by_op['prepared']['qps']} qps "
            f"({by_op['prepared']['qps'] / by_op['cold']['qps']:.1f}x)"
        )

    scaling_workload = WORKLOADS[2]  # type-JA: temps make it I/O-heavy
    scaling = measure_scaling(scaling_workload, calls)
    records.extend(scaling)
    for record in scaling:
        print(
            f"{record['workload']} [cached, io_delay={SCALING_IO_DELAY}]: "
            f"{record['threads']} thread(s) -> {record['qps']} qps"
        )

    failures = []
    if not args.witness:
        # The perf gates assume unobstructed locks; witness bookkeeping
        # shifts the cold/cached ratio, so a --witness run gates only on
        # lock-order violations (checked in main's finally block).
        for workload in WORKLOADS:
            cold = _qps(records, workload["name"], "cold", 1)
            cached = _qps(records, workload["name"], "cached", 1)
            floor = workload.get("min_speedup", 1.5)
            if cached < floor * cold:
                failures.append(
                    f"{workload['name']}: cached only {cached / cold:.2f}x "
                    f"cold (floor {floor}x)"
                )
        one = next(
            r["qps"] for r in scaling if r["threads"] == 1
        )
        eight = next(r["qps"] for r in scaling if r["threads"] == 8)
        if eight <= one:
            failures.append(
                f"thread scaling: 8 threads ({eight} qps) not faster than "
                f"1 thread ({one} qps)"
            )

    if args.smoke:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print("throughput smoke " + ("FAILED" if failures else "passed"))
        return 1 if failures else 0

    args.output.write_text(json.dumps(records, indent=2) + "\n")
    print(f"[{len(records)} records written to {args.output}]")
    if failures:
        for line in failures:
            print(f"WARN {line}", file=sys.stderr)
    return 0


def _main_mixed(args) -> int:
    """The ``--mix R/W`` entry point: mixed legs + scaling gate."""
    try:
        read_share, write_share = (
            int(part) for part in args.mix.split("/")
        )
    except ValueError:
        print(f"--mix must look like 90/10, got {args.mix!r}", file=sys.stderr)
        return 2
    if read_share <= 0 or write_share <= 0:
        print("--mix shares must both be positive", file=sys.stderr)
        return 2

    thread_counts = (1, 4) if args.smoke else THREAD_COUNTS
    calls = 20 if args.smoke else max(args.calls_per_thread, 40)
    records = measure_mixed(
        (read_share, write_share), calls, thread_counts
    )
    for record in records:
        print(
            f"{record['workload']} [cached JA reads + autocommit writes, "
            f"io_delay={SCALING_IO_DELAY}]: {record['threads']} thread(s) "
            f"-> {record['qps']} qps "
            f"({record['reads']} reads / {record['writes']} writes)"
        )

    one = next(r["qps"] for r in records if r["threads"] == 1)
    four = next(r["qps"] for r in records if r["threads"] == 4)
    failures = []
    if four <= one:
        failures.append(
            f"mixed scaling: 4 threads ({four} qps) not faster than "
            f"1 thread ({one} qps)"
        )

    output = (
        MIXED_OUTPUT.with_suffix(".smoke.json") if args.smoke
        else MIXED_OUTPUT
    )
    payload = records
    if output.exists():
        # bench_txn.py merges its recovery records into the same file;
        # keep them, replace only the mixed records.
        try:
            existing = json.loads(output.read_text())
            payload = [
                r for r in existing if r.get("op") != "mixed"
            ] + records
        except (ValueError, OSError):
            pass
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[{len(records)} mixed records written to {output}]")

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("mixed throughput " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
