"""Multi-query-optimization benchmark: sharing + batched bindings.

Two legs, both timed end-to-end and both correctness-checked against
SQLite before any number is reported:

* **shared replay** — a seeded mixed workload (many outer query shapes
  over few inner temp chains, interleaved with committed inserts that
  purge every shared temp) replayed through the plan cache: the first
  plan to need a chain builds it and the rest lease it.  The gate
  demands >= 30% of temp installs served from the registry.  (What
  sharing buys in time is ``serve.shared_hits_per_stmt`` /
  ``serve.temp_builds_per_replay`` on ``serve_hot`` in
  ``benchmarks/suite``; there is no sharing-off path left to time.)

* **batched executemany** — one type-JA prepared statement executed
  over N distinct parameter vectors, per-vector loop vs the batched
  binding-relation plan (:mod:`repro.serve.batch`).  Distinct values
  defeat the registry, so the loop rebuilds the temp chain N times
  while the batched plan builds once.  The gate is on that count (it
  repeats exactly): at N = 256 the loop builds >= 64x the batch's temps.
  The wall-clock ratio is only reported — any speed-up of one replay,
  the loop's unit, shrinks it though the batch saves what it always did.

Results land in ``BENCH_PR10.json``:

    PYTHONPATH=src python benchmarks/bench_mqo.py

``--smoke`` runs a reduced replay (the batch leg keeps N = 256 — the
gate is defined there), writes a ``.smoke.json`` sidecar, and exits
non-zero unless every gate holds; CI runs it as the ``mqo-smoke`` job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from random import Random

from repro.core.pipeline import Engine
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.serve.cache import PlanCache
from repro.workloads.generators import PartsSupplySpec, build_parts_supply

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR10.json"

#: Gates (CI `mqo-smoke`): the loop's temp builds per batched one,
#: minimum fraction of temp installs served from the registry.
MIN_BUILDS_SAVED = 64
MIN_SHARED_FRACTION = 0.30

#: Inner-chain cutoffs: 3 chains x 3 outer shapes = 9 plans over 3
#: chains, each rebuilt once after every purge.
CUTOFFS = ("1978-06-01", "1982-01-01", "1986-06-01")

REPLAY_SPEC = PartsSupplySpec(
    num_parts=100, num_supply=1200, rows_per_page=10, buffer_pages=64, seed=11
)
#: Writes are interleaved this often; each one purges every registry
#: entry (data events purge eagerly).
WRITE_EVERY = 25

BATCH_SPEC = PartsSupplySpec(
    num_parts=50, num_supply=300, rows_per_page=10, buffer_pages=32, seed=23
)
BATCH_QUERY = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
)


def replay_pool() -> list[str]:
    """Nine type-JA shapes (3 outer blocks x 3 chains) plus a flat join."""
    pool: list[str] = []
    for cutoff in CUTOFFS:
        inner = (
            "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
            f"WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '{cutoff}')"
        )
        pool.extend(
            [
                f"SELECT PNUM FROM PARTS WHERE QOH = {inner}",
                f"SELECT PNUM, QOH FROM PARTS WHERE QOH >= {inner}",
                f"SELECT QOH FROM PARTS WHERE QOH < {inner}",
            ]
        )
    pool.append(
        "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
        "WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.QUAN > 2"
    )
    return pool


def _replay_events(queries: int, seed: int) -> list[tuple[str, object]]:
    """The deterministic event sequence of the replay."""
    rng = Random(seed)
    pool = replay_pool()
    events: list[tuple[str, object]] = []
    for step in range(queries):
        if step % WRITE_EVERY == WRITE_EVERY - 1:
            # A dangling-PNUM shipment: purges the registry without
            # perturbing any pool answer (no PARTS row matches).
            events.append(
                ("write", (9000 + step, rng.randrange(0, 6), "2050-01-01"))
            )
        else:
            events.append(("query", rng.choice(pool)))
    return events


def measure_replay(queries: int, seed: int = 0) -> tuple[dict, list[str]]:
    """The shared-replay leg: one event sequence through the plan cache."""
    events = _replay_events(queries, seed)
    query_count = sum(1 for kind, _ in events if kind == "query")
    catalog = build_parts_supply(REPLAY_SPEC)
    cache = PlanCache()
    cache.attach(catalog)
    engine = Engine(catalog, plan_cache=cache)

    shared = built = 0
    start = time.perf_counter()
    for kind, payload in events:
        if kind == "write":
            catalog.insert("SUPPLY", [payload])
            continue
        report = engine.run_cached(payload, method="transform")
        for step in report.steps:
            shared += step.startswith("shared ")
            built += step.startswith("built ")
    elapsed = time.perf_counter() - start

    failures: list[str] = []
    # End-state correctness: every pool shape, cached vs uncached vs
    # SQLite over the final (post-write) contents.
    with SQLiteOracle(catalog) as oracle:
        for sql in replay_pool():
            ours = normalize_rows(
                engine.run_cached(sql, method="transform").result.rows
            )
            if ours != normalize_rows(oracle.run(sql)):
                failures.append(f"replay: run_cached diverged from SQLite: {sql}")
            if ours != normalize_rows(engine.run(sql).result.rows):
                failures.append(f"replay: run_cached diverged from run: {sql}")

    stats = cache.stats()
    record = {
        "workload": "mqo-shared-replay",
        "op": "replay",
        "queries": query_count,
        "writes": len(events) - query_count,
        "shared_fraction": round(shared / max(1, shared + built), 3),
        "cross_query_hits": stats.shared_hits,
        "shared_materializations": stats.shared_materializations,
        "shared_purges": stats.shared_purges,
        "shared_qps": round(query_count / elapsed, 1),
    }
    return record, failures


def measure_batched(batch: int, seed: int = 0) -> tuple[dict, list[str]]:
    """The batched-bindings leg: executemany vs the per-vector loop."""
    catalog = build_parts_supply(BATCH_SPEC)
    cache = PlanCache()
    cache.attach(catalog)
    engine = Engine(catalog, plan_cache=cache)
    statement = engine.prepare(BATCH_QUERY)
    vectors = [
        (f"19{70 + i % 20}-{1 + (i // 20) % 12:02d}-{10 + i // 240:02d}",)
        for i in range(batch)
    ]
    assert len(set(vectors)) == batch  # distinct values defeat the registry

    failures: list[str] = []
    batch_report = statement.execute_batch(vectors)
    if batch_report.strategy != "batched":
        failures.append("batched leg fell back to the loop strategy")
    looped = [statement.execute(vector) for vector in vectors]

    def builds(reports) -> int:
        return sum(s.startswith("built ") for r in reports for s in r.steps)

    for vector, one, many in zip(vectors, looped, batch_report.reports):
        if normalize_rows(one.result.rows) != normalize_rows(many.result.rows):
            failures.append(f"batched != looped for vector {vector}")
            break
    with SQLiteOracle(catalog) as oracle:
        probe = vectors[7]
        oracle_rows = oracle.run(BATCH_QUERY.replace("?", f"'{probe[0]}'"))
        if normalize_rows(batch_report.reports[7].result.rows) != (
            normalize_rows(oracle_rows)
        ):
            failures.append(f"batched diverged from SQLite for {probe}")

    start = time.perf_counter()
    statement.executemany(vectors)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    for vector in vectors:
        statement.execute(vector)
    loop_s = time.perf_counter() - start

    record = {
        "workload": "mqo-batched-executemany",
        "op": "executemany",
        "batch": batch,
        "batched_temp_builds": builds(batch_report.reports),
        "loop_temp_builds": builds(looped),
        "batched_qps": round(batch / batched_s, 1),
        "loop_qps": round(batch / loop_s, 1),
        "speedup": round(loop_s / batched_s, 2),
    }
    return record, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_mqo.py",
        description="Multi-query optimization: shared replay and "
        "batched executemany vs the per-vector loop.",
    )
    parser.add_argument(
        "--queries", type=int, default=1000,
        help="replay events for the sharing leg (default 1000)",
    )
    parser.add_argument(
        "--batch", type=int, default=256,
        help="parameter vectors for the batched leg (default 256)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result file (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced replay, .smoke.json sidecar; fail unless the "
        f"shared replay leases >= {100 * MIN_SHARED_FRACTION:.0f}% of "
        "its temp installs and the per-vector loop builds >= "
        f"{MIN_BUILDS_SAVED}x the temps batched executemany does",
    )
    args = parser.parse_args(argv)

    queries = 300 if args.smoke else args.queries
    replay_record, failures = measure_replay(queries, seed=args.seed)
    batch_record, batch_failures = measure_batched(args.batch, seed=args.seed)
    failures.extend(batch_failures)
    records = [replay_record, batch_record]

    if replay_record["shared_fraction"] < MIN_SHARED_FRACTION:
        failures.append(
            f"shared fraction {replay_record['shared_fraction']} "
            f"< {MIN_SHARED_FRACTION}"
        )
    loop, batched = (batch_record[f"{k}_temp_builds"] for k in ("loop", "batched"))
    if loop < MIN_BUILDS_SAVED * batched:
        failures.append(
            f"the loop built {loop} temps, the batch {batched}: "
            f"< {MIN_BUILDS_SAVED}x"
        )

    output = (
        args.output.with_suffix(".smoke.json") if args.smoke else args.output
    )
    output.write_text(json.dumps(records, indent=2) + "\n")
    for record in records:
        print(json.dumps(record))
    print(f"wrote {output}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("mqo " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0
