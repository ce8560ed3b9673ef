"""Parallel nested iteration: sharded outer loops, thread-safe memos.

The nested-iteration executor parallelizes only its *outer* loop —
workers evaluate the full WHERE (correlated subqueries included) over
disjoint page shards of the outer table, and the ordered gather keeps
System R's scan-order semantics.  What makes that safe is the
single-flight memoization in this PR: concurrent lookups of the same
correlated-subquery key (or the same uncorrelated scalar/column cache
entry) block on one computation instead of racing, so a parallel run
computes — and charges I/O for — exactly what the serial run does.

The ``-m stress`` hammer runs the same correlated query under an
8-way outer loop repeatedly; it exists to catch lost-update and
double-compute races that a single lucky interleaving would miss.
"""

import threading
from collections import Counter

import pytest

from repro.config import ExecConfig
from repro.engine.nested_iteration import NestedIterationExecutor
from repro.sql.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads.generators import (
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

SPEC = PartsSupplySpec(
    num_parts=80,
    num_supply=320,
    rows_per_page=8,
    buffer_pages=512,
    seed=13,
)

CORRELATED_EXISTS = """
    SELECT PNUM FROM PARTS
    WHERE EXISTS (SELECT * FROM SUPPLY
                  WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 3)
"""


def run_ni(query, parallelism, catalog=None):
    catalog = catalog or build_parts_supply(SPEC)
    catalog.buffer.evict_all()
    catalog.buffer.reset_stats()
    executor = NestedIterationExecutor(
        catalog, ExecConfig(parallelism=parallelism, parallel_threshold=0)
    )
    result = executor.execute(parse(query))
    return result, catalog.buffer.stats()


class TestParallelOuterLoop:
    @pytest.mark.parametrize(
        "query", [GENERATED_JA_QUERY, GENERATED_N_QUERY, CORRELATED_EXISTS]
    )
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_rows_and_io_match_serial(self, query, parallelism):
        serial, serial_io = run_ni(query, 1)
        parallel, parallel_io = run_ni(query, parallelism)
        # Ordered gather: row order, not just the bag, must survive.
        assert parallel.rows == serial.rows
        # Single-flight memoization: a racing double-compute of the
        # materialized uncorrelated column cache would write (and then
        # read) an extra temp — page I/O is where that race is visible.
        assert parallel_io.page_ios == serial_io.page_ios

    def test_parallelism_beyond_pages_and_rows(self):
        tiny = PartsSupplySpec(
            num_parts=3, num_supply=5, rows_per_page=8, buffer_pages=32,
            seed=2,
        )
        serial, _ = run_ni(
            GENERATED_JA_QUERY, 1, catalog=build_parts_supply(tiny)
        )
        parallel, _ = run_ni(
            GENERATED_JA_QUERY, 16, catalog=build_parts_supply(tiny)
        )
        assert parallel.rows == serial.rows


class TestMemoHammer:
    @pytest.mark.stress
    def test_eight_way_correlated_memo_hammer(self):
        """Repeated 8-way parallel runs of a correlated aggregate must
        stay bit-identical to serial — a lost memo update or a
        double-computed entry shows up as row or I/O drift."""
        serial, serial_io = run_ni(GENERATED_JA_QUERY, 1)
        for _ in range(8):
            parallel, parallel_io = run_ni(GENERATED_JA_QUERY, 8)
            assert parallel.rows == serial.rows
            assert parallel_io.page_ios == serial_io.page_ios

    @pytest.mark.stress
    def test_shared_executor_concurrent_queries(self):
        """Eight threads drive the *same* executor instance: the memo
        and its single-flight pending entries are shared state."""
        catalog = build_parts_supply(SPEC)
        executor = NestedIterationExecutor(
            catalog, ExecConfig(parallelism=2, parallel_threshold=0)
        )
        expected = executor.execute(parse(CORRELATED_EXISTS)).rows
        start = threading.Barrier(8, timeout=30)
        failures: list[BaseException] = []
        results: list[list] = []
        lock = threading.Lock()

        def worker():
            try:
                start.wait()
                rows = executor.execute(parse(CORRELATED_EXISTS)).rows
                with lock:
                    results.append(rows)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        assert len(results) == 8
        for rows in results:
            assert rows == expected


class TestBufferCounterAtomicity:
    @pytest.mark.stress
    def test_hits_plus_reads_account_for_every_access(self):
        """8 threads x 2000 get_page calls with no eviction pressure:
        every access is exactly one hit or one disk read, so the
        counters must sum to the access count (no lost updates)."""
        buffer = BufferPool(DiskManager(), capacity=64)
        pages = [buffer.new_page(4).page_id for _ in range(16)]
        for page_id in pages:
            buffer.flush_page(page_id)
        buffer.evict_all()
        buffer.reset_stats()

        per_thread = 2000
        start = threading.Barrier(8, timeout=30)
        failures: list[BaseException] = []

        def worker(seed):
            try:
                start.wait()
                for i in range(per_thread):
                    buffer.get_page(pages[(seed + i) % len(pages)])
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        stats = buffer.stats()
        assert stats.buffer_hits + stats.page_reads == 8 * per_thread
        # All 16 pages stayed resident, so reads happened once per page.
        assert stats.page_reads == len(pages)


class TestResultBags:
    def test_parallel_ni_agrees_with_transform(self):
        """Cross-method check: the parallel outer loop and the serial
        transformed plan answer the same question."""
        from repro.core.pipeline import Engine

        catalog = build_parts_supply(SPEC)
        engine = Engine(
            catalog, join_method="hash", parallelism=4, parallel_threshold=0
        )
        transformed = engine.run(GENERATED_JA_QUERY, method="transform")
        parallel, _ = run_ni(GENERATED_JA_QUERY, 4, catalog=catalog)
        assert Counter(parallel.rows) == Counter(transformed.result.rows)
