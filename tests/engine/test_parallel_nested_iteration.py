"""Nested iteration run by concurrent clients.

A query runs on the thread that issued it, and each run builds its own
:class:`NestedIterationExecutor` (its memo is a plain dict, owned by
that one query).  Serving threads still run such queries at once over
one catalog and buffer pool, so every client must get the lone run's
rows in scan order, and the clients together must read from disk
exactly the pages the lone run read: the pool holds the working set,
and concurrent misses on one page fault it in once.
"""

import threading
from collections import Counter

import pytest

from repro.engine.nested_iteration import NestedIterationExecutor
from repro.sql.parser import parse
from repro.workloads.generators import (
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)
from tests.clients import run_clients

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


def run_ni(query, clients, catalog=None):
    """Every client's result and the page reads of all of them, cold."""
    catalog = catalog or build_parts_supply(SPEC)
    catalog.buffer.evict_all()
    catalog.buffer.reset_stats()
    results = run_clients(
        clients,
        lambda: NestedIterationExecutor(catalog).execute(parse(query)),
    )
    return results, catalog.buffer.stats().page_reads


class TestParallelOuterLoop:
    @pytest.mark.parametrize(
        "query", [GENERATED_JA_QUERY, GENERATED_N_QUERY, CORRELATED_EXISTS]
    )
    @pytest.mark.parametrize("clients", [2, 4])
    def test_rows_and_io_match_serial(self, query, clients):
        (serial,), serial_reads = run_ni(query, 1)
        together, reads = run_ni(query, clients)
        # Scan order, not just the bag, for every client.
        assert [result.rows for result in together] == [serial.rows] * clients
        assert reads == serial_reads

    def test_parallelism_beyond_pages_and_rows(self):
        """More clients than the instance has pages or rows."""
        tiny = PartsSupplySpec(
            num_parts=3, num_supply=5, rows_per_page=8, buffer_pages=32,
            seed=2,
        )
        catalog = build_parts_supply(tiny)
        (serial,), _ = run_ni(GENERATED_JA_QUERY, 1, catalog=catalog)
        together, _ = run_ni(GENERATED_JA_QUERY, 16, catalog=catalog)
        assert [result.rows for result in together] == [serial.rows] * 16


class TestResultBags:
    def test_parallel_ni_agrees_with_transform(self):
        """Cross-method check: nested iteration and the transformed
        plan, run by clients at once over one catalog, answer the same
        question."""
        from repro.core.pipeline import Engine

        catalog = build_parts_supply(SPEC)
        engine = Engine(catalog, join_method="hash")
        query = parse(GENERATED_JA_QUERY)
        nested = []
        client = threading.Thread(
            target=lambda: nested.append(
                NestedIterationExecutor(catalog).execute(query)
            )
        )
        client.start()
        transformed = engine.run(query, method="transform")
        client.join(timeout=120)
        assert not client.is_alive()
        assert Counter(nested[0].rows) == Counter(transformed.result.rows)
