"""The physical operators run by concurrent clients.

A query runs on the thread that issued it, but serving threads run
their queries at once over one buffer pool, and so over the same heap
relations, compiled kernels and build tables.  Each test runs one
operator alone on a cold pool, then on several client threads at once
over the same inputs, and demands:

* every client's rows equal the lone run's — order included, not just
  the bag — and a reference that shares no code with the operator
  (literal rows, the nested-loop join) where one exists;
* every client's output has the lone run's page geometry;
* the clients together read from disk exactly the pages the lone run
  read: the pool holds the working set, and concurrent misses on one
  page fault it in once.

3VL corners (SUM over an empty group is NULL, COUNT is 0) are checked
explicitly.
"""

from collections import Counter

import pytest

from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    group_aggregate,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    nested_loop_join,
    restrict_project,
)
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.sql.ast import ColumnRef, Comparison
from repro.sql.parser import parse_expression
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from tests.clients import run_clients
from tests.evaluation import MODES, evaluation


def make_buffer(capacity=256):
    return BufferPool(DiskManager(), capacity=capacity)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    schema = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(
        schema, rows, buffer, rows_per_page=rows_per_page
    )


def cold(buffer):
    buffer.evict_all()
    buffer.reset_stats()


def alone_and_together(buffer, clients, operator):
    """Run ``operator()`` alone, then on ``clients`` threads at once,
    each from a cold pool and each storing the stream it returns (an
    operator reads nothing until pulled); check geometry and page
    reads, and return the lone rows and every client's rows."""
    stream = operator
    operator = lambda: stream().store(buffer)  # noqa: E731
    cold(buffer)
    alone = operator()
    alone_rows = alone.to_list()
    alone_reads = buffer.stats().page_reads

    cold(buffer)
    outputs = run_clients(clients, operator)
    together_reads = buffer.stats().page_reads
    assert [out.num_pages for out in outputs] == [alone.num_pages] * clients
    assert together_reads == alone_reads
    return alone_rows, [out.to_list() for out in outputs]


ROWS = [(i % 7, i, None if i % 5 == 0 else i * 2) for i in range(200)]


class TestParallelRestrictProject:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("clients", [2, 3, 8])
    def test_matches_serial_rows_and_io(self, mode, clients):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A", "B", "C"], ROWS)
        predicate = parse_expression("A < 5")
        projections = [
            (parse_expression("B"), "T", "B"),
            (parse_expression("C"), "T", "C"),
        ]

        with evaluation(mode):
            alone, together = alone_and_together(
                buffer,
                clients,
                lambda: restrict_project(
                    source, predicate=predicate, projections=projections
                ),
            )

        assert alone == [(b, c) for a, b, c in ROWS if a < 5]
        assert together == [alone] * clients  # order preserved, not just bag

    def test_empty_source(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [])
        outputs = run_clients(4, lambda: restrict_project(source))
        assert [out.to_list() for out in outputs] == [[]] * 4

    def test_single_row(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [(1,)])
        outputs = run_clients(4, lambda: restrict_project(source))
        assert [out.to_list() for out in outputs] == [[(1,)]] * 4


class TestParallelHashJoin:
    LEFT = [(i % 11, i) for i in range(150)] + [(None, -1), (None, -2)]
    RIGHT = [(i % 13, i * 10) for i in range(90)] + [(None, -3)]

    @pytest.mark.parametrize("mode", ["inner", "left"])
    @pytest.mark.parametrize("null_safe", [False, True])
    def test_matches_serial(self, mode, null_safe):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], self.LEFT)
        right = rel(buffer, "R", ["K", "W"], self.RIGHT)

        alone, together = alone_and_together(
            buffer,
            4,
            lambda: hash_join(
                left, right, [0], [0], mode=mode, null_safe=null_safe
            ),
        )

        assert together == [alone] * 4
        key = Comparison(
            ColumnRef("L", "K"), "=", ColumnRef("R", "K"), null_safe=null_safe
        )
        loop = nested_loop_join(left, right, predicate=key, mode=mode)
        assert alone == loop.to_list()

    def test_residual_is_part_of_join_condition(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], self.LEFT)
        right = rel(buffer, "R", ["K", "W"], self.RIGHT)

        def residual(row):
            return row[1] % 2 == 0

        alone, together = alone_and_together(
            buffer,
            3,
            lambda: hash_join(
                left, right, [0], [0], mode="left", residual=residual
            ),
        )
        assert together == [alone] * 3
        unmatched = [row for row in alone if row[2:] == (None, None)]
        assert {row[:2] for row in unmatched} >= {
            row for row in self.LEFT if row[1] % 2
        }

    def test_skewed_probe_side(self):
        """Every probe row carries the same hot key: one build chain
        does all the matching for every client."""
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, i) for i in range(120)])
        right = rel(buffer, "R", ["K", "W"], [(1, 10), (2, 20)])
        alone, together = alone_and_together(
            buffer, 5, lambda: hash_join(left, right, [0], [0])
        )
        assert together == [alone] * 5
        assert alone == [(1, i, 1, 10) for i in range(120)]


class TestParallelAggregate:
    def test_grouped_matches_hash_aggregate(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G", "A", "B"], ROWS)
        specs = [
            AggSpec("COUNT", None),
            AggSpec("SUM", 2),
            AggSpec("MAX", 1),
            AggSpec("COUNT", 2),
        ]
        names = [(None, n) for n in ("G", "CNT", "S", "M", "C2")]

        alone, together = alone_and_together(
            buffer,
            4,
            lambda: hash_group_aggregate(source, [0], specs, names),
        )

        # First-appearance group order, for every client.
        assert together == [alone] * 4
        assert [row[0] for row in alone] == list(range(7))
        assert alone[0] == (
            0,
            29,
            sum(c for a, b, c in ROWS if a == 0 and c is not None),
            max(b for a, b, c in ROWS if a == 0),
            sum(1 for a, b, c in ROWS if a == 0 and c is not None),
        )

    def test_sum_of_empty_group_is_null_count_is_zero(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G", "A"], [])
        specs = [AggSpec("SUM", 1), AggSpec("COUNT", 1)]
        names = [(None, "S"), (None, "C")]
        outputs = run_clients(
            4,
            lambda: group_aggregate(
                source, [], specs, names, always_emit=True
            ),
        )
        assert [out.to_list() for out in outputs] == [[(None, 0)]] * 4

    def test_all_null_inputs(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G", "A"], [(1, None), (1, None)])
        outputs = run_clients(
            2,
            lambda: hash_group_aggregate(
                source,
                [0],
                [AggSpec("SUM", 1), AggSpec("COUNT", 1), AggSpec("COUNT", None)],
                [(None, "G"), (None, "S"), (None, "C"), (None, "STAR")],
            ),
        )
        assert [out.to_list() for out in outputs] == [[(1, None, 0, 2)]] * 2

    def test_group_spanning_all_shards(self):
        """One group's rows span every page of the input."""
        buffer = make_buffer()
        rows = [(0, i) for i in range(97)]
        source = rel(buffer, "T", ["G", "A"], rows)
        alone, together = alone_and_together(
            buffer,
            8,
            lambda: hash_group_aggregate(
                source,
                [0],
                [AggSpec("COUNT", None), AggSpec("SUM", 1)],
                [(None, "G"), (None, "C"), (None, "S")],
            ),
        )
        assert together == [alone] * 8
        assert alone == [(0, 97, sum(range(97)))]


class TestParallelDistinct:
    def test_matches_serial(self):
        buffer = make_buffer()
        rows = [(i % 9, i % 3) for i in range(150)] + [(None, None)] * 4
        source = rel(buffer, "T", ["A", "B"], rows)

        alone, together = alone_and_together(
            buffer, 4, lambda: hash_distinct(source)
        )

        assert together == [alone] * 4
        assert alone == list(dict.fromkeys(rows))  # first-appearance order

    def test_all_duplicates(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [(7,)] * 100)
        outputs = run_clients(6, lambda: hash_distinct(source))
        assert [out.to_list() for out in outputs] == [[(7,)]] * 6


class TestEngineLevelEquivalence:
    """End-to-end: four clients running the transformed plans of the
    figure-1 queries at once over one catalog get the lone run's bag,
    and read its pages once between them."""

    @pytest.mark.parametrize("mode", MODES)
    def test_figure1_queries(self, mode):
        from repro.core.pipeline import Engine
        from repro.workloads.generators import (
            GENERATED_J_QUERY,
            GENERATED_JA_QUERY,
            GENERATED_N_QUERY,
            PartsSupplySpec,
            build_parts_supply,
        )

        spec = PartsSupplySpec(
            num_parts=60,
            num_supply=400,
            rows_per_page=8,
            buffer_pages=512,
            seed=9,
        )
        catalog = build_parts_supply(spec)
        engine = Engine(catalog, join_method="hash")
        for query in (GENERATED_N_QUERY, GENERATED_J_QUERY, GENERATED_JA_QUERY):
            with evaluation(mode):
                cold(catalog.buffer)
                alone = engine.run(query, method="transform")
                cold(catalog.buffer)
                together = run_clients(
                    4, lambda: engine.run(query, method="transform")
                )
                reads = catalog.buffer.stats().page_reads
            for report in together:
                assert Counter(report.result.rows) == Counter(alone.result.rows)
            assert reads == alone.io.page_reads
