"""Parallel exchange operators against their serial counterparts.

Every parallel operator's contract is *indistinguishability*: same
rows, same row order (or bag where the serial operator only promises a
bag), same output page geometry, and — the paper-facing invariant —
the same total page I/O.  The tests run each operator side by side
with its serial twin on a cold pool and compare both the results and
the ``IOStats`` deltas.  Restrict/project and the hash-join probe share
their per-batch body with the serial operator, so for those the
side-by-side run checks the *driver* (sharding, gather order, I/O
identity) and the rows are additionally checked against something that
shares no code with either: literal expected rows, the nested-loop
join.  3VL corners (SUM over an empty group is NULL, COUNT is 0) are
checked explicitly because the parallel aggregate's merge step is
exactly where a naive implementation would lose them.
"""

from collections import Counter

import pytest

from repro.engine.aggregate import AggSpec
from repro.engine.exchange import in_worker, run_tasks
from repro.engine.operators import (
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    nested_loop_join,
    restrict_project,
)
from repro.engine.parallel import (
    parallel_distinct,
    parallel_group_aggregate,
    parallel_hash_join,
    parallel_restrict_project,
)
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.sql.ast import ColumnRef, Comparison
from repro.sql.parser import parse_expression
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
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


ROWS = [(i % 7, i, None if i % 5 == 0 else i * 2) for i in range(200)]


class TestExchange:
    def test_ordered_gather(self):
        assert run_tasks([lambda i=i: i * i for i in range(20)]) == [
            i * i for i in range(20)
        ]

    def test_empty_and_single(self):
        assert run_tasks([]) == []
        assert run_tasks([lambda: 41]) == [41]

    def test_first_exception_wins_and_all_settle(self):
        settled = []

        def ok(i):
            settled.append(i)
            return i

        def boom():
            raise ValueError("shard failed")

        with pytest.raises(ValueError, match="shard failed"):
            run_tasks([lambda: ok(0), boom, lambda: ok(2)])
        assert sorted(settled) == [0, 2]

    def test_nested_calls_run_inline(self):
        """A task that itself fans out must not deadlock the fixed pool:
        nested run_tasks calls execute inline on the worker thread."""

        def outer():
            assert in_worker()
            return run_tasks([lambda: in_worker() for _ in range(4)])

        results = run_tasks([outer, outer])
        assert results == [[True] * 4, [True] * 4]
        assert not in_worker()

    def test_bound_params_visible_in_workers(self):
        """Bind-parameter values live in a ContextVar; the exchange must
        copy the submitting context into every pool task or cached
        parameterized plans break under parallelism."""
        from repro.engine.params import bound_params, param_value

        with bound_params((7, "x")):
            assert run_tasks(
                [lambda: param_value(0) for _ in range(4)]
            ) == [7] * 4

    def test_width_one_is_serial(self):
        assert run_tasks([lambda: in_worker() for _ in range(3)], width=1) == [
            False,
            False,
            False,
        ]


class TestParallelRestrictProject:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("parallelism", [2, 3, 8])
    def test_matches_serial_rows_and_io(self, mode, parallelism):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A", "B", "C"], ROWS)
        predicate = parse_expression("A < 5")
        projections = [
            (parse_expression("B"), "T", "B"),
            (parse_expression("C"), "T", "C"),
        ]

        with evaluation(mode):
            cold(buffer)
            serial = restrict_project(
                source, buffer, predicate=predicate, projections=projections
            )
            serial_rows = serial.to_list()
            serial_io = buffer.stats()

            cold(buffer)
            parallel = parallel_restrict_project(
                source,
                buffer,
                predicate=predicate,
                projections=projections,
                parallelism=parallelism,
            )
            parallel_rows = parallel.to_list()
            parallel_io = buffer.stats()

        assert parallel_rows == [(b, c) for a, b, c in ROWS if a < 5]
        assert parallel_rows == serial_rows  # order preserved, not just bag
        assert parallel.num_pages == serial.num_pages
        assert parallel_io.page_ios == serial_io.page_ios

    def test_empty_source(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [])
        out = parallel_restrict_project(source, buffer, parallelism=4)
        assert out.to_list() == []

    def test_single_row(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [(1,)])
        out = parallel_restrict_project(source, buffer, parallelism=4)
        assert out.to_list() == [(1,)]


class TestParallelHashJoin:
    LEFT = [(i % 11, i) for i in range(150)] + [(None, -1), (None, -2)]
    RIGHT = [(i % 13, i * 10) for i in range(90)] + [(None, -3)]

    @pytest.mark.parametrize("mode", ["inner", "left"])
    @pytest.mark.parametrize("null_safe", [False, True])
    def test_matches_serial(self, mode, null_safe):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], self.LEFT)
        right = rel(buffer, "R", ["K", "W"], self.RIGHT)

        cold(buffer)
        serial = hash_join(
            left, right, buffer, [0], [0], mode=mode, null_safe=null_safe
        )
        serial_rows = serial.to_list()
        serial_io = buffer.stats()

        cold(buffer)
        parallel = parallel_hash_join(
            left,
            right,
            buffer,
            [0],
            [0],
            mode=mode,
            null_safe=null_safe,
            parallelism=4,
        )
        parallel_rows = parallel.to_list()
        parallel_io = buffer.stats()

        assert parallel_rows == serial_rows
        assert parallel_io.page_ios == serial_io.page_ios
        key = Comparison(
            ColumnRef("L", "K"), "=", ColumnRef("R", "K"), null_safe=null_safe
        )
        loop = nested_loop_join(left, right, buffer, predicate=key, mode=mode)
        assert parallel_rows == loop.to_list()

    def test_residual_is_part_of_join_condition(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], self.LEFT)
        right = rel(buffer, "R", ["K", "W"], self.RIGHT)

        def residual(row):
            return row[1] % 2 == 0

        cold(buffer)
        serial = hash_join(
            left, right, buffer, [0], [0], mode="left", residual=residual
        ).to_list()
        cold(buffer)
        parallel = parallel_hash_join(
            left,
            right,
            buffer,
            [0],
            [0],
            mode="left",
            residual=residual,
            parallelism=3,
        ).to_list()
        assert parallel == serial

    def test_skewed_probe_side(self):
        """Every probe row carries the same hot key: one shard does all
        the matching, the others pad/drop — output must not change."""
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, i) for i in range(120)])
        right = rel(buffer, "R", ["K", "W"], [(1, 10), (2, 20)])
        cold(buffer)
        serial = hash_join(left, right, buffer, [0], [0]).to_list()
        cold(buffer)
        parallel = parallel_hash_join(
            left, right, buffer, [0], [0], parallelism=5
        ).to_list()
        assert parallel == serial
        assert len(parallel) == 120


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

        cold(buffer)
        serial = hash_group_aggregate(source, buffer, [0], specs, names)
        serial_rows = serial.to_list()
        serial_io = buffer.stats()

        cold(buffer)
        parallel = parallel_group_aggregate(
            source, buffer, [0], specs, names, parallelism=4
        )
        parallel_rows = parallel.to_list()
        parallel_io = buffer.stats()

        # First-appearance group order, exactly like the hash aggregate.
        assert parallel_rows == serial_rows
        assert parallel_io.page_ios == serial_io.page_ios

    def test_sum_of_empty_group_is_null_count_is_zero(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G", "A"], [])
        specs = [AggSpec("SUM", 1), AggSpec("COUNT", 1)]
        names = [(None, "S"), (None, "C")]
        out = parallel_group_aggregate(
            source, buffer, [], specs, names, always_emit=True, parallelism=4
        )
        assert out.to_list() == [(None, 0)]

    def test_all_null_inputs(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G", "A"], [(1, None), (1, None)])
        out = parallel_group_aggregate(
            source,
            buffer,
            [0],
            [AggSpec("SUM", 1), AggSpec("COUNT", 1), AggSpec("COUNT", None)],
            [(None, "G"), (None, "S"), (None, "C"), (None, "STAR")],
            parallelism=2,
        )
        assert out.to_list() == [(1, None, 0, 2)]

    def test_group_spanning_all_shards(self):
        """One group's rows are scattered over every shard; the merge
        must concatenate them in scan order before finalizing."""
        buffer = make_buffer()
        rows = [(0, i) for i in range(97)]
        source = rel(buffer, "T", ["G", "A"], rows)
        out = parallel_group_aggregate(
            source,
            buffer,
            [0],
            [AggSpec("COUNT", None), AggSpec("SUM", 1)],
            [(None, "G"), (None, "C"), (None, "S")],
            parallelism=8,
        )
        assert out.to_list() == [(0, 97, sum(range(97)))]


class TestParallelDistinct:
    def test_matches_serial(self):
        buffer = make_buffer()
        rows = [(i % 9, i % 3) for i in range(150)] + [(None, None)] * 4
        source = rel(buffer, "T", ["A", "B"], rows)

        cold(buffer)
        serial = hash_distinct(source, buffer)
        serial_rows = serial.to_list()
        serial_io = buffer.stats()

        cold(buffer)
        parallel = parallel_distinct(source, buffer, parallelism=4)
        parallel_rows = parallel.to_list()
        parallel_io = buffer.stats()

        assert parallel_rows == serial_rows  # first-appearance order
        assert parallel_io.page_ios == serial_io.page_ios

    def test_all_duplicates(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [(7,)] * 100)
        out = parallel_distinct(source, buffer, parallelism=6)
        assert out.to_list() == [(7,)]


class TestEngineLevelEquivalence:
    """End-to-end: a parallel engine with threshold 0 must agree with
    the serial engine on rows *and* page I/O for the transformed plans."""

    @pytest.mark.parametrize("mode", MODES)
    def test_figure1_queries(self, mode):
        from repro.bench.harness import measure
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
        for query in (GENERATED_N_QUERY, GENERATED_J_QUERY, GENERATED_JA_QUERY):
            with evaluation(mode):
                catalog = build_parts_supply(spec)
                serial = measure(catalog, query, "transform", join_method="hash")
                catalog = build_parts_supply(spec)
                parallel = measure(
                    catalog, query, "transform", join_method="hash",
                    parallelism=4, parallel_threshold=0,
                )
            assert Counter(parallel.rows) == Counter(serial.rows)
            assert parallel.page_ios == serial.page_ios
