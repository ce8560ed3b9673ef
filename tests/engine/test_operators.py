"""Tests for physical operators: scans, restrict/project, joins, grouping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    group_aggregate,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    merge_join,
    nested_loop_join,
    restrict_project,
    scan_table,
)
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.errors import ExecutionError
from repro.sql.parser import parse_expression
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads.paper_data import load_kiessling_instance


def make_env(buffer_pages=8):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=buffer_pages)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    schema = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(schema, rows, buffer, rows_per_page=rows_per_page)


class TestScanTable:
    def test_scan_reads_table_with_binding(self):
        catalog = load_kiessling_instance()
        relation = scan_table(catalog.get("PARTS"))
        assert relation.schema.qualified_names() == ["PARTS.PNUM", "PARTS.QOH"]
        assert relation.to_list() == [(3, 6), (10, 1), (8, 0)]

    def test_scan_with_alias_binding(self):
        catalog = load_kiessling_instance()
        relation = scan_table(catalog.get("PARTS"), binding="X")
        assert relation.schema.qualified_names() == ["X.PNUM", "X.QOH"]


class TestRestrictProject:
    def test_identity(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["A"], [(1,), (2,)])
        out = restrict_project(source)
        assert out.to_list() == [(1,), (2,)]
        assert out.schema == source.schema

    def test_restriction(self):
        _, buffer = make_env()
        source = rel(buffer, "SUPPLY", ["PNUM", "SHIPDATE"],
                     [(3, "1979-07-03"), (10, "1981-08-10")])
        predicate = parse_expression("SHIPDATE < '1980-01-01'")
        out = restrict_project(source, predicate=predicate)
        assert out.to_list() == [(3, "1979-07-03")]

    def test_projection_renames(self):
        _, buffer = make_env()
        source = rel(buffer, "SUPPLY", ["PNUM", "QUAN"], [(3, 4), (10, 1)])
        projections = [(parse_expression("SUPPLY.PNUM"), "TEMP2", "PNUM")]
        out = restrict_project(source, projections=projections, name="TEMP2")
        assert out.schema.qualified_names() == ["TEMP2.PNUM"]
        assert out.to_list() == [(3,), (10,)]

    def test_unknown_predicate_value_rejects_row(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["A"], [(None,), (1,)])
        out = restrict_project(source, predicate=parse_expression("A = 1"))
        assert out.to_list() == [(1,)]

    def test_output_is_a_stream_written_only_when_stored(self):
        disk, buffer = make_env()
        source = rel(buffer, "T", ["A"], [(i,) for i in range(20)])
        disk.reset_stats()
        out = restrict_project(source)
        assert out.is_stream and not out.is_heap_backed
        assert out.num_pages == 0
        stored = out.store(buffer)
        assert stored.is_heap_backed
        assert disk.stats().page_writes >= stored.num_pages > 0
        assert stored.to_list() == [(i,) for i in range(20)]


class TestNestedLoopJoin:
    def test_inner_join(self):
        _, buffer = make_env()
        left = rel(buffer, "L", ["A"], [(1,), (2,)])
        right = rel(buffer, "R", ["B"], [(2,), (3,)])
        predicate = parse_expression("L.A = R.B")
        out = nested_loop_join(left, right, predicate=predicate)
        assert out.to_list() == [(2, 2)]
        assert out.schema.qualified_names() == ["L.A", "R.B"]

    def test_cross_product_without_predicate(self):
        _, buffer = make_env()
        left = rel(buffer, "L", ["A"], [(1,), (2,)])
        right = rel(buffer, "R", ["B"], [(7,), (8,)])
        out = nested_loop_join(left, right)
        assert sorted(out.to_list()) == [(1, 7), (1, 8), (2, 7), (2, 8)]

    def test_left_outer(self):
        _, buffer = make_env()
        left = rel(buffer, "L", ["A"], [(1,), (2,)])
        right = rel(buffer, "R", ["B"], [(2,)])
        predicate = parse_expression("L.A = R.B")
        out = nested_loop_join(left, right, predicate=predicate, mode="left")
        assert sorted(out.to_list(), key=str) == [(1, None), (2, 2)]

    def test_small_inner_rescans_hit_buffer(self):
        disk, buffer = make_env(buffer_pages=8)
        left = rel(buffer, "L", ["A"], [(i,) for i in range(40)], rows_per_page=4)
        right = rel(buffer, "R", ["B"], [(1,), (2,)], rows_per_page=4)  # 1 page
        buffer.evict_all()
        disk.reset_stats()
        nested_loop_join(
            left, right, predicate=parse_expression("L.A = R.B")
        ).to_list()
        stats = disk.stats()
        # Right (1 page) is read once and then hit in the buffer;
        # total reads ≈ left pages + right pages.
        assert stats.page_reads <= left.num_pages + right.num_pages + 1

    def test_large_inner_rescans_cost_per_outer_tuple(self):
        disk, buffer = make_env(buffer_pages=2)
        left = rel(buffer, "L", ["A"], [(i,) for i in range(10)], rows_per_page=1)
        right = rel(buffer, "R", ["B"], [(i,) for i in range(12)], rows_per_page=1)
        buffer.evict_all()
        disk.reset_stats()
        nested_loop_join(
            left, right, predicate=parse_expression("L.A = R.B")
        ).to_list()
        # 10 outer tuples × 12 inner pages: far beyond one read of each.
        assert disk.stats().page_reads >= 10 * 12


class TestMergeJoin:
    def sorted_rel(self, buffer, qualifier, columns, rows, key=(0,)):
        source = rel(buffer, qualifier, columns, rows)
        return external_sort(source, list(key), buffer)

    def test_equi_join(self):
        _, buffer = make_env()
        left = self.sorted_rel(buffer, "L", ["A"], [(3,), (1,), (2,)])
        right = self.sorted_rel(buffer, "R", ["B"], [(2,), (4,), (2,)])
        out = merge_join(left, right, [0], [0])
        assert out.to_list() == [(2, 2), (2, 2)]

    def test_equi_join_agrees_with_nested_loop(self):
        _, buffer = make_env()
        lrows = [(i % 5, i) for i in range(17)]
        rrows = [(i % 4, -i) for i in range(13)]
        left = self.sorted_rel(buffer, "L", ["K", "V"], lrows)
        right = self.sorted_rel(buffer, "R", ["K", "W"], rrows)
        merged = merge_join(left, right, [0], [0])
        loop = nested_loop_join(
            rel(buffer, "L", ["K", "V"], lrows),
            rel(buffer, "R", ["K", "W"], rrows),
            predicate=parse_expression("L.K = R.K"),
        )
        assert sorted(merged.to_list()) == sorted(loop.to_list())

    def test_multi_column_key(self):
        _, buffer = make_env()
        left = self.sorted_rel(
            buffer, "L", ["A", "B"], [(1, 1), (1, 2), (2, 1)], key=(0, 1)
        )
        right = self.sorted_rel(
            buffer, "R", ["A", "B"], [(1, 2), (2, 2)], key=(0, 1)
        )
        out = merge_join(left, right, [0, 1], [0, 1])
        assert out.to_list() == [(1, 2, 1, 2)]

    def test_left_outer_pads_with_nulls(self):
        """Section 5.2's example: R(X) ⟕ S(Y)."""
        _, buffer = make_env()
        left = self.sorted_rel(buffer, "R", ["X"], [("A",), ("B",)])
        right = self.sorted_rel(buffer, "S", ["Y"], [("B",), ("C",), ("E",)])
        out = merge_join(left, right, [0], [0], mode="left")
        assert out.to_list() == [("A", None), ("B", "B")]

    def test_null_keys_never_match(self):
        _, buffer = make_env()
        left = self.sorted_rel(buffer, "L", ["A"], [(None,), (1,)])
        right = self.sorted_rel(buffer, "R", ["B"], [(None,), (1,)])
        inner = merge_join(left, right, [0], [0])
        assert inner.to_list() == [(1, 1)]
        outer = merge_join(left, right, [0], [0], mode="left")
        assert outer.to_list() == [(None, None), (1, 1)]

    def test_theta_join_less_than(self):
        """Inner < outer, the section 5.3 predicate direction."""
        _, buffer = make_env()
        outer = self.sorted_rel(buffer, "PARTS", ["PNUM"], [(3,), (8,), (10,)])
        inner = self.sorted_rel(buffer, "SUPPLY", ["PNUM", "QUAN"],
                                [(3, 4), (3, 2), (9, 5), (10, 1)])
        # SUPPLY.PNUM < PARTS.PNUM  →  right rows with key < probe.
        out = merge_join(outer, inner, [0], [0], op="<")
        assert sorted(out.to_list()) == [
            (8, 3, 2), (8, 3, 4),
            (10, 3, 2), (10, 3, 4), (10, 9, 5),
        ]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "<>"])
    def test_theta_join_agrees_with_nested_loop(self, op):
        _, buffer = make_env()
        lrows = [(i,) for i in range(6)]
        rrows = [(i % 4, i) for i in range(9)]
        left = self.sorted_rel(buffer, "L", ["K"], lrows)
        right = self.sorted_rel(buffer, "R", ["K", "V"], rrows)
        theta = merge_join(left, right, [0], [0], op=op)
        loop = nested_loop_join(
            rel(buffer, "L", ["K"], lrows),
            rel(buffer, "R", ["K", "V"], rrows),
            predicate=parse_expression(f"R.K {op} L.K"),
        )
        assert sorted(theta.to_list()) == sorted(loop.to_list())

    def test_theta_left_outer(self):
        _, buffer = make_env()
        left = self.sorted_rel(buffer, "L", ["K"], [(0,), (5,)])
        right = self.sorted_rel(buffer, "R", ["K"], [(2,), (3,)])
        out = merge_join(left, right, [0], [0], op="<", mode="left")
        assert sorted(out.to_list(), key=str) == [(0, None), (5, 2), (5, 3)]

    def test_theta_multi_column_rejected(self):
        _, buffer = make_env()
        left = self.sorted_rel(buffer, "L", ["A", "B"], [(1, 1)])
        right = self.sorted_rel(buffer, "R", ["A", "B"], [(1, 1)])
        with pytest.raises(ExecutionError):
            merge_join(left, right, [0, 1], [0, 1], op="<")


class TestGroupAggregate:
    def test_grouped_count(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["K", "V"],
                     [(1, 10), (1, None), (2, 30)])
        out = group_aggregate(
            source, [0],
            [AggSpec("COUNT", 1)],
            [("G", "K"), ("G", "CT")],
        )
        assert out.to_list() == [(1, 1), (2, 1)]

    def test_group_with_count_star(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["K", "V"], [(1, 10), (1, None), (2, 30)])
        out = group_aggregate(
            source, [0],
            [AggSpec("COUNT", None)],
            [("G", "K"), ("G", "CT")],
        )
        assert out.to_list() == [(1, 2), (2, 1)]

    def test_multiple_aggregates(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["K", "V"], [(1, 5), (1, 7), (2, 2)])
        out = group_aggregate(
            source, [0],
            [AggSpec("MAX", 1), AggSpec("SUM", 1)],
            [("G", "K"), ("G", "MX"), ("G", "SM")],
        )
        assert out.to_list() == [(1, 7, 12), (2, 2, 2)]

    def test_requires_sorted_input_groups_adjacent(self):
        # Input must be key-sorted; adjacent grouping is what we verify.
        _, buffer = make_env()
        source = rel(buffer, "T", ["K"], [(1,), (2,), (1,)])
        out = group_aggregate(
            source, [0],
            [AggSpec("COUNT", None)],
            [("G", "K"), ("G", "CT")],
        )
        # The unsorted duplicate key produces two groups — callers sort first.
        assert out.to_list() == [(1, 1), (2, 1), (1, 1)]

    def test_ungrouped_aggregate_over_empty_input(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["V"], [])
        silent = group_aggregate(
            source, [], [AggSpec("COUNT", 0)], [("G", "CT")]
        )
        assert silent.to_list() == []
        emitted = group_aggregate(
            source, [], [AggSpec("COUNT", 0)], [("G", "CT")],
            always_emit=True,
        )
        assert emitted.to_list() == [(0,)]

    def test_wrong_output_arity_raises(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["K"], [(1,)])
        with pytest.raises(ExecutionError):
            group_aggregate(source, [0], [AggSpec("COUNT", None)],
                            [("G", "K")])

    def test_group_key_with_nulls_forms_groups(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["K", "V"], [(None, 1), (None, 2), (1, 3)])
        out = group_aggregate(
            source, [0],
            [AggSpec("COUNT", 1)],
            [("G", "K"), ("G", "CT")],
        )
        assert out.to_list() == [(None, 2), (1, 1)]


class TestProjectColumns:
    """A projection of plain columns picks them from each row."""

    def test_positional_projection(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["A", "B", "C"], [(1, 2, 3)])
        out = restrict_project(
            source,
            projections=[
                (parse_expression("T.C"), None, "C"),
                (parse_expression("T.A"), None, "A"),
            ],
        )
        assert out.to_list() == [(3, 1)]
        assert out.schema.qualified_names() == ["C", "A"]

    def test_identity_projection_is_a_relabel(self):
        """Every column copied in place, no predicate: the batches pass
        through as they are, under the new names."""
        batches = [[(1, 2)], [(3, 4)]]
        source = Relation.stream(
            RowSchema.for_table("T", ["A", "B"]), iter(batches), "T", ((0,), True)
        )
        out = restrict_project(
            source,
            projections=[
                (parse_expression("T.A"), None, "X"),
                (parse_expression("T.B"), None, "Y"),
            ],
        )
        assert out.schema.qualified_names() == ["X", "Y"]
        assert out.order == ((0,), True)
        assert all(a is b for a, b in zip(out.iter_batches(), batches, strict=True))


#: Every operator that returns a stream, over a left and a right input.
STREAMING = {
    "restrict_project": lambda left, right: restrict_project(
        left, predicate=parse_expression("L.K > 0")
    ),
    # The column-picking path of restrict_project.
    "project_columns": lambda left, right: restrict_project(
        left,
        projections=[
            (parse_expression("L.K"), None, "K"),
            (parse_expression("L.K"), None, "K2"),
        ],
    ),
    "nested_loop_join": lambda left, right: nested_loop_join(
        left, right, predicate=parse_expression("L.K = R.K")
    ),
    "merge_join": lambda left, right: merge_join(left, right, [0], [0]),
    "hash_join": lambda left, right: hash_join(left, right, [0], [0]),
    "group_aggregate": lambda left, right: group_aggregate(
        left, [0], [AggSpec("COUNT", None)], [(None, "K"), (None, "C")]
    ),
    "hash_group_aggregate": lambda left, right: hash_group_aggregate(
        left, [0], [AggSpec("COUNT", None)], [(None, "K"), (None, "C")]
    ),
    "hash_distinct": lambda left, right: hash_distinct(left),
}


class TestStreams:
    """Every operator but the sort returns a one-shot stream: it reads
    nothing until pulled, writes nothing, and cannot be read twice."""

    def inputs(self):
        disk, buffer = make_env()
        left = rel(buffer, "L", ["K"], [(1,), (2,), (2,), (3,)])
        right = rel(buffer, "R", ["K"], [(2,), (3,), (4,)])
        return disk, left, right

    @pytest.mark.parametrize("operator", list(STREAMING))
    def test_read_once(self, operator):
        disk, left, right = self.inputs()
        buffer_stats = disk.stats()
        out = STREAMING[operator](left, right)
        assert out.is_stream and out.num_pages == 0
        assert disk.stats() == buffer_stats  # nothing read or written yet
        rows = out.to_list()
        assert rows
        assert disk.stats().page_writes == buffer_stats.page_writes
        with pytest.raises(ExecutionError, match="already read"):
            out.to_list()

    def test_nested_loop_refuses_a_stream_inner(self):
        _, left, right = self.inputs()
        with pytest.raises(ExecutionError, match="rescans its right input"):
            nested_loop_join(left, restrict_project(right))

    def test_a_stream_feeds_exactly_one_consumer(self):
        _, left, right = self.inputs()
        shared = restrict_project(right)
        hash_join(left, shared, [0], [0]).to_list()
        with pytest.raises(ExecutionError, match="already read"):
            hash_join(left, shared, [0], [0]).to_list()

    def test_projection_keeps_the_order_it_copies(self):
        _, left, _ = self.inputs()
        left.order = ((0,), False)
        kept = restrict_project(
            left, projections=[(parse_expression("L.K"), "T", "K")]
        )
        assert kept.order == ((0,), False)
        computed = restrict_project(
            left, projections=[(parse_expression("L.K + 1"), "T", "K")]
        )
        assert computed.order == ((), False)


class TestJoinEquivalenceProperty:
    @given(
        lrows=st.lists(st.integers(0, 6), max_size=25),
        rrows=st.lists(st.integers(0, 6), max_size=25),
        mode=st.sampled_from(["inner", "left"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_nested_loop(self, lrows, rrows, mode):
        _, buffer = make_env()
        left_rel = rel(buffer, "L", ["K"], [(v,) for v in lrows])
        right_rel = rel(buffer, "R", ["K"], [(v,) for v in rrows])
        left_sorted = external_sort(left_rel, [0], buffer)
        right_sorted = external_sort(right_rel, [0], buffer)
        merged = merge_join(left_sorted, right_sorted, [0], [0], mode=mode)
        loop = nested_loop_join(
            left_rel, right_rel,
            predicate=parse_expression("L.K = R.K"), mode=mode,
        )
        assert sorted(merged.to_list(), key=str) == sorted(loop.to_list(), key=str)
