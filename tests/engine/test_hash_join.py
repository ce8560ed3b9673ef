"""Hash-join (and hash aggregation) semantics.

The contracts under test, mirrored against merge join and SQLite:

* NULL keys never match under ``=`` but do under ``<=>``;
* duplicate-heavy build sides chain and produce full cross products;
* ``mode="left"`` NULL-pads unmatched probe rows, and a residual that
  fails is part of the join condition (padding, not dropping).
"""

from collections import Counter

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import schema
from repro.config import ExecConfig
from repro.difftest.oracle import SQLiteOracle
from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    group_aggregate,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    merge_join,
)
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_buffer(capacity=8):
    return BufferPool(DiskManager(), capacity=capacity)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    sch = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(sch, rows, buffer, rows_per_page=rows_per_page)


LEFT_ROWS = [(1, "a"), (2, "b"), (None, "c"), (2, "d"), (5, "e")]
RIGHT_ROWS = [(2, 20), (None, 99), (2, 21), (7, 70), (1, 10)]


class TestInnerHashJoin:
    def test_matches_merge_join_bag(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], LEFT_ROWS)
        right = rel(buffer, "R", ["K", "W"], RIGHT_ROWS)
        hashed = hash_join(left, right, [0], [0])
        sorted_left = external_sort(left, [0], buffer)
        sorted_right = external_sort(right, [0], buffer)
        merged = merge_join(sorted_left, sorted_right, [0], [0])
        assert Counter(hashed.to_list()) == Counter(merged.to_list())

    def test_null_keys_never_match_under_equals(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(None,), (1,)])
        right = rel(buffer, "R", ["K"], [(None,), (1,)])
        out = hash_join(left, right, [0], [0])
        assert out.to_list() == [(1, 1)]

    def test_null_keys_match_under_null_safe(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(None,), (1,)])
        right = rel(buffer, "R", ["K"], [(None,), (1,)])
        out = hash_join(left, right, [0], [0], null_safe=True)
        assert Counter(out.to_list()) == Counter([(None, None), (1, 1)])

    def test_duplicate_heavy_build_side_cross_products(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(1,), (1,)])
        right = rel(buffer, "R", ["K", "W"], [(1, i) for i in range(5)])
        rows = hash_join(left, right, [0], [0]).to_list()
        assert len(rows) == 10
        # Each probe row streams its matches in build insertion order.
        assert [row[-1] for row in rows[:5]] == [0, 1, 2, 3, 4]

    def test_probe_side_order_is_preserved(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(3,), (1,), (2,)])
        right = rel(buffer, "R", ["K"], [(1,), (2,), (3,)])
        out = hash_join(left, right, [0], [0])
        assert [k for k, _ in out.to_list()] == [3, 1, 2]

    def test_composite_keys(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["A", "B"], [(1, 1), (1, 2), (2, 1)])
        right = rel(buffer, "R", ["A", "B"], [(1, 2), (2, 1), (2, 2)])
        out = hash_join(left, right, [0, 1], [0, 1])
        assert Counter(out.to_list()) == Counter(
            [(1, 2, 1, 2), (2, 1, 2, 1)]
        )

    def test_residual_filters_inner_matches(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, 5), (1, 50)])
        right = rel(buffer, "R", ["K", "W"], [(1, 10)])
        out = hash_join(
            left, right, [0], [0],
            residual=lambda combined: combined[1] < combined[3],
        )
        assert out.to_list() == [(1, 5, 1, 10)]


class TestOuterHashJoin:
    def test_unmatched_probe_rows_are_null_padded(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(1,), (9,), (None,)])
        right = rel(buffer, "R", ["K", "W"], [(1, 10)])
        out = hash_join(left, right, [0], [0], mode="left")
        assert Counter(out.to_list()) == Counter(
            [(1, 1, 10), (9, None, None), (None, None, None)]
        )

    def test_failed_residual_pads_instead_of_dropping(self):
        # Section 5.2's trap: the residual is part of the join
        # condition, so a key match that flunks it must still pad.
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, 5), (1, 50)])
        right = rel(buffer, "R", ["K", "W"], [(1, 10)])
        out = hash_join(
            left, right, [0], [0], mode="left",
            residual=lambda combined: combined[1] < combined[3],
        )
        assert Counter(out.to_list()) == Counter(
            [(1, 5, 1, 10), (1, 50, None, None)]
        )

    def test_outer_matches_merge_join_bag(self):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], LEFT_ROWS)
        right = rel(buffer, "R", ["K", "W"], RIGHT_ROWS)
        hashed = hash_join(left, right, [0], [0], mode="left")
        sorted_left = external_sort(left, [0], buffer)
        sorted_right = external_sort(right, [0], buffer)
        merged = merge_join(
            sorted_left, sorted_right, [0], [0], mode="left"
        )
        assert Counter(hashed.to_list()) == Counter(merged.to_list())


class TestAgainstSQLite:
    # Integer-only variants: catalog columns default to int type.
    CATALOG_LEFT = [(1, 100), (2, 200), (None, 300), (2, 400), (5, 500)]
    CATALOG_RIGHT = RIGHT_ROWS

    def make_catalog(self):
        catalog = Catalog(BufferPool(DiskManager(), capacity=8))
        catalog.create_table(schema("L", "K", "V"), rows_per_page=4)
        catalog.create_table(schema("R", "K", "W"), rows_per_page=4)
        catalog.insert("L", self.CATALOG_LEFT)
        catalog.insert("R", self.CATALOG_RIGHT)
        return catalog

    def join_via_hash(self, catalog, null_safe=False, mode="inner"):
        from repro.engine.operators import scan_table

        buffer = catalog.buffer
        left = scan_table(catalog.get("L"))
        right = scan_table(catalog.get("R"))
        return hash_join(
            left, right, [0], [0], mode=mode, null_safe=null_safe
        )

    def test_inner_equality_matches_sqlite(self):
        catalog = self.make_catalog()
        with SQLiteOracle(catalog) as oracle:
            expected = oracle.run(
                'SELECT L.K, L.V, R.K, R.W FROM L, R WHERE L.K = R.K'
            )
        out = self.join_via_hash(catalog)
        assert Counter(out.to_list()) == Counter(expected)

    def test_null_safe_equality_matches_sqlite_is(self):
        catalog = self.make_catalog()
        with SQLiteOracle(catalog) as oracle:
            expected = oracle.run(
                'SELECT L.K, L.V, R.K, R.W FROM L, R WHERE L.K IS R.K'
            )
        out = self.join_via_hash(catalog, null_safe=True)
        assert Counter(out.to_list()) == Counter(expected)

    def test_left_outer_matches_sqlite(self):
        catalog = self.make_catalog()
        with SQLiteOracle(catalog) as oracle:
            expected = oracle.run(
                'SELECT L.K, L.V, R.K, R.W '
                'FROM L LEFT JOIN R ON L.K = R.K'
            )
        out = self.join_via_hash(catalog, mode="left")
        assert Counter(out.to_list()) == Counter(expected)


class TestHashAggregation:
    def test_matches_sorted_group_aggregate(self):
        buffer = make_buffer()
        rows = [(2, 10), (1, 5), (2, 30), (None, 7), (1, 6), (None, 8)]
        source = rel(buffer, "T", ["G", "V"], rows)
        out_names = [(None, "G"), (None, "S")]
        specs = [AggSpec("SUM", 1, False)]
        hashed = hash_group_aggregate(source, [0], specs, out_names)
        sorted_src = external_sort(source, [0], buffer)
        merged = group_aggregate(sorted_src, [0], specs, out_names)
        assert Counter(hashed.to_list()) == Counter(merged.to_list())

    def test_groups_emerge_in_first_appearance_order(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G"], [(3,), (1,), (3,), (2,)])
        out = hash_group_aggregate(
            source, [0], [AggSpec("COUNT", None, False)],
            [(None, "G"), (None, "C")],
        )
        assert out.to_list() == [(3, 2), (1, 1), (2, 1)]

    def test_null_group_keys_form_one_group(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["G"], [(None,), (None,), (1,)])
        out = hash_group_aggregate(
            source, [0], [AggSpec("COUNT", None, False)],
            [(None, "G"), (None, "C")],
        )
        assert Counter(out.to_list()) == Counter([(None, 2), (1, 1)])

    def test_scalar_aggregate_empty_input_always_emit(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["V"], [])
        out = hash_group_aggregate(
            source, [], [AggSpec("COUNT", None, False)],
            [(None, "C")], always_emit=True,
        )
        assert out.to_list() == [(0,)]

    def test_hash_distinct_keeps_first_occurrence(self):
        buffer = make_buffer()
        source = rel(buffer, "T", ["A"], [(2,), (1,), (2,), (1,), (3,)])
        out = hash_distinct(source)
        assert out.to_list() == [(2,), (1,), (3,)]


class TestExecutorIntegration:
    def test_hash_method_agrees_with_merge_on_canonical_join(self):
        from repro.optimizer.executor import SingleLevelExecutor
        from repro.sql.parser import parse

        catalog = Catalog(BufferPool(DiskManager(), capacity=8))
        catalog.create_table(schema("L", "K", "V"), rows_per_page=4)
        catalog.create_table(schema("R", "K", "W"), rows_per_page=4)
        catalog.insert("L", TestAgainstSQLite.CATALOG_LEFT)
        catalog.insert("R", RIGHT_ROWS)
        query = parse(
            "SELECT L.V, R.W FROM L, R WHERE L.K = R.K AND R.W > 5"
        )
        merge_rows = SingleLevelExecutor(catalog, ExecConfig("merge")).execute(
            query, Relation.to_list
        )
        hash_rows = SingleLevelExecutor(catalog, ExecConfig("hash")).execute(
            query, Relation.to_list
        )
        assert Counter(hash_rows) == Counter(merge_rows)

    def test_hash_method_skips_sorts(self):
        from repro.optimizer.executor import SingleLevelExecutor
        from repro.sql.parser import parse

        catalog = Catalog(BufferPool(DiskManager(), capacity=8))
        catalog.create_table(schema("L", "K"), rows_per_page=4)
        catalog.create_table(schema("R", "K"), rows_per_page=4)
        catalog.insert("L", [(3,), (1,), (2,)])
        catalog.insert("R", [(2,), (3,), (4,)])
        executor = SingleLevelExecutor(catalog, ExecConfig("hash"))
        executor.execute(
            parse("SELECT L.K FROM L, R WHERE L.K = R.K"), Relation.to_list
        )
        assert not any(step.startswith("sort") for step in executor.steps)
        assert any(step.startswith("hash join") for step in executor.steps)
