"""NULL ordering and NULL-aware join regressions.

The engine's total order places NULL before every value (NULLS FIRST
ascending, NULLS LAST descending).  These tests pin that behaviour
across every path that sorts, merges, or groups — mixing NULLs with
values must never raise and must keep the documented order — and cover
the null-safe / residual extensions of the merge join that NEST-JA2's
COUNT fix relies on.
"""

from collections import Counter

import pytest

from repro.engine.aggregate import AggSpec
from repro.engine.operators import group_aggregate, merge_join
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort, sort_key
from repro.errors import ExecutionError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_env(buffer_pages=8):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=buffer_pages)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    schema = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(schema, rows, buffer, rows_per_page=rows_per_page)


class TestNullsFirstOrdering:
    def test_sort_key_orders_nulls_before_numbers_and_strings(self):
        rows = [(1,), (None,), (0,), (None,)]
        ordered = sorted(rows, key=lambda r: sort_key(r, [0]))
        assert ordered == [(None,), (None,), (0,), (1,)]

    def test_external_sort_with_nulls_does_not_raise(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["A", "B"],
                     [(2, None), (None, 1), (1, 5), (None, None)])
        out = external_sort(source, [0], buffer)
        assert out.to_list() == [
            (None, None), (None, 1), (1, 5), (2, None)
        ]

    def test_external_sort_spilling_runs_keeps_nulls_first(self):
        # Tiny buffer forces multi-run external sort through heapq.merge.
        _, buffer = make_env(buffer_pages=2)
        rows = [(i % 3 if i % 4 else None,) for i in range(40)]
        source = rel(buffer, "T", ["A"], rows, rows_per_page=2)
        out = external_sort(source, [0], buffer).to_list()
        nulls = sum(1 for (v,) in rows if v is None)
        assert all(v is None for (v,) in out[:nulls])
        values = [v for (v,) in out[nulls:]]
        assert values == sorted(values)

    def test_group_aggregate_forms_a_null_group(self):
        _, buffer = make_env()
        source = rel(buffer, "T", ["A", "B"],
                     [(None, 1), (None, 2), (1, 3)])
        ordered = external_sort(source, [0], buffer)
        out = group_aggregate(
            ordered, [0],
            [AggSpec("COUNT", 1)],
            [("T", "A"), (None, "CNT")],
        )
        assert Counter(out.to_list()) == Counter([(None, 2), (1, 1)])


class TestMergeJoinWithNulls:
    def join(self, left_rows, right_rows, **kwargs):
        _, buffer = make_env()
        left = external_sort(
            rel(buffer, "L", ["K", "V"], left_rows), [0], buffer
        )
        right = external_sort(
            rel(buffer, "R", ["K", "W"], right_rows), [0], buffer
        )
        return merge_join(
            left, right, [0], [0], **kwargs
        ).to_list()

    def test_plain_equi_join_drops_null_keys(self):
        out = self.join([(None, 1), (1, 2)], [(None, 3), (1, 4)])
        assert out == [(1, 2, 1, 4)]

    def test_left_join_null_pads_null_keys(self):
        out = self.join([(None, 1), (1, 2)], [(1, 4)], mode="left")
        assert Counter(out) == Counter(
            [(None, 1, None, None), (1, 2, 1, 4)]
        )

    def test_null_safe_join_matches_null_keys(self):
        out = self.join(
            [(None, 1), (1, 2)], [(None, 3), (1, 4)], null_safe=True
        )
        assert Counter(out) == Counter(
            [(None, 1, None, 3), (1, 2, 1, 4)]
        )

    def test_null_safe_left_join_keeps_unmatched_null_group(self):
        out = self.join([(None, 1)], [(2, 4)], mode="left", null_safe=True)
        assert out == [(None, 1, None, None)]

    def test_null_safe_requires_equality(self):
        with pytest.raises(ExecutionError):
            self.join([(1, 1)], [(1, 1)], op="<", null_safe=True)

    def test_residual_left_join_null_pads_flunked_matches(self):
        # Key matches exist but the residual rejects them all: the left
        # row must still be NULL-padded (in-join residual, not a
        # post-join filter).
        residual = lambda combined: combined[1] < combined[3]
        out = self.join(
            [(1, 9)], [(1, 4)], mode="left", residual=residual
        )
        assert out == [(1, 9, None, None)]
        out = self.join(
            [(1, 1)], [(1, 4)], mode="left", residual=residual
        )
        assert out == [(1, 1, 1, 4)]

    def test_residual_theta_left_join(self):
        residual = lambda combined: combined[3] is not None and combined[3] > 2
        out = self.join(
            [(5, 1), (0, 2)], [(1, 1), (2, 3)],
            op=">", mode="left", residual=residual,
        )
        # The theta form is right.key op left.key: left 0 matches right
        # keys 1 and 2, the residual keeps only W > 2; left 5 matches
        # nothing and is NULL-padded.
        assert Counter(out) == Counter(
            [(0, 2, 2, 3), (5, 1, None, None)]
        )
