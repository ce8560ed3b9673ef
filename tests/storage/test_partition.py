"""The heap partition map and partitioned relation scans.

The exchange operators' correctness rests on three properties checked
here at the storage layer: shards are **disjoint**, their union is
**exhaustive**, and under the range scheme their concatenation
reproduces the **serial scan order** (which is what lets an ordered
gather hide parallelism from everything downstream).  Edge cases get
their own tests: empty relations, single rows, more partitions than
rows, and heavily skewed keys (skew lives in the values; the partition
map is page-based, so it must stay balanced regardless).
"""

from collections import Counter

import pytest

from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from repro.workloads.generators import skewed_keys


def make_heap(rows, rows_per_page=4, capacity=16):
    buffer = BufferPool(DiskManager(), capacity=capacity)
    heap = HeapFile(buffer, rows_per_page=rows_per_page)
    heap.extend(rows)
    return heap


def shard_rows(heap, partitions, scheme="range"):
    shards = heap.partition_pages(partitions, scheme)
    return [
        [
            row
            for _index, rows in heap.scan_pages_partition(shard)
            for row in rows
        ]
        for shard in shards
    ]


class TestPartitionPages:
    def test_range_shards_are_disjoint_exhaustive_and_ordered(self):
        rows = [(i,) for i in range(37)]
        heap = make_heap(rows)
        for partitions in (1, 2, 3, 5, 10):
            parts = shard_rows(heap, partitions)
            assert len(parts) == partitions
            flat = [row for part in parts for row in part]
            # Concatenated range shards ARE the serial scan.
            assert flat == rows

    def test_hash_shards_are_disjoint_and_exhaustive(self):
        rows = [(i,) for i in range(37)]
        heap = make_heap(rows)
        parts = shard_rows(heap, 3, scheme="hash")
        flat = [row for part in parts for row in part]
        assert Counter(flat) == Counter(rows)
        page_sets = [
            {page_index for page_index, _ in shard}
            for shard in heap.partition_pages(3, "hash")
        ]
        for a in range(len(page_sets)):
            for b in range(a + 1, len(page_sets)):
                assert not (page_sets[a] & page_sets[b])

    def test_more_partitions_than_pages_leaves_empty_shards(self):
        heap = make_heap([(1,), (2,)], rows_per_page=4)  # one page
        shards = heap.partition_pages(5)
        assert len(shards) == 5
        assert sum(len(s) for s in shards) == heap.num_pages == 1
        parts = shard_rows(heap, 5)
        assert parts[0] == [(1,), (2,)]
        assert all(part == [] for part in parts[1:])

    def test_empty_heap_partitions_cleanly(self):
        heap = make_heap([])
        for scheme in ("range", "hash"):
            shards = heap.partition_pages(4, scheme)
            assert shards == [[], [], [], []]

    def test_single_row(self):
        heap = make_heap([(42,)])
        parts = shard_rows(heap, 3)
        assert parts == [[(42,)], [], []]

    def test_range_shards_balanced_within_one_page(self):
        heap = make_heap([(i,) for i in range(101)], rows_per_page=1)
        sizes = [len(s) for s in heap.partition_pages(7)]
        assert sum(sizes) == 101
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_arguments(self):
        heap = make_heap([(1,)])
        with pytest.raises(ValueError):
            heap.partition_pages(0)
        with pytest.raises(ValueError):
            heap.partition_pages(2, "round-robin")

    def test_rows_before_uses_page_fill_invariant(self):
        heap = make_heap([(i,) for i in range(10)], rows_per_page=4)
        # Pages: [0..3], [4..7], [8..9] — every page but the last full.
        assert [heap.rows_before(k) for k in range(3)] == [0, 4, 8]


class TestRelationPartitions:
    def schema(self):
        return RowSchema([("T", "A"), ("T", "B")])

    def test_heap_backed_shards_match_serial_batches(self):
        rows = [(i, i * 2) for i in range(50)]
        buffer = BufferPool(DiskManager(), capacity=32)
        relation = Relation.materialize(
            self.schema(), rows, buffer, rows_per_page=4
        )
        partitions = relation.partition_count(4)
        got = [
            row
            for index in range(partitions)
            for batch in relation.iter_partition_batches(index, partitions)
            for row in batch
        ]
        assert got == rows

    def test_memory_backed_shards_match_serial_batches(self):
        rows = [(i, -i) for i in range(700)]  # several 256-row batches
        relation = Relation.from_rows(self.schema(), rows)
        for scheme in ("range", "hash"):
            partitions = relation.partition_count(3)
            got = [
                row
                for index in range(partitions)
                for batch in relation.iter_partition_batches(
                    index, partitions, scheme
                )
                for row in batch
            ]
            if scheme == "range":
                assert got == rows
            else:
                assert Counter(got) == Counter(rows)

    def test_partition_count_clamps(self):
        buffer = BufferPool(DiskManager(), capacity=8)
        relation = Relation.materialize(
            self.schema(), [(1, 1)], buffer, rows_per_page=4
        )
        assert relation.partition_count(8) == 1  # one page
        assert relation.partition_count(0) == 1
        empty = Relation.from_rows(self.schema(), [])
        assert empty.partition_count(4) == 1


class TestSkewedKeys:
    def test_zero_skew_is_uniformish_and_deterministic(self):
        import random

        universe = list(range(100))
        a = skewed_keys(random.Random(7), universe, 1000, 0.0)
        b = skewed_keys(random.Random(7), universe, 1000, 0.0)
        assert a == b
        assert len(a) == 1000
        assert set(a) <= set(universe)

    def test_skew_concentrates_mass_on_head_keys(self):
        import random

        universe = list(range(1, 201))
        draws = skewed_keys(random.Random(3), universe, 5000, 1.2)
        counts = Counter(draws)
        head = sum(counts[k] for k in universe[:10])
        # Zipf s=1.2 over 200 keys puts well over a third of the mass
        # on the first 10 ranks; uniform would put 5% there.
        assert head > 0.35 * 5000
        assert counts[universe[0]] == max(counts.values())

    def test_empty_universe(self):
        import random

        assert skewed_keys(random.Random(0), [], 10, 1.0) == []

    def test_skewed_partition_scan_is_still_exhaustive(self):
        """Key skew lives in the values; the page-based partition map
        must still cover every row exactly once."""
        import random

        keys = skewed_keys(random.Random(5), list(range(8)), 300, 2.0)
        rows = [(key, index) for index, key in enumerate(keys)]
        heap = make_heap(rows, rows_per_page=8, capacity=64)
        parts = shard_rows(heap, 4)
        assert [row for part in parts for row in part] == rows
