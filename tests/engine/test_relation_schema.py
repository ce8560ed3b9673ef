"""Tests for Relation and RowSchema."""

import pytest

from repro.engine.relation import Relation, temp_rows_per_page
from repro.engine.schema import RowSchema
from repro.errors import BindError, ExecutionError
from repro.sql.ast import ColumnRef
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_buffer(capacity=4):
    return BufferPool(DiskManager(), capacity=capacity)


class TestRowSchema:
    def setup_method(self):
        self.schema = RowSchema(
            [("PARTS", "PNUM"), ("PARTS", "QOH"), ("SUPPLY", "PNUM")]
        )

    def test_len_and_names(self):
        assert len(self.schema) == 3
        assert self.schema.qualified_names() == [
            "PARTS.PNUM", "PARTS.QOH", "SUPPLY.PNUM"
        ]
        assert self.schema.column_names() == ["PNUM", "QOH", "PNUM"]

    def test_qualifiers(self):
        assert self.schema.qualifiers == {"PARTS", "SUPPLY"}

    def test_for_table(self):
        schema = RowSchema.for_table("T", ["A", "B"])
        assert schema.fields == (("T", "A"), ("T", "B"))

    def test_concatenation(self):
        left = RowSchema([("L", "A")])
        right = RowSchema([("R", "B")])
        assert (left + right).fields == (("L", "A"), ("R", "B"))

    def test_qualified_lookup(self):
        assert self.schema.index_of(ColumnRef("SUPPLY", "PNUM")) == 2
        assert self.schema.index_of(ColumnRef("PARTS", "PNUM")) == 0

    def test_unqualified_unique_lookup(self):
        assert self.schema.index_of(ColumnRef(None, "QOH")) == 1

    def test_unqualified_ambiguous_raises(self):
        with pytest.raises(BindError):
            self.schema.index_of(ColumnRef(None, "PNUM"))

    def test_missing_raises_and_try_returns_none(self):
        with pytest.raises(BindError):
            self.schema.index_of(ColumnRef(None, "NOPE"))
        assert self.schema.try_index_of(ColumnRef(None, "NOPE")) is None

    def test_equality_and_hash(self):
        twin = RowSchema(self.schema.fields)
        assert twin == self.schema
        assert hash(twin) == hash(self.schema)

    def test_unqualified_field_printing(self):
        schema = RowSchema([(None, "CT")])
        assert schema.qualified_names() == ["CT"]


class TestRelation:
    def test_requires_exactly_one_backing(self):
        schema = RowSchema([(None, "A")])
        with pytest.raises(ValueError):
            Relation(schema)
        with pytest.raises(ValueError):
            Relation(schema, rows=[], heap=object())  # type: ignore[arg-type]

    def test_in_memory_relation(self):
        schema = RowSchema([(None, "A")])
        relation = Relation.from_rows(schema, [(1,), (2,)], name="M")
        assert not relation.is_heap_backed
        assert relation.num_rows == 2
        assert relation.num_pages == 0
        assert relation.to_list() == [(1,), (2,)]
        # Re-iterable.
        assert relation.to_list() == [(1,), (2,)]

    def test_materialize_writes_pages(self):
        buffer = make_buffer()
        schema = RowSchema([(None, "A")])
        relation = Relation.materialize(
            schema, ((i,) for i in range(10)), buffer, rows_per_page=4
        )
        assert relation.is_heap_backed
        assert relation.num_pages == 3
        assert buffer.disk.page_writes >= 3
        assert relation.to_list() == [(i,) for i in range(10)]

    def test_drop_frees_pages(self):
        buffer = make_buffer()
        schema = RowSchema([(None, "A")])
        relation = Relation.materialize(schema, [(1,)], buffer)
        relation.drop()
        assert buffer.disk.num_pages == 0

    def test_repr_mentions_backing(self):
        schema = RowSchema([(None, "A")])
        memory = Relation.from_rows(schema, [], name="M")
        assert "memory" in repr(memory)
        assert "stream" in repr(Relation.stream(schema, [], name="S"))

    def test_temp_rows_per_page_scales_with_width(self):
        assert temp_rows_per_page(1) > temp_rows_per_page(4) >= 1
        assert temp_rows_per_page(1000) == 1


class TestStream:
    """An operator's output: read once, no pages, no row count."""

    def schema(self):
        return RowSchema([(None, "A")])

    def test_reads_once_then_raises(self):
        stream = Relation.stream(self.schema(), [[(1,), (2,)], [(3,)]], "S")
        assert stream.is_stream and not stream.is_heap_backed
        assert stream.to_list() == [(1,), (2,), (3,)]
        with pytest.raises(ExecutionError, match="already read"):
            stream.to_list()
        with pytest.raises(ExecutionError, match="already read"):
            stream.iter_batches()

    def test_handing_out_the_batches_counts_as_the_read(self):
        stream = Relation.stream(self.schema(), [[(1,)]])
        batches = stream.iter_batches()
        with pytest.raises(ExecutionError):
            list(stream)
        assert list(batches) == [[(1,)]]

    def test_occupies_no_page_and_has_no_row_count(self):
        stream = Relation.stream(self.schema(), [[(1,)]])
        assert stream.num_pages == 0
        with pytest.raises(ExecutionError):
            stream.num_rows
        stream.drop()  # owns nothing
        assert stream.to_list() == [(1,)]

    def test_store_writes_it_once(self):
        buffer = make_buffer()
        order = ((0,), True)
        stream = Relation.stream(
            self.schema(), [[(i,)] for i in range(300)], "S", order
        )
        stored = stream.store(buffer)
        assert stored.is_heap_backed and stored.name == "S"
        assert stored.order == order
        assert stored.num_pages == 3  # 128 one-column rows a page
        assert stored.to_list() == stored.to_list() == [(i,) for i in range(300)]
        with pytest.raises(ExecutionError):
            stream.store(buffer)


class TestTempRowsPerPage:
    """Degenerate temp widths (the PR-6 sizing fix)."""

    def test_zero_columns_sized_like_one(self):
        # An EXISTS-style probe projects no columns, but its tuples
        # still occupy a slot each — never "infinite rows per page".
        assert temp_rows_per_page(0) == temp_rows_per_page(1)

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            temp_rows_per_page(-1)

    def test_matches_catalog_sizing_rule(self):
        # page_bytes // row_width with a floor of one tuple per page.
        assert temp_rows_per_page(2) == temp_rows_per_page(1) // 2
        assert temp_rows_per_page(10_000) == 1
