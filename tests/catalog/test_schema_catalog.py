"""Unit tests for schemas and the catalog."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, TableSchema, schema
from repro.errors import CatalogError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_catalog(buffer_pages=8):
    disk = DiskManager()
    return Catalog(BufferPool(disk, capacity=buffer_pages))


PARTS = schema("PARTS", "PNUM", "QOH", key=("PNUM",))
SUPPLY = schema(
    "SUPPLY", "PNUM", "QUAN", ("SHIPDATE", ColumnType.DATE), key=()
)


class TestSchema:
    def test_column_names(self):
        assert PARTS.column_names == ("PNUM", "QOH")

    def test_column_index(self):
        assert PARTS.column_index("QOH") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            PARTS.column_index("NOPE")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("T", (Column("A"), Column("A")))

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema("T", (Column("A"),), primary_key=("B",))

    def test_row_validation_arity(self):
        with pytest.raises(CatalogError):
            PARTS.validate_row((1,))

    def test_row_validation_types(self):
        with pytest.raises(CatalogError):
            PARTS.validate_row(("three", 6))

    def test_null_is_valid_for_non_key_columns(self):
        PARTS.validate_row((1, None))
        SUPPLY.validate_row((None, None, None))  # keyless table

    def test_null_rejected_in_key_column(self):
        with pytest.raises(CatalogError):
            PARTS.validate_row((None, None))

    def test_bool_is_not_an_int(self):
        with pytest.raises(CatalogError):
            PARTS.validate_row((True, 6))

    def test_date_stored_as_text(self):
        SUPPLY.validate_row((3, 4, "1979-07-03"))

    def test_default_rows_per_page_positive(self):
        assert PARTS.default_rows_per_page() >= 1
        wide = schema("W", *[(f"C{i}", ColumnType.TEXT) for i in range(100)])
        assert wide.default_rows_per_page() == 1

    def test_schema_helper_with_types(self):
        s = schema("T", "A", ("B", ColumnType.TEXT), key=("A",))
        assert s.column_type("A") is ColumnType.INT
        assert s.column_type("B") is ColumnType.TEXT
        assert s.primary_key == ("A",)


class TestCatalog:
    def test_create_and_get(self):
        catalog = make_catalog()
        catalog.create_table(PARTS)
        assert catalog.has_table("PARTS")
        assert catalog.schema_of("PARTS") == PARTS

    def test_duplicate_create_raises(self):
        catalog = make_catalog()
        catalog.create_table(PARTS)
        with pytest.raises(CatalogError):
            catalog.create_table(PARTS)

    def test_missing_table_raises(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.get("NOPE")

    def test_insert_and_scan(self):
        catalog = make_catalog()
        catalog.create_table(PARTS, rows_per_page=2)
        inserted = catalog.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
        assert inserted == 3
        assert list(catalog.heap_of("PARTS").scan()) == [(3, 6), (10, 1), (8, 0)]
        assert catalog.heap_of("PARTS").num_pages == 2

    def test_insert_validates_rows(self):
        catalog = make_catalog()
        catalog.create_table(PARTS)
        with pytest.raises(CatalogError):
            catalog.insert("PARTS", [(1, 2, 3)])

    def test_drop_table(self):
        catalog = make_catalog()
        catalog.create_table(PARTS)
        catalog.drop_table("PARTS")
        assert not catalog.has_table("PARTS")

    def test_temp_names_are_fresh(self):
        catalog = make_catalog()
        names = {catalog.create_temp_name() for _ in range(10)}
        assert len(names) == 10

    def test_drop_temp_tables_only_drops_temps(self):
        catalog = make_catalog()
        catalog.create_table(PARTS)
        temp_schema = schema(catalog.create_temp_name(), "C1")
        catalog.create_table(temp_schema, is_temp=True)
        catalog.drop_temp_tables()
        assert catalog.has_table("PARTS")
        assert catalog.table_names() == ["PARTS"]

    def test_table_names_sorted(self):
        catalog = make_catalog()
        catalog.create_table(SUPPLY)
        catalog.create_table(PARTS)
        assert catalog.table_names() == ["PARTS", "SUPPLY"]
