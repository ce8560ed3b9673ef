"""Table schemas: names, column types, primary keys, page sizing."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CatalogError

#: Nominal page size in bytes, used to derive tuples-per-page from the
#: estimated tuple width when a table does not fix ``rows_per_page``.
PAGE_BYTES = 1024


class ColumnType(enum.Enum):
    """Column types of the dialect.

    DATE values are stored as ISO ``YYYY-MM-DD`` strings, which order
    lexically — see DESIGN.md ("Dates") for why the paper's ``1-1-80``
    style literals are normalized this way.
    """

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"
    ANY = "any"

    @property
    def width_bytes(self) -> int:
        """Estimated storage width used to size pages."""
        if self is ColumnType.INT or self is ColumnType.FLOAT:
            return 8
        if self is ColumnType.DATE:
            return 10
        if self is ColumnType.ANY:
            return 8
        return 24

    def validate(self, value: object) -> bool:
        """True when a Python value is acceptable for this type (NULL ok)."""
        if value is None or self is ColumnType.ANY:
            return True
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str)


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    ctype: ColumnType = ColumnType.INT


@dataclass(frozen=True)
class TableSchema:
    """Schema of a stored table.

    Attributes:
        name: table name (upper case by convention).
        columns: ordered column definitions.
        primary_key: names of the key columns.  Not enforced as an
            index, but key columns reject NULL at insert time — the
            static nullability inference (``repro.analysis``) treats
            them as NOT NULL, so the store must uphold that.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column in table {self.name}")
        for key in self.primary_key:
            if key not in names:
                raise CatalogError(
                    f"primary key column {key!r} not in table {self.name}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column_index(self, name: str) -> int:
        """Position of ``name`` in the tuple layout."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise CatalogError(f"table {self.name} has no column {name!r}")

    def column_type(self, name: str) -> ColumnType:
        return self.columns[self.column_index(name)].ctype

    @property
    def row_width_bytes(self) -> int:
        """Estimated tuple width, used to derive tuples per page."""
        return sum(column.ctype.width_bytes for column in self.columns)

    def default_rows_per_page(self, page_bytes: int = PAGE_BYTES) -> int:
        return max(1, page_bytes // self.row_width_bytes)

    def validate_row(self, row: tuple) -> None:
        """Raise :class:`CatalogError` when a row does not fit the schema."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"table {self.name} expects {len(self.columns)} values,"
                f" got {len(row)}"
            )
        for value, column in zip(row, self.columns):
            if not column.ctype.validate(value):
                raise CatalogError(
                    f"value {value!r} is not valid for column"
                    f" {self.name}.{column.name} of type {column.ctype.value}"
                )
            if value is None and column.name in self.primary_key:
                # The nullability inference treats key columns as NOT
                # NULL; enforce the constraint the inference relies on.
                raise CatalogError(
                    f"NULL is not allowed in key column"
                    f" {self.name}.{column.name}"
                )


def schema(name: str, *columns: str | tuple[str, ColumnType], key: tuple[str, ...] = ()) -> TableSchema:
    """Convenience constructor: ``schema("PARTS", "PNUM", "QOH")``.

    Plain strings default to INT columns; pass ``(name, ColumnType.X)``
    tuples for other types.
    """
    built: list[Column] = []
    for spec in columns:
        if isinstance(spec, str):
            built.append(Column(spec))
        else:
            column_name, ctype = spec
            built.append(Column(column_name, ctype))
    return TableSchema(name, tuple(built), tuple(key))
