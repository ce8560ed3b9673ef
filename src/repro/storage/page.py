"""In-memory page representation.

A page is a bounded container of tuples (Python tuples).  The bound —
``capacity``, in tuples — stands in for the byte-size page of a real
system; workload code chooses per-table capacities so that relations
occupy the page counts the paper's cost formulas use (``Pi``, ``Pj``,
``Pt`` ...).
"""

from __future__ import annotations

from repro.errors import StorageError

#: Default number of tuples per page when a table does not specify one.
PAGE_CAPACITY_DEFAULT = 32


class Page:
    """A slotted page holding up to ``capacity`` tuples.

    Pages are handled exclusively through the buffer pool; operators
    never construct them directly.
    """

    __slots__ = ("page_id", "capacity", "rows", "dirty")

    def __init__(
        self,
        page_id: int,
        capacity: int = PAGE_CAPACITY_DEFAULT,
        rows: list[tuple] | None = None,
    ) -> None:
        if capacity < 1:
            raise StorageError(f"page capacity must be >= 1, got {capacity}")
        self.page_id = page_id
        self.capacity = capacity
        #: The page's own list: a caller that passes ``rows`` hands it over.
        self.rows: list[tuple] = rows if rows is not None else []
        if len(self.rows) > capacity:
            raise StorageError(
                f"page {page_id} overfull: {len(self.rows)} > {capacity}"
            )
        self.dirty = False

    @property
    def is_full(self) -> bool:
        return len(self.rows) >= self.capacity

    def append(self, row: tuple) -> None:
        """Add a tuple to the page, marking it dirty."""
        if self.is_full:
            raise StorageError(f"page {self.page_id} is full")
        self.rows.append(row)
        self.dirty = True

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, rows={len(self.rows)}/{self.capacity},"
            f" dirty={self.dirty})"
        )
