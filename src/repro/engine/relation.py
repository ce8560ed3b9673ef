"""Relations: schema-tagged row collections, stored or streamed.

A :class:`Relation` takes one of three forms:

* *heap-backed* — pages on the simulated disk, read through the buffer
  pool (a stored table, a registered temp, a sort's output); re-iterable,
  every scan charged its page reads;
* *in-memory* — a small list (e.g. System R's cached type-N inner
  result); re-iterable, no I/O;
* a *stream* — what a physical operator returns: a schema, a one-shot
  batch iterator and an order claim.  Nothing happens until it is
  read, it occupies no page, and reading it a second time raises
  :class:`~repro.errors.ExecutionError`: a consumer that must rescan
  its input (the nested-loop inner, a sort's runs) is handed a stored
  relation instead.  The paper's "restriction and projection ... cost
  = read input + write output" is then one pass: the operators of a
  block read their inputs once, and only what the block must keep is
  written (:meth:`Relation.materialize_batches`).  A block's result is
  written only when it is a temp; a statement's final block is read
  by its caller straight off the stream (:meth:`Relation.to_list`),
  and no page is written for the answer.

Batch access.  A heap-backed relation is read in whole pages, one
``get_page`` at a time in file order, each page's rows copied out
before the next is read, so every batch costs exactly its pages' reads
through the buffer pool and the paper's cost unit is kept exactly.
Two batch sizes follow from who reads:

* :meth:`Relation.iter_runs` — *runs* of whole pages, at least
  ``_RUN_ROWS`` rows each — for the readers of one input at a time:
  a restriction's source, both sides of a hash join, hash grouping and
  hash DISTINCT.  Their per-call work (a kernel, a probe, an append) is
  paid once per run, not once per page.  No frame is held across a
  run, so the pool faults exactly as it does page by page; only a
  downstream write moves, a few pages later, and its pages are then
  younger in the LRU.
* :meth:`Relation.iter_batches` — one batch per page — for every other
  reader, and it must be so for those whose reads interleave with
  another input's or with their own writes: a merge join's two inputs,
  a nested-loop (or index) join's outer, a sort's run formation.
  Reading a run ahead there moves *reads*: coalescing every scan into
  160-row batches made 8 cells of the B = 8 page schedule rise
  (``j`` / ``nested`` 100 → 114 reads, ``depth2`` / ``nested``
  267 → 277), all on nested-loop and merge plans — tried and rejected.

In-memory relations are chunked into fixed-size batches (they cost no
I/O either way); a stream's batches are whatever its operator emits
per input batch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from repro.engine.schema import RowSchema
from repro.errors import ExecutionError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile

__all__ = [
    "NO_ORDER",
    "Order",
    "Relation",
    "describe_order",
    "temp_rows_per_page",
]

#: Nominal page size in bytes for temp relations (matches catalog sizing).
_TEMP_PAGE_BYTES = 1024
_TEMP_COLUMN_BYTES = 8

#: Batch size for in-memory relations (no page geometry to follow).
_MEMORY_BATCH_ROWS = 256

#: Least rows in a run of whole heap pages (:meth:`Relation.iter_runs`).
_RUN_ROWS = 160

#: The order a relation's rows are known to be in: ``(column positions,
#: unique)`` — non-decreasing under :func:`repro.engine.sort.order_key`
#: on those columns; when ``unique`` they are a key of the relation, so
#: the order also covers every longer column list that starts with them.
Order = tuple[tuple[int, ...], bool]
NO_ORDER: Order = ((), False)


def describe_order(order: Order, names: Sequence[str]) -> str:
    """An order spelled with column names: ``(A, B) (unique)``."""
    columns, unique = order
    text = "(" + ", ".join(names[c] for c in columns) + ")"
    return text + " (unique)" if unique else text


def temp_rows_per_page(num_columns: int) -> int:
    """Default tuples-per-page for a temp relation of given width.

    Matches the catalog's sizing rule (``page_bytes // row_width``).  A
    zero-column schema is legal — an EXISTS-style probe projects no
    columns — but its tuples still occupy a slot each, so it is sized
    explicitly like a one-column temp rather than falling through an
    implicit ``max``.
    """
    if num_columns < 0:
        raise ValueError(f"negative column count: {num_columns}")
    if num_columns == 0:
        # Degenerate width: a row of zero columns still occupies one
        # tuple slot; size it exactly like a one-column temp.
        num_columns = 1
    return max(1, _TEMP_PAGE_BYTES // (_TEMP_COLUMN_BYTES * num_columns))


class Relation:
    """A named, schema-tagged collection of tuples (module docstring:
    stored on a heap, held in memory, or streamed once)."""

    #: Claimed by the producing operator or the catalog entry scanned.
    order: Order = NO_ORDER

    def __init__(
        self,
        schema: RowSchema,
        heap: HeapFile | None = None,
        rows: list[tuple] | None = None,
        name: str | None = None,
        owns_heap: bool = True,
        order: Order = NO_ORDER,
        batches: Iterator[list[tuple]] | None = None,
    ) -> None:
        if [heap, rows, batches].count(None) != 2:
            raise ValueError("exactly one of heap/rows/batches must be given")
        self.schema = schema
        self.heap = heap
        self._rows = rows
        #: A stream's batch iterator; None once handed out (or never).
        self._batches = batches
        self.is_stream = batches is not None
        #: False for a view over a heap some catalog, session or
        #: registry owns (``scan_table``): dropping it frees nothing.
        self.owns_heap = owns_heap
        self.order = order
        self.name = name or (heap.name if heap is not None else None)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: RowSchema, rows: Iterable[tuple], name: str | None = None
    ) -> "Relation":
        """An in-memory relation (no page I/O when scanned)."""
        return cls(schema, rows=list(rows), name=name)

    @classmethod
    def stream(
        cls,
        schema: RowSchema,
        batches: Iterable[list[tuple]],
        name: str | None = None,
        order: Order = NO_ORDER,
    ) -> "Relation":
        """A one-shot stream of row batches (an operator's output)."""
        return cls(schema, name=name, order=order, batches=iter(batches))

    @classmethod
    def _build(
        cls,
        schema: RowSchema,
        fill: Callable[[HeapFile], None],
        buffer: BufferPool,
        rows_per_page: int | None,
        name: str | None,
        order: Order,
    ) -> "Relation":
        """Fill and flush a fresh heap file; free it if that fails.

        Nobody else has seen the heap until this returns, so a
        half-built temp has no owner to free it but us.
        """
        capacity = rows_per_page or temp_rows_per_page(len(schema))
        heap = HeapFile(buffer, rows_per_page=capacity, name=name)
        try:
            fill(heap)
            heap.flush()
        except BaseException:
            heap.truncate()
            raise
        return cls(schema, heap=heap, name=name, order=order)

    @classmethod
    def materialize(
        cls,
        schema: RowSchema,
        rows: Iterable[tuple],
        buffer: BufferPool,
        rows_per_page: int | None = None,
        name: str | None = None,
        order: Order = NO_ORDER,
    ) -> "Relation":
        """Write rows into a fresh heap file (charges page writes).

        This is the paper's "create a temporary relation" step: building
        a P-page temp table costs P page writes once flushed.
        """
        return cls._build(
            schema, lambda heap: heap.extend(rows), buffer, rows_per_page,
            name, order,
        )

    @classmethod
    def materialize_batches(
        cls,
        schema: RowSchema,
        batches: Iterable[list[tuple]],
        buffer: BufferPool,
        rows_per_page: int | None = None,
        name: str | None = None,
        order: Order = NO_ORDER,
    ) -> "Relation":
        """Materialize from row batches (the batch operators' path).

        Produces exactly the pages :meth:`materialize` would for the
        same row stream — same capacity, same page count, same flush
        writes.
        """

        def fill(heap: HeapFile) -> None:
            for batch in batches:
                heap.append_rows(batch)

        return cls._build(schema, fill, buffer, rows_per_page, name, order)

    def store(self, buffer: BufferPool) -> "Relation":
        """This relation written to a fresh heap (a stream's one read):
        what a consumer that rescans its input, or keeps it, is given."""
        return Relation.materialize_batches(
            self.schema, self.iter_batches(), buffer, name=self.name,
            order=self.order,
        )

    # -- access --------------------------------------------------------------

    def __iter__(self) -> Iterator[tuple]:
        if self.heap is not None:
            return self.heap.scan()
        if self.is_stream:
            return chain.from_iterable(self.iter_batches())
        return iter(self._rows)

    def iter_batches(self) -> Iterator[list[tuple]]:
        """Yield rows in batches; heap relations batch page by page
        (the module docstring says which readers need that)."""
        if self.heap is not None:
            return self.heap.scan_pages()
        if self.is_stream:
            batches, self._batches = self._batches, None
            if batches is None:
                raise ExecutionError(
                    f"stream {self.name or '?'} was already read: a stream "
                    "is read once (store it to scan it again)"
                )
            return batches
        return self._memory_batches()

    def iter_runs(self) -> Iterator[list[tuple]]:
        """Yield rows in batches; heap relations in runs of whole pages
        holding at least ``_RUN_ROWS`` rows, read exactly as
        :meth:`iter_batches` reads them (for readers of one input)."""
        if self.heap is not None:
            return self.heap.scan_pages(_RUN_ROWS)
        return self.iter_batches()

    def _memory_batches(self) -> Iterator[list[tuple]]:
        rows = self._rows
        for start in range(0, len(rows), _MEMORY_BATCH_ROWS):
            yield rows[start : start + _MEMORY_BATCH_ROWS]

    def to_list(self) -> list[tuple]:
        return list(self)

    @property
    def is_heap_backed(self) -> bool:
        return self.heap is not None

    @property
    def num_rows(self) -> int:
        if self.heap is not None:
            return self.heap.num_rows
        if self.is_stream:
            raise ExecutionError(f"stream {self.name or '?'} has no row count")
        return len(self._rows)

    @property
    def num_pages(self) -> int:
        """Page count (``Pk``); in-memory relations and streams occupy
        zero pages."""
        if self.heap is not None:
            return self.heap.num_pages
        return 0

    def drop(self) -> None:
        """Free the backing pages, if this relation owns any.

        A no-op for in-memory relations, streams and views over a heap that
        belongs to a catalog (a stored table, a registered temp): only
        the owner of a heap may free it.
        """
        if self.heap is not None and self.owns_heap:
            self.heap.truncate()

    def __repr__(self) -> str:
        if self.is_stream:
            return f"Relation({self.name or '?'}, stream)"
        backing = "heap" if self.is_heap_backed else "memory"
        return (
            f"Relation({self.name or '?'}, {backing}, rows={self.num_rows},"
            f" pages={self.num_pages})"
        )
