"""Physical operators over :class:`~repro.engine.relation.Relation`.

These are the building blocks of the *transformed* plans: the paper
evaluates a rewritten query as a sequence of temp-table builds
(restrict/project → sort → join → group) followed by a final join.
Each operator reads its inputs through the buffer pool and materializes
its output into a fresh heap file, so the page I/O of an entire plan is
measured end to end.

Join methods provided (section 7 considers both at each join step):

* :func:`nested_loop_join` — the "nested iteration" join: the right
  input is rescanned once per left tuple; cheap when it fits in the
  buffer, quadratic in I/O when it does not.
* :func:`merge_join` — sort-merge join over inputs sorted on the join
  key; supports the non-equality operators of section 5.3 and the
  left-outer mode of section 5.2 ("the outer join includes all values
  from columns participating in the join, with NULLs in the opposite
  column if there is no match").
* :func:`hash_join` — build/probe equi join needing **no sorted
  inputs**: the right input is read once into an in-memory hash table
  with duplicate chains, then the left input probes it.  An extension
  beyond the paper's section-7 repertoire (its cost model considers
  only nested-loop and sort-merge); inner and left-outer modes, the
  null-safe ``<=>`` key regime, and in-join residual predicates all
  match :func:`merge_join` semantics exactly.

Hash-based grouping (:func:`hash_group_aggregate`) and duplicate
elimination (:func:`hash_distinct`) likewise avoid the sort their
merge-based counterparts require.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterator, Sequence

from repro.catalog.catalog import TableEntry
from repro.engine.aggregate import AggSpec, apply_specs
from repro.engine.compile import try_compile_predicate, try_compile_scalar
from repro.engine.expression import EvalContext, eval_predicate, eval_scalar
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import _orderable
from repro.errors import ExecutionError
from repro.sql.ast import Expr
from repro.storage.buffer import BufferPool

JoinMode = str  # "inner" | "left"


def scan_table(entry: TableEntry, binding: str | None = None) -> Relation:
    """A relation view over a stored table (reads go through the buffer).

    The catalog owns the heap: dropping the view frees nothing.
    """
    schema = RowSchema.for_table(
        binding or entry.schema.name, entry.schema.column_names
    )
    return Relation(
        schema, heap=entry.heap, name=entry.schema.name, owns_heap=False
    )


def restrict_project(
    source: Relation,
    buffer: BufferPool,
    predicate: Expr | None = None,
    projections: Sequence[tuple[Expr, str | None, str]] | None = None,
    name: str | None = None,
    rows_per_page: int | None = None,
) -> Relation:
    """One-pass selection + projection, materialized to a new heap.

    This is the paper's "restriction and projection of the inner table"
    (building ``Rt3``/``TEMP2``): cost = read input + write output.

    Args:
        predicate: WHERE predicate over the source schema (no subqueries).
        projections: output columns as ``(expr, qualifier, name)``
            triples; None keeps the source schema unchanged.
    """
    source_schema = source.schema
    if projections is None:
        out_schema = source_schema
        compute: Callable[[tuple], tuple] | None = None
    else:
        out_schema = RowSchema((qual, col) for _, qual, col in projections)
        compiled_items = [
            try_compile_scalar(expr, source_schema) for expr, _, _ in projections
        ]
        if all(fn is not None for fn in compiled_items):

            def compute(row: tuple) -> tuple:
                return tuple(fn(row, None) for fn in compiled_items)

        else:

            def compute(row: tuple) -> tuple:
                context = EvalContext(row, source_schema)
                return tuple(
                    eval_scalar(expr, context) for expr, _, _ in projections
                )

    if predicate is None:
        keep: Callable[[tuple], object] | None = None
    else:
        keep = try_compile_predicate(predicate, source_schema)
        if keep is None:

            def keep(row: tuple, _outer=None) -> object:
                return eval_predicate(predicate, EvalContext(row, source_schema))

    def generate() -> Iterator[tuple]:
        for row in source:
            if keep is not None and keep(row, None) is not True:
                continue
            yield row if compute is None else compute(row)

    return Relation.materialize(
        out_schema, generate(), buffer, rows_per_page=rows_per_page, name=name
    )


def nested_loop_join(
    left: Relation,
    right: Relation,
    buffer: BufferPool,
    predicate: Expr | None = None,
    mode: JoinMode = "inner",
    name: str | None = None,
) -> Relation:
    """Join by rescanning ``right`` once per ``left`` tuple.

    The rescans go through the buffer pool, so when ``right`` fits in
    ``B - 1`` pages the measured cost collapses to one read of each
    input — exactly the distinction the paper's section 7.2 draws.
    """
    out_schema = left.schema + right.schema
    right_nulls = (None,) * len(right.schema)
    keep = _row_predicate(predicate, out_schema)

    def generate() -> Iterator[tuple]:
        for left_row in left:
            matched = False
            for right_row in right:
                combined = left_row + right_row
                if keep is None or keep(combined) is True:
                    matched = True
                    yield combined
            if mode == "left" and not matched:
                yield left_row + right_nulls

    return Relation.materialize(out_schema, generate(), buffer, name=name)


def _row_predicate(
    predicate: Expr | None, schema: RowSchema
) -> Callable[[tuple], object] | None:
    """A per-row predicate callable: compiled when possible, interpreted
    otherwise (None when there is no predicate at all)."""
    if predicate is None:
        return None
    compiled = try_compile_predicate(predicate, schema)
    if compiled is not None:
        return lambda row: compiled(row, None)
    return lambda row: eval_predicate(predicate, EvalContext(row, schema))


def merge_join(
    left: Relation,
    right: Relation,
    buffer: BufferPool,
    left_key: Sequence[int],
    right_key: Sequence[int],
    op: str = "=",
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool = False,
    residual: Callable[[tuple], object] | None = None,
) -> Relation:
    """Sort-merge join; inputs must already be sorted on their keys.

    For ``op="="`` this is the classic streaming merge join (multi-column
    keys supported).  For the non-equality operators of section 5.3
    (single-column keys) the right side is kept as a sorted array and
    binary-searched, which costs the same page I/O the paper's model
    charges: one read of each input plus the output write.

    ``mode="left"`` is the outer join of section 5.2: left tuples with
    no match appear once, NULL-padded on the right — the fix that lets
    COUNT see its empty groups.

    ``null_safe=True`` (equi joins only) makes NULL keys join NULL keys
    (``<=>`` semantics); both inputs sort NULLs first, so the merge
    stays aligned.

    ``residual`` is an extra predicate over the combined row, evaluated
    *as part of the join condition*: a right row only counts as a match
    when it returns True.  This matters for ``mode="left"`` — filtering
    after an outer join would drop the NULL-padded rows (and fail to
    NULL-pad left rows whose only key matches flunk the residual).
    """
    if op == "=":
        generate = _merge_equi_join(
            left, right, list(left_key), list(right_key), mode, null_safe, residual
        )
    else:
        if len(left_key) != 1 or len(right_key) != 1:
            raise ExecutionError(
                f"theta merge join ({op}) supports single-column keys only"
            )
        if null_safe:
            raise ExecutionError("null-safe merge join requires the = operator")
        generate = _merge_theta_join(
            left, right, left_key[0], right_key[0], op, mode, residual
        )

    out_schema = left.schema + right.schema
    return Relation.materialize(out_schema, generate, buffer, name=name)


def _merge_equi_join(
    left: Relation,
    right: Relation,
    left_key: list[int],
    right_key: list[int],
    mode: JoinMode,
    null_safe: bool = False,
    residual: Callable[[tuple], object] | None = None,
) -> Iterator[tuple]:
    right_nulls = (None,) * len(right.schema)
    right_groups = _group_iterator(iter(right), right_key, keep_nulls=null_safe)
    current_key: tuple | None = None
    current_group: list[tuple] = []
    exhausted = False

    def advance_right_to(key: tuple) -> None:
        nonlocal current_key, current_group, exhausted
        while not exhausted and (current_key is None or current_key < key):
            try:
                current_key, current_group = next(right_groups)
            except StopIteration:
                exhausted = True
                current_group = []

    for left_row in left:
        if not null_safe and any(left_row[i] is None for i in left_key):
            if mode == "left":
                yield left_row + right_nulls
            continue
        key = tuple(_orderable(left_row[i]) for i in left_key)
        advance_right_to(key)
        matched = False
        if not exhausted and current_key == key:
            for right_row in current_group:
                combined = left_row + right_row
                if residual is not None and residual(combined) is not True:
                    continue
                matched = True
                yield combined
        if mode == "left" and not matched:
            yield left_row + right_nulls


def _group_iterator(
    rows: Iterator[tuple], key_columns: list[int], keep_nulls: bool = False
) -> Iterator[tuple[tuple, list[tuple]]]:
    """Yield ``(key, rows)`` groups from a key-sorted stream.

    Rows whose key contains NULL are dropped unless ``keep_nulls``: a
    NULL never equi-joins, but it does null-safe-join (NULLs sort first,
    so a NULL group streams out ahead of every value group).
    """
    current_key: tuple | None = None
    group: list[tuple] = []
    for row in rows:
        if not keep_nulls and any(row[i] is None for i in key_columns):
            continue
        key = tuple(_orderable(row[i]) for i in key_columns)
        if key != current_key:
            if current_key is not None:
                yield current_key, group
            current_key = key
            group = []
        group.append(row)
    if current_key is not None:
        yield current_key, group


def _merge_theta_join(
    left: Relation,
    right: Relation,
    left_key: int,
    right_key: int,
    op: str,
    mode: JoinMode,
    residual: Callable[[tuple], object] | None = None,
) -> Iterator[tuple]:
    right_nulls = (None,) * len(right.schema)
    # One sequential read of the right input; kept sorted in memory.
    right_rows = [row for row in right if row[right_key] is not None]
    right_keys = [_orderable(row[right_key]) for row in right_rows]

    for left_row in left:
        value = left_row[left_key]
        if value is None:
            if mode == "left":
                yield left_row + right_nulls
            continue
        key = _orderable(value)
        matches = _theta_range(right_rows, right_keys, key, op)
        matched = False
        for right_row in matches:
            combined = left_row + right_row
            if residual is not None and residual(combined) is not True:
                continue
            matched = True
            yield combined
        if mode == "left" and not matched:
            yield left_row + right_nulls


def _theta_range(
    rows: list[tuple], keys: list, key, op: str
) -> Iterator[tuple]:
    """Rows whose key satisfies ``row.key op left.key`` — note direction.

    The predicate form in the paper is ``inner.column op outer.column``
    (e.g. ``SUPPLY.PNUM < PARTS.PNUM``), with the *right* (inner) value
    on the left of the operator, so for op ``<`` we return right rows
    whose key is *less than* the probe key.
    """
    if op == "<":
        end = bisect.bisect_left(keys, key)
        return iter(rows[:end])
    if op == "<=":
        end = bisect.bisect_right(keys, key)
        return iter(rows[:end])
    if op == ">":
        start = bisect.bisect_right(keys, key)
        return iter(rows[start:])
    if op == ">=":
        start = bisect.bisect_left(keys, key)
        return iter(rows[start:])
    if op == "<>":
        start = bisect.bisect_left(keys, key)
        end = bisect.bisect_right(keys, key)
        return iter(rows[:start] + rows[end:])
    raise ExecutionError(f"unsupported theta-join operator {op!r}")


def hash_join(
    left: Relation,
    right: Relation,
    buffer: BufferPool,
    left_key: Sequence[int],
    right_key: Sequence[int],
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool = False,
    residual: Callable[[tuple], object] | None = None,
) -> Relation:
    """Hash equi join: build on ``right``, probe with ``left``.

    Neither input needs to be sorted.  The right input is read once and
    hashed on its key columns (duplicate keys chain in insertion
    order); each left row then probes the table.  Key equality follows
    SQL ``=``: a NULL in either key matches nothing — build rows with
    NULL keys are not even inserted, and probe rows with NULL keys
    produce no matches (but are NULL-padded under ``mode="left"``).

    ``null_safe=True`` switches both sides to ``<=>`` semantics: NULL
    keys hash and join like any other value (NULL <=> NULL is true).

    ``residual`` is evaluated over the combined row *as part of the
    join condition*, exactly as in :func:`merge_join`: under
    ``mode="left"`` a left row whose only key matches flunk the
    residual is NULL-padded rather than dropped.
    """
    out_schema = left.schema + right.schema
    right_nulls = (None,) * len(right.schema)
    build_key = list(right_key)
    probe_key = list(left_key)

    def generate() -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = {}
        for row in right:
            if not null_safe and any(row[i] is None for i in build_key):
                continue
            table.setdefault(tuple(row[i] for i in build_key), []).append(row)

        for left_row in left:
            matched = False
            if null_safe or not any(left_row[i] is None for i in probe_key):
                key = tuple(left_row[i] for i in probe_key)
                for right_row in table.get(key, ()):
                    combined = left_row + right_row
                    if residual is not None and residual(combined) is not True:
                        continue
                    matched = True
                    yield combined
            if mode == "left" and not matched:
                yield left_row + right_nulls

    return Relation.materialize(out_schema, generate(), buffer, name=name)


def hash_group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
) -> Relation:
    """Grouped aggregation by hashing — the input needs **no sort**.

    Same contract as :func:`group_aggregate` except groups are
    accumulated in a hash table and emitted in first-appearance order
    (NULL group keys form one group, as in SQL's GROUP BY).
    """
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    out_schema = RowSchema(out_names)
    group_cols = list(group_columns)
    agg_specs = list(specs)

    def generate() -> Iterator[tuple]:
        if not group_cols:
            rows = source.to_list()
            if rows or always_emit:
                yield tuple(apply_specs(rows, agg_specs))
            return
        groups: dict[tuple, list[tuple]] = {}
        for row in source:
            groups.setdefault(tuple(row[i] for i in group_cols), []).append(row)
        for key, rows in groups.items():
            yield key + tuple(apply_specs(rows, agg_specs))

    return Relation.materialize(out_schema, generate(), buffer, name=name)


def hash_distinct(
    source: Relation, buffer: BufferPool, name: str | None = None
) -> Relation:
    """Duplicate elimination by hashing (first occurrence kept, input
    order preserved) — the hash counterpart of sort-unique."""

    def generate() -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in source:
            if row not in seen:
                seen.add(row)
                yield row

    return Relation.materialize(source.schema, generate(), buffer, name=name)


def group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
) -> Relation:
    """Grouped aggregation over an input sorted on the group columns.

    Output rows are ``group key values + aggregate values`` with the
    given output schema.  With no group columns the whole input is one
    group; ``always_emit`` controls whether an empty ungrouped input
    yields the SQL scalar-aggregate row (COUNT = 0, others NULL).
    """
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    out_schema = RowSchema(out_names)
    group_cols = list(group_columns)
    agg_specs = list(specs)

    def generate() -> Iterator[tuple]:
        current_key: tuple | None = None
        group: list[tuple] = []
        saw_rows = False

        def emit(key: tuple | None, rows: list[tuple]) -> tuple:
            prefix = () if key is None else key
            return tuple(prefix) + tuple(apply_specs(rows, agg_specs))

        if not group_cols:
            rows = source.to_list()
            if rows or always_emit:
                yield emit(None, rows)
            return

        for row in source:
            saw_rows = True
            key = tuple(row[i] for i in group_cols)
            if current_key is None or key != current_key:
                if current_key is not None:
                    yield emit(current_key, group)
                current_key = key
                group = []
            group.append(row)
        if saw_rows:
            yield emit(current_key, group)

    return Relation.materialize(out_schema, generate(), buffer, name=name)


def index_nested_loop_join(
    left: Relation,
    index,
    right_schema: RowSchema,
    buffer: BufferPool,
    left_key: int,
    mode: JoinMode = "inner",
    name: str | None = None,
) -> Relation:
    """Join by probing an index on the right relation's join column.

    This is System R's classic accelerator for nested iteration: each
    left tuple costs an index-leaf probe plus the matching heap pages
    instead of a full rescan of the right relation.

    Args:
        index: a :class:`repro.storage.index.IsamIndex` on the right
            relation's join column.
        right_schema: schema of the right relation's rows.
        left_key: position of the join column in the left rows.
        mode: ``"inner"`` or ``"left"`` (NULL-padded) — note that using
            the outer mode here *before* applying the right relation's
            simple predicates reproduces the section 5.2 trap; see
            ``benchmarks/bench_index.py``.
    """
    out_schema = left.schema + right_schema
    right_nulls = (None,) * len(right_schema)

    def generate() -> Iterator[tuple]:
        for left_row in left:
            value = left_row[left_key]
            matched = False
            if value is not None:
                for right_row in index.lookup(value):
                    matched = True
                    yield left_row + right_row
            if mode == "left" and not matched:
                yield left_row + right_nulls

    return Relation.materialize(out_schema, generate(), buffer, name=name)


def project_columns(
    source: Relation,
    buffer: BufferPool,
    columns: Sequence[int],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
) -> Relation:
    """Positional projection, materialized (a cheap restrict_project)."""
    out_schema = RowSchema(out_names)
    cols = list(columns)

    def generate() -> Iterator[tuple]:
        for row in source:
            yield tuple(row[i] for i in cols)

    return Relation.materialize(out_schema, generate(), buffer, name=name)
