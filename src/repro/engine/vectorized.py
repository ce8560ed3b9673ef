"""Batch-at-a-time physical operators (the ``engine="vectorized"`` path).

Drop-in counterparts of the row operators in
:mod:`repro.engine.operators`, with the same signatures and the same
output relations, evaluated a batch at a time:

* inputs are consumed through :meth:`Relation.iter_batches` — one batch
  per heap page, so page-I/O accounting is identical to a row scan;
* each batch is transposed to columns and expressions run as **batch
  kernels** from :mod:`repro.engine.vector_compile`, amortizing
  dispatch over the whole batch instead of paying it per row;
* outputs are materialized through
  :meth:`Relation.materialize_batches`, which fills the same pages the
  row path would.

When an expression has no batch kernel (correlated reference, subquery,
compilation globally disabled), that one expression falls back to the
scalar closure path — compiled closure if available, interpreter
otherwise — over the selected rows, while the rest of the batch
pipeline stays columnar.  Under
:func:`~repro.engine.compile.interpreted_only` every expression takes
that fallback, so the toggle still measures interpreted evaluation.

Error-surfacing note: within one batch, kernels evaluate
column-at-a-time, so when several cells would each raise a
data-dependent error the *first* error surfaced can differ from the
row engine's row-at-a-time order.  The set of evaluated cells — and
hence whether an error occurs at all — is identical (AND/OR gate later
operands through selection vectors; see ``vector_compile``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from operator import itemgetter

from repro.engine.aggregate import AggSpec, apply_specs
from repro.engine.compile import compile_enabled, try_compile_scalar
from repro.engine.expression import EvalContext, eval_scalar
from repro.engine.operators import JoinMode, _row_predicate
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.sql.ast import And, ColumnRef, Comparison
from repro.engine.vector_compile import (
    referenced_indexes,
    try_compile_batch_predicate,
    try_compile_batch_scalar,
)
from repro.errors import ExecutionError
from repro.sql.ast import Expr
from repro.storage.buffer import BufferPool


def _columns(batch: list[tuple], width: int) -> list[tuple]:
    """Transpose a row batch to columns (width needed for empty batches)."""
    if not batch:
        return [()] * width
    return list(zip(*batch))


def _rows(columns: list[list], count: int) -> list[tuple]:
    """Transpose columns back to rows; zero columns → empty tuples."""
    if not columns:
        return [()] * count
    return list(zip(*columns))


def _scalar_fallback(
    expr: Expr, schema: RowSchema
) -> Callable[[tuple], object]:
    """Per-row scalar evaluation: compiled closure when available,
    interpreter otherwise (the per-expression CannotCompile fallback)."""
    compiled = try_compile_scalar(expr, schema)
    if compiled is not None:
        return lambda row: compiled(row, None)
    return lambda row: eval_scalar(expr, EvalContext(row, schema))


def _batch_scalar(
    expr: Expr, schema: RowSchema
) -> Callable[[list, list[tuple], "list[int] | None"], list]:
    """A column evaluator ``fn(cols, batch, sel)`` for one scalar.

    Uses the batch kernel when one compiles; otherwise evaluates the
    scalar closure (or interpreter) row by row over the selection.
    """
    kernel = try_compile_batch_scalar(expr, schema)
    if kernel is not None:
        return lambda cols, batch, sel: kernel(cols, len(batch), sel)
    row_fn = _scalar_fallback(expr, schema)

    def fallback(cols, batch, sel):
        if sel is None:
            return [row_fn(row) for row in batch]
        return [row_fn(batch[i]) for i in sel]

    return fallback


def _batch_mask(
    predicate: Expr, schema: RowSchema
) -> Callable[[list, list[tuple]], list]:
    """A full-batch predicate mask evaluator ``fn(cols, batch)``."""
    kernel = try_compile_batch_predicate(predicate, schema)
    if kernel is not None:
        return lambda cols, batch: kernel(cols, len(batch), None)
    row_fn = _row_predicate(predicate, schema)

    def fallback(cols, batch):
        return [row_fn(row) for row in batch]

    return fallback


def vectorized_restrict_project(
    source: Relation,
    buffer: BufferPool,
    predicate: Expr | None = None,
    projections: Sequence[tuple[Expr, str | None, str]] | None = None,
    name: str | None = None,
    rows_per_page: int | None = None,
) -> Relation:
    """Batch selection + projection; same contract as
    :func:`repro.engine.operators.restrict_project`."""
    source_schema = source.schema
    if projections is None:
        out_schema = source_schema
        evaluators = None
    else:
        out_schema = RowSchema((qual, col) for _, qual, col in projections)
        evaluators = [
            _batch_scalar(expr, source_schema) for expr, _, _ in projections
        ]
    mask_fn = (
        None if predicate is None else _batch_mask(predicate, source_schema)
    )

    def batches() -> Iterator[list[tuple]]:
        for batch in source.iter_batches():
            if not batch:
                continue
            cols = _columns(batch, len(source_schema))
            if mask_fn is None:
                sel: list[int] | None = None
                count = len(batch)
            else:
                mask = mask_fn(cols, batch)
                sel = [i for i, value in enumerate(mask) if value is True]
                if not sel:
                    continue
                count = len(sel)
            if evaluators is None:
                yield batch if sel is None else [batch[i] for i in sel]
            else:
                out_cols = [fn(cols, batch, sel) for fn in evaluators]
                yield _rows(out_cols, count)

    return Relation.materialize_batches(
        out_schema, batches(), buffer, rows_per_page=rows_per_page, name=name
    )


def _and_kernels(kernels: list) -> "Callable | None":
    """AND a list of mask kernels down to True/False (callers gating on
    ``is True`` never see the difference between False and unknown)."""
    if not kernels:
        return None
    if len(kernels) == 1:
        return kernels[0]

    def combined(cols, n, sel):
        result = kernels[0](cols, n, sel)
        for kernel in kernels[1:]:
            nxt = kernel(cols, n, sel)
            result = [
                a is True and b is True for a, b in zip(result, nxt)
            ]
        return result

    return combined


def vectorized_hash_join(
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
    """Batch build/probe hash equi join; same contract as
    :func:`repro.engine.operators.hash_join`.

    Build and probe consume page-sized batches; a single-column key
    avoids per-row tuple construction on both sides.  The residual
    stays a per-combined-row callable (it is the correlated part of the
    join condition), evaluated only on candidate matches.
    """
    out_schema = left.schema + right.schema
    right_nulls = (None,) * len(right.schema)
    build_key = list(right_key)
    probe_key = list(left_key)
    single = len(build_key) == 1 and len(probe_key) == 1

    # The executor's residual callable carries its source expression
    # (see _residual_callable); when it batch-compiles, candidate
    # matches are filtered a batch at a time instead of per row.  On
    # top of that, the residual's top-level conjuncts are decomposed:
    #
    # * an equality between one left and one right column folds into
    #   the composite hash key — plain ``=`` components skip NULL keys
    #   at build (NULL never matches), ``<=>`` components admit them
    #   (dict equality on None is exactly null-safe matching);
    # * a conjunct reading only right columns filters rows out of the
    #   hash table at build; only left columns, it masks probe rows —
    #   equivalent for inner and left-outer joins alike (a left row
    #   all of whose matches fail the residual pads with NULLs either
    #   way), and far cheaper than materializing candidates;
    # * anything left over keeps the candidate-time check (kernel when
    #   it compiles, scalar fallback otherwise).
    #
    # A pushed conjunct is evaluated at rows the row engine never
    # visits (non-candidates), so a data-dependent error could surface
    # where the row engine reports none, and a folded equality can no
    # longer raise the mixed-type error at all; the difftest grammar
    # generates no error-raising predicates (integer-only comparisons,
    # no division), so the legs still agree.  Decomposition is gated on
    # ``compile_enabled`` so the interpreted leg measures the row
    # engine's evaluation order faithfully.
    residual_kernel = None
    build_residual = probe_residual = None
    left_width = len(left.schema)
    # Leading ``nchecked`` key components never admit NULL (build rows
    # with NULL there are skipped); trailing components match NULL to
    # NULL via dict equality (null-safe join keys and ``<=>`` folds).
    nchecked = 0 if null_safe else len(build_key)
    expr = getattr(residual, "expr", None) if residual is not None else None
    if expr is not None and compile_enabled():
        schema = residual.schema
        conjuncts = (
            list(expr.operands) if isinstance(expr, And) else [expr]
        )
        eq_folds: list[tuple[int, int]] = []  # plain '=' components
        ns_folds: list[tuple[int, int]] = []  # '<=>' components
        left_parts: list = []
        right_parts: list = []
        leftover: list = []
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                li = referenced_indexes(conjunct.left, schema)
                ri = referenced_indexes(conjunct.right, schema)
                if li and ri:
                    (li,), (ri,) = li, ri
                    pair = None
                    if li < left_width <= ri:
                        pair = (li, ri - left_width)
                    elif ri < left_width <= li:
                        pair = (ri, li - left_width)
                    if pair is not None:
                        target = ns_folds if conjunct.null_safe else eq_folds
                        target.append(pair)
                        continue
            refs = referenced_indexes(conjunct, schema)
            kernel = (
                None
                if refs is None
                else try_compile_batch_predicate(conjunct, schema)
            )
            if kernel is None:
                leftover.append(conjunct)
            elif refs and all(i >= left_width for i in refs):
                right_parts.append(kernel)
            elif all(i < left_width for i in refs):
                left_parts.append(kernel)
            else:
                leftover.append(conjunct)
        if eq_folds or ns_folds or left_parts or right_parts:
            primary = list(zip(probe_key, build_key))
            checked = ([] if null_safe else primary) + eq_folds
            unchecked = (primary if null_safe else []) + ns_folds
            pairs = checked + unchecked
            probe_key = [p for p, _ in pairs]
            build_key = [b for _, b in pairs]
            nchecked = len(checked)
            single = len(build_key) == 1
            probe_residual = _and_kernels(left_parts)
            build_residual = _and_kernels(right_parts)
            if leftover:
                # Candidates were pre-filtered by the pushed conjuncts
                # (all True there), so re-checking the full residual on
                # them is redundant but correct; keep the original
                # whole-expression check for the leftovers.
                residual_kernel = try_compile_batch_predicate(expr, schema)
            else:
                residual = None
        else:
            residual_kernel = try_compile_batch_predicate(expr, schema)

    # Per-batch key extraction at C speed: a multi-index itemgetter
    # yields ready-made key tuples (a single-index one bare values) in
    # one ``map`` pass.
    build_getter = itemgetter(*build_key)
    probe_getter = itemgetter(*probe_key)

    def batch_keys(batch: list[tuple], getter) -> Sequence:
        return list(map(getter, batch))

    table: dict = {}
    get = table.get
    full_check = nchecked == len(build_key)
    # Kernel column positions follow the combined schema, so a pushed
    # build-side residual sees right columns behind a left-width pad.
    build_pad = [()] * left_width
    for batch in right.iter_batches():
        if not batch:
            continue
        if build_residual is not None:
            mask = build_residual(
                build_pad + list(zip(*batch)), len(batch), None
            )
            batch = [row for row, keep in zip(batch, mask) if keep is True]
            if not batch:
                continue
        for key, row in zip(batch_keys(batch, build_getter), batch):
            if nchecked and (
                (key is None)
                if single
                else (
                    None in key
                    if full_check
                    else None in key[:nchecked]
                )
            ):
                continue
            bucket = get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)

    left_outer = mode == "left"

    def batches() -> Iterator[list[tuple]]:
        for batch in left.iter_batches():
            if not batch:
                continue
            # Probe keys containing NULL simply miss the table (build
            # skipped NULL keys unless null_safe, and a tuple holding
            # None never equals one that doesn't), so no per-row NULL
            # test is needed on the probe side.
            keys = batch_keys(batch, probe_getter)
            out: list[tuple] = []
            if probe_residual is not None:
                # Left-only residual: mask the probe batch up front.  A
                # failing probe row has no surviving match by definition
                # (outer: pad; inner: skip), and output stays in probe
                # order so downstream order-sensitive operators (the
                # streaming sorted aggregate) see the row engine's
                # sequence.
                mask = probe_residual(list(zip(*batch)), len(batch), None)
                if left_outer:
                    append = out.append
                    extend = out.extend
                    for key, left_row, keep in zip(keys, batch, mask):
                        bucket = get(key) if keep is True else None
                        if bucket is None:
                            append(left_row + right_nulls)
                        else:
                            extend([left_row + r for r in bucket])
                else:
                    out = [
                        left_row + right_row
                        for key, left_row, keep in zip(keys, batch, mask)
                        if keep is True
                        if (bucket := get(key)) is not None
                        for right_row in bucket
                    ]
                if out:
                    yield out
                continue
            if residual_kernel is not None:
                # Candidate combined rows for the whole probe batch,
                # filtered by one kernel call; spans track which slice
                # belongs to which left row for the outer padding.
                if left_outer:
                    cand: list[tuple] = []
                    spans: list[tuple] = []
                    for key, left_row in zip(keys, batch):
                        start = len(cand)
                        bucket = get(key)
                        if bucket is not None:
                            cand.extend(
                                [left_row + r for r in bucket]
                            )
                        spans.append((left_row, start, len(cand)))
                else:
                    cand = [
                        left_row + right_row
                        for key, left_row in zip(keys, batch)
                        if (bucket := get(key)) is not None
                        for right_row in bucket
                    ]
                if cand:
                    cols = list(zip(*cand))
                    mask = residual_kernel(cols, len(cand), None)
                else:
                    mask = []
                if left_outer:
                    append = out.append
                    for left_row, start, end in spans:
                        matched = False
                        for i in range(start, end):
                            if mask[i] is True:
                                matched = True
                                append(cand[i])
                        if not matched:
                            append(left_row + right_nulls)
                else:
                    out = [
                        row
                        for row, value in zip(cand, mask)
                        if value is True
                    ]
            elif residual is not None:
                # Residual with no batch kernel: per-candidate scalar
                # fallback (compiled closure or interpreter).
                append = out.append
                for key, left_row in zip(keys, batch):
                    matched = False
                    bucket = get(key)
                    if bucket is not None:
                        for right_row in bucket:
                            combined = left_row + right_row
                            if residual(combined) is not True:
                                continue
                            matched = True
                            append(combined)
                    if left_outer and not matched:
                        append(left_row + right_nulls)
            elif left_outer:
                extend = out.extend
                append = out.append
                for key, left_row in zip(keys, batch):
                    bucket = get(key)
                    if bucket is None:
                        append(left_row + right_nulls)
                    else:
                        extend([left_row + r for r in bucket])
            else:
                out = [
                    left_row + right_row
                    for key, left_row in zip(keys, batch)
                    if (bucket := get(key)) is not None
                    for right_row in bucket
                ]
            if out:
                yield out

    return Relation.materialize_batches(out_schema, batches(), buffer, name=name)


def vectorized_group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
) -> Relation:
    """Batch grouped aggregation (hash accumulator).

    Groups are emitted in first-appearance order, which makes this a
    drop-in for *both* row counterparts: it matches
    :func:`~repro.engine.operators.hash_group_aggregate` by definition,
    and over a key-sorted input (the merge/nested plans) first
    appearance *is* sorted order, so it matches
    :func:`~repro.engine.operators.group_aggregate` too.  Aggregates
    are computed by the shared :func:`~repro.engine.aggregate.apply_specs`,
    so NULL handling, DISTINCT, and empty-group semantics are the row
    engine's, not a reimplementation.
    """
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    out_schema = RowSchema(out_names)
    group_cols = list(group_columns)
    agg_specs = list(specs)
    single = len(group_cols) == 1

    def batches() -> Iterator[list[tuple]]:
        if not group_cols:
            rows: list[tuple] = []
            for batch in source.iter_batches():
                rows.extend(batch)
            if rows or always_emit:
                yield [tuple(apply_specs(rows, agg_specs))]
            return
        groups: dict = {}
        setdefault = groups.setdefault
        if single:
            gc = group_cols[0]
            for batch in source.iter_batches():
                for row in batch:
                    setdefault(row[gc], []).append(row)
            out = [
                (key,) + tuple(apply_specs(rows, agg_specs))
                for key, rows in groups.items()
            ]
        else:
            for batch in source.iter_batches():
                for row in batch:
                    setdefault(
                        tuple(row[i] for i in group_cols), []
                    ).append(row)
            out = [
                key + tuple(apply_specs(rows, agg_specs))
                for key, rows in groups.items()
            ]
        if out:
            yield out

    return Relation.materialize_batches(out_schema, batches(), buffer, name=name)


def vectorized_sorted_group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
) -> Relation:
    """Batch streaming aggregation over a key-sorted input.

    The batch counterpart of
    :func:`~repro.engine.operators.group_aggregate`: groups completed
    within a batch are emitted with that batch, and the group straddling
    a batch boundary is carried and emitted with the batch that closes
    it — the row operator's behaviour at page granularity, so the
    output heap's pages interleave with source reads in the same order
    (identical buffer/LRU footprint, not just identical totals).
    """
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    out_schema = RowSchema(out_names)
    group_cols = list(group_columns)
    agg_specs = list(specs)

    def batches() -> Iterator[list[tuple]]:
        if not group_cols:
            rows: list[tuple] = []
            for batch in source.iter_batches():
                rows.extend(batch)
            if rows or always_emit:
                yield [tuple(apply_specs(rows, agg_specs))]
            return
        current_key: tuple | None = None
        group: list[tuple] = []
        saw_rows = False
        for batch in source.iter_batches():
            out: list[tuple] = []
            for row in batch:
                saw_rows = True
                key = tuple(row[i] for i in group_cols)
                if current_key is None or key != current_key:
                    if current_key is not None:
                        out.append(
                            current_key + tuple(apply_specs(group, agg_specs))
                        )
                    current_key = key
                    group = []
                group.append(row)
            if out:
                yield out
        if saw_rows:
            assert current_key is not None
            yield [current_key + tuple(apply_specs(group, agg_specs))]

    return Relation.materialize_batches(out_schema, batches(), buffer, name=name)


def vectorized_distinct(
    source: Relation, buffer: BufferPool, name: str | None = None
) -> Relation:
    """Batch duplicate elimination, first occurrence kept (the batch
    counterpart of :func:`~repro.engine.operators.hash_distinct`)."""

    def batches() -> Iterator[list[tuple]]:
        seen: set[tuple] = set()
        update = seen.update
        for batch in source.iter_batches():
            # dict.fromkeys dedupes within the batch preserving first
            # occurrence at C speed; the comprehension then drops rows
            # already seen in earlier batches.
            out = [row for row in dict.fromkeys(batch) if row not in seen]
            update(out)
            if out:
                yield out

    return Relation.materialize_batches(
        source.schema, batches(), buffer, name=name
    )
