"""Physical operators over :class:`~repro.engine.relation.Relation`.

These are the building blocks of the *transformed* plans: the paper
evaluates a rewritten query as a sequence of temp-table builds
(restrict/project → sort → join → group) followed by a final join.
Every operator here returns a one-shot *stream*
(:meth:`Relation.stream`): it reads its inputs through the buffer pool
as the stream is pulled, a batch at a time, and writes nothing.  Only
:func:`~repro.engine.sort.external_sort` writes (its runs and its
output); what else a block keeps — a temp's result, a nested-loop
inner — the executor writes
(:class:`~repro.optimizer.executor.SingleLevelExecutor`).
So the page I/O of an entire plan is still measured end to end, and a
restriction, a projection and the joins between them cost one pass.

Join methods provided (section 7 considers both at each join step):

* :func:`nested_loop_join` — the "nested iteration" join: the right
  input is rescanned once per left tuple, so it must be a stored
  relation (a stream raises on its second read); cheap when it fits in
  the buffer, quadratic in I/O when it does not.
* :func:`merge_join` — sort-merge join over inputs sorted on the join
  key; supports the non-equality operators of section 5.3 and the
  left-outer mode of section 5.2 ("the outer join includes all values
  from columns participating in the join, with NULLs in the opposite
  column if there is no match").
* :func:`hash_join` — build/probe equi join needing **no sorted
  inputs**: the right input is read once into an in-memory hash table
  with duplicate chains, then the left input probes it.  An extension
  beyond the paper's section-7 repertoire (its cost model considers
  only nested-loop and sort-merge); the join modes, the null-safe
  ``<=>`` key regime, and in-join residual predicates all match
  :func:`merge_join` semantics exactly.

All three take ``mode="inner"``, ``"left"`` (the outer join of section
5.2) or ``"semi"``: a left row comes out once, alone, when some right
row satisfies the key *and* the residual — what ``x IN (SELECT ...)``
means for bags, where Kim's Lemma 1 (``IN`` → ``=``) holds for sets
only.  A semi join's output is a subsequence of its left input: the
left schema, the left order, uniqueness kept.

Hash-based grouping (:func:`hash_group_aggregate`) and duplicate
elimination (:func:`hash_distinct`) likewise avoid the sort their
merge-based counterparts require.

**Batch at a time.**  An operator that reads one input at a time —
:func:`restrict_project`, both sides of :func:`hash_join`,
:func:`hash_group_aggregate` and :func:`hash_distinct` — consumes it
through :meth:`Relation.iter_runs`: runs of whole heap pages, about 160
rows, so its kernel, probe and append run once per run.  The other
operators take :meth:`Relation.iter_batches`, one page per batch, and
the merge join, the nested-loop and index joins and the sort's run
formation must: they interleave their reads with another input's or
with their own writes, and running them in runs moved page *reads* on
the B = 8 page schedule (tried and rejected; :mod:`repro.engine.relation`
has the numbers).  Either way a batch is its pages' reads, in file
order, so page I/O is exactly a row scan's.  Each operator emits one
output batch per input batch.
:func:`restrict_project` and the hash join transpose each batch to
columns and run expressions as the batch kernels of
:mod:`repro.engine.vector_compile`.

Restrict/project and the hash-join probe are each one pure
``batch -> output rows`` body (:func:`restrict_project_body`,
:func:`hash_probe_body`), which the operators here drive over
``iter_runs()``.

**Error surfacing** (the contract, DESIGN §4b).  Kernels evaluate a
batch column at a time, so when several cells of one batch would each
raise, *which* error surfaces first is unspecified; whether one surfaces
is not — AND/OR gate their later operands through selection vectors, so
exactly the cells a row-at-a-time evaluation would touch are evaluated.
The hash join is the one exception: a residual conjunct pushed to the
build or probe side is evaluated on rows that never become candidate
matches (so it can raise where a candidate-only check would not), and a
column equality folded into the hash key can no longer raise the
mixed-type comparison error at all.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, groupby, takewhile
from operator import itemgetter

from repro.catalog.catalog import TableEntry
from repro.engine.aggregate import AggSpec, apply_specs
from repro.engine.compile import compile_predicate
from repro.engine.relation import NO_ORDER, Order, Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import compares_raw, orderable, value_types
from repro.engine.vector_compile import (
    compile_batch_predicate,
    compile_batch_scalar,
    referenced_indexes,
)
from repro.errors import BindError, ExecutionError
from repro.sql.ast import And, ColumnRef, Comparison, Expr

JoinMode = str  # "inner" | "left" | "semi"


def _join_output(
    left: Relation, right: Relation, mode: JoinMode, ordered: tuple[int, ...]
) -> tuple[RowSchema, Order]:
    """A join's output schema and order claim; ``ordered`` is the column
    order an inner or outer join's rows come out in (a left row may
    repeat there, so it is never a key)."""
    if mode == "semi":
        return left.schema, left.order
    return left.schema + right.schema, (ordered, False)


def scan_table(entry: TableEntry, binding: str | None = None) -> Relation:
    """A relation view over a stored table (reads go through the buffer).

    The catalog owns the heap: dropping the view frees nothing.
    """
    schema = RowSchema.for_table(
        binding or entry.schema.name, entry.schema.column_names
    )
    return Relation(
        schema, heap=entry.heap, name=entry.schema.name, owns_heap=False,
        order=entry.order,
    )


def project_order(order: Order, columns: Sequence[int | None]) -> Order:
    """The order a projection keeps: ``columns`` are the source
    positions the output columns copy (None: computed).  The source's
    order survives as far as its leading columns are projected, and
    stays a key only when all of them are."""
    cols = list(columns)
    ordered, unique = order
    kept = list(takewhile(cols.__contains__, ordered))
    return (tuple(map(cols.index, kept)), unique and len(kept) == len(ordered))


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


def restrict_project_body(
    schema: RowSchema,
    predicate: Expr | None,
    projections: Sequence[tuple[Expr, str | None, str]] | None,
) -> tuple[RowSchema, Callable[[list[tuple]], list[tuple]]]:
    """Selection + projection as ``(output schema, batch -> output rows)``.

    The returned function is pure and stateless.  A batch is transposed
    to columns only for the kernels that need them: a projection of
    plain columns picks them from the selected rows.
    """
    evaluators = pick = None
    if projections is None:
        out_schema = schema
    else:
        out_schema = RowSchema((qual, col) for _, qual, col in projections)
        pick = _column_picker(_column_positions(schema, projections))
        if pick is None:
            evaluators = [
                compile_batch_scalar(expr, schema) for expr, _, _ in projections
            ]
    mask_fn = (
        None if predicate is None else compile_batch_predicate(predicate, schema)
    )
    width = len(schema)

    def process(batch: list[tuple]) -> list[tuple]:
        if not batch:
            return []
        n = len(batch)
        sel: list[int] | None = None
        cols = None
        if mask_fn is not None:
            cols = _columns(batch, width)
            mask = mask_fn(cols, n, None)
            sel = [i for i, value in enumerate(mask) if value is True]
            if not sel:
                return []
        if evaluators is None:
            rows = batch if sel is None else [batch[i] for i in sel]
            return rows if pick is None else pick(rows)
        if cols is None:
            cols = _columns(batch, width)
        count = n if sel is None else len(sel)
        return _rows([fn(cols, n, sel) for fn in evaluators], count)

    return out_schema, process


def _column_positions(
    schema: RowSchema, projections: Sequence[tuple[Expr, str | None, str]]
) -> list[int | None]:
    """The ``schema`` column each projection copies; None where it
    computes a value or names no one column."""
    positions: list[int | None] = []
    for expr, _, _ in projections:
        try:
            positions.append(
                schema.try_index_of(expr) if isinstance(expr, ColumnRef) else None
            )
        except BindError:
            positions.append(None)
    return positions


def _column_picker(
    positions: list[int | None],
) -> Callable[[list[tuple]], list[tuple]] | None:
    """``rows -> projected rows`` when every projection copies a column
    (None otherwise: the kernels evaluate them, and an unresolvable
    column raises only on a row, as they do)."""
    if None in positions:
        return None
    if len(positions) == 1:
        (only,) = positions
        return lambda rows: [(row[only],) for row in rows]
    if not positions:
        return lambda rows: [()] * len(rows)
    getter = itemgetter(*positions)
    return lambda rows: list(map(getter, rows))


def _nonempty(
    process: Callable[[list[tuple]], list[tuple]],
    batches: Iterator[list[tuple]],
) -> Iterator[list[tuple]]:
    """Drive a per-batch body over a batch stream, skipping empty output."""
    for batch in batches:
        rows = process(batch)
        if rows:
            yield rows


def restrict_project(
    source: Relation,
    predicate: Expr | None = None,
    projections: Sequence[tuple[Expr, str | None, str]] | None = None,
    name: str | None = None,
) -> Relation:
    """One-pass selection + projection, as a stream.

    This is the paper's "restriction and projection of the inner table"
    (building ``Rt3``/``TEMP2``): cost = read input + write output —
    the read is this stream's, the write whoever stores it.

    Args:
        predicate: WHERE predicate over the source schema (no subqueries).
        projections: output columns as ``(expr, qualifier, name)``
            triples; None keeps the source schema unchanged.  A column
            reference carries the source's order through
            (:func:`project_order`).  With no predicate, a projection
            that copies every column in place is a relabel: the
            batches pass through untouched.
    """
    out_schema, process = restrict_project_body(
        source.schema, predicate, projections
    )
    order = source.order
    batches = source.iter_runs()
    if projections is not None:
        positions = _column_positions(source.schema, projections)
        order = project_order(order, positions)
        if predicate is None and positions == list(range(len(source.schema))):
            return Relation.stream(out_schema, filter(None, batches), name, order)
    return Relation.stream(out_schema, _nonempty(process, batches), name, order)


def nested_loop_join(
    left: Relation,
    right: Relation,
    predicate: Expr | None = None,
    mode: JoinMode = "inner",
    name: str | None = None,
) -> Relation:
    """Join by rescanning ``right`` once per ``left`` tuple.

    The rescans go through the buffer pool, so when ``right`` fits in
    ``B - 1`` pages the measured cost collapses to one read of each
    input — exactly the distinction the paper's section 7.2 draws.
    ``right`` must be stored (a heap or a list): a stream is read once.
    """
    if right.is_stream:
        raise ExecutionError(
            f"nested_loop_join rescans its right input; {right.name} is a "
            "stream (store it first)"
        )
    right_nulls = (None,) * len(right.schema)
    keep = _row_predicate(predicate, left.schema + right.schema)
    semi = mode == "semi"
    left_batches = left.iter_batches()

    def batches() -> Iterator[list[tuple]]:
        for batch in left_batches:
            out: list[tuple] = []
            for left_row in batch:
                matched = False
                for right_row in right:
                    combined = left_row + right_row
                    if keep is None or keep(combined) is True:
                        matched = True
                        if semi:
                            break  # the rest of this rescan is not read
                        out.append(combined)
                if semi:
                    if matched:
                        out.append(left_row)
                elif mode == "left" and not matched:
                    out.append(left_row + right_nulls)
            if out:
                yield out

    out_schema, order = _join_output(left, right, mode, left.order[0])
    return Relation.stream(out_schema, batches(), name, order)


def _regimes(null_safe: "bool | Sequence[bool]", width: int) -> list[bool]:
    """Per-key-column NULL regime — True: NULL joins NULL (``<=>``),
    False: NULL matches nothing (``=``); one bool covers every column."""
    if isinstance(null_safe, bool):
        return [null_safe] * width
    return list(null_safe)


def _row_predicate(
    predicate: Expr | None, schema: RowSchema
) -> Callable[[tuple], object] | None:
    """A per-row predicate callable (None when there is no predicate)."""
    if predicate is None:
        return None
    compiled = compile_predicate(predicate, schema)
    return lambda row: compiled(row, None)


def merge_join(
    left: Relation,
    right: Relation,
    left_key: Sequence[int],
    right_key: Sequence[int],
    op: str = "=",
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool | Sequence[bool] = False,
    residual: Callable[[tuple], object] | None = None,
) -> Relation:
    """Sort-merge join; inputs must already be sorted on their keys.

    For ``op="="`` this is the classic streaming merge join (multi-column
    keys supported).  For the non-equality operators of section 5.3
    (single-column keys) the right side is kept as a sorted array and
    binary-searched, which costs the same page I/O the paper's model
    charges: one read of each input (the output write is whoever
    stores the stream's).

    ``mode="left"`` is the outer join of section 5.2: left tuples with
    no match appear once, NULL-padded on the right — the fix that lets
    COUNT see its empty groups.  ``mode="semi"`` emits each left tuple
    that has a match once, without the right columns.

    ``null_safe`` (equi joins only) is the NULL regime per key column —
    one bool for all of them — where True makes NULL join NULL (``<=>``
    semantics); both inputs sort NULLs first, so the merge stays aligned
    whatever the mix.

    ``residual`` is an extra predicate over the combined row, evaluated
    *as part of the join condition*: a right row only counts as a match
    when it returns True.  This matters for ``mode="left"`` — filtering
    after an outer join would drop the NULL-padded rows (and fail to
    NULL-pad left rows whose only key matches flunk the residual) — and
    for ``mode="semi"``, whose output has no right columns to filter on.
    """
    regimes = _regimes(null_safe, len(left_key))
    outer_pad = (None,) * len(right.schema) if mode == "left" else None
    left_batches, right_batches = left.iter_batches(), right.iter_batches()
    if op == "=":
        batches = _merge_equi_join(
            left_batches, right_batches, list(left_key), list(right_key),
            outer_pad, mode == "semi", regimes, residual,
        )
    else:
        if len(left_key) != 1 or len(right_key) != 1:
            raise ExecutionError(
                f"theta merge join ({op}) supports single-column keys only"
            )
        if any(regimes):
            raise ExecutionError("null-safe merge join requires the = operator")
        batches = _merge_theta_join(
            left_batches, right_batches, left_key[0], right_key[0], op,
            outer_pad, mode == "semi", residual,
        )
    out_schema, order = _join_output(left, right, mode, tuple(left_key))
    return Relation.stream(out_schema, batches, name, order)


def _joined(
    left_row: tuple,
    matches: Sequence[tuple],
    residual: Callable[[tuple], object] | None,
    outer_pad: tuple | None,
    semi: bool,
) -> list[tuple]:
    """One left row's output: its surviving matches, or — outer join,
    none survived — the row NULL-padded; semi join: the row itself,
    when any survives."""
    if semi:
        if residual is None:
            hit = bool(matches)
        else:
            hit = any(residual(left_row + r) is True for r in matches)
        return [left_row] if hit else []
    out = [left_row + right_row for right_row in matches]
    if residual is not None:
        out = [combined for combined in out if residual(combined) is True]
    if not out and outer_pad is not None:
        out.append(left_row + outer_pad)
    return out


def _merge_equi_join(
    left_batches: Iterator[list[tuple]],
    right_batches: Iterator[list[tuple]],
    left_key: list[int],
    right_key: list[int],
    outer_pad: tuple | None,
    semi: bool,
    null_safe: Sequence[bool],
    residual: Callable[[tuple], object] | None = None,
) -> Iterator[list[tuple]]:
    """The output rows of each left batch that has any.

    Keys are compared raw.  Both inputs arrive in the total order of
    :func:`repro.engine.sort.orderable`, which raw comparison agrees
    with wherever it is defined; where it is not (a NULL key under
    ``<=>``, or a NULL or mixed-type key being stepped over) Python
    raises ``TypeError`` and that one comparison is redone wrapped.
    A left row is skipped when a *strict* (``=``) component of its key
    is NULL.  Right rows with a NULL there need no filter: they can
    only equal a left key that was skipped, so their groups are stepped
    over like any other non-match.
    """
    # Raw keys: the bare value for one column, a tuple otherwise.
    left_of = itemgetter(*left_key)
    single = len(left_key) == 1
    wrap = orderable if single else lambda key: tuple(map(orderable, key))
    # Asked only of a raw key that holds a NULL: is it in a strict component?
    strict = [i for i, safe in enumerate(null_safe) if not safe]
    if single or len(strict) in (0, len(left_key)):
        strict_null = lambda key: bool(strict)  # noqa: E731
    else:
        strict_null = lambda key: any(key[i] is None for i in strict)  # noqa: E731
    groups = groupby(chain.from_iterable(right_batches), itemgetter(*right_key))
    current: object = None
    group: list[tuple] | None = None  # None until the right side is read
    exhausted = False

    for batch in left_batches:
        out: list[tuple] = []
        for left_row, key in zip(batch, map(left_of, batch)):
            if (key is None if single else None in key) and strict_null(key):
                if outer_pad is not None:
                    out.append(left_row + outer_pad)
                continue
            # Advance the right side to the first group not before key.
            while not exhausted:
                if group is not None:
                    try:
                        before = current < key
                    except TypeError:
                        before = wrap(current) < wrap(key)
                    if not before:
                        break
                step = next(groups, None)
                if step is None:
                    exhausted = True
                else:
                    current, group = step[0], list(step[1])
            matches = group if not exhausted and current == key else ()
            out += _joined(left_row, matches, residual, outer_pad, semi)
        if out:
            yield out


def _merge_theta_join(
    left_batches: Iterator[list[tuple]],
    right_batches: Iterator[list[tuple]],
    left_key: int,
    right_key: int,
    op: str,
    outer_pad: tuple | None,
    semi: bool,
    residual: Callable[[tuple], object] | None = None,
) -> Iterator[list[tuple]]:
    """The output rows of each left batch (see :func:`_merge_equi_join`).

    One sequential read of the right input, kept sorted in memory and
    bisected: on its raw keys when the column compares raw, wrapped
    otherwise — or from the first left value that raises ``TypeError``
    against them.
    """
    right_rows = [
        row
        for row in chain.from_iterable(right_batches)
        if row[right_key] is not None
    ]
    right_keys = [row[right_key] for row in right_rows]
    raw = compares_raw(value_types(right_keys))
    if not raw:
        right_keys = list(map(orderable, right_keys))

    for batch in left_batches:
        out: list[tuple] = []
        for left_row in batch:
            value = left_row[left_key]
            if value is None:
                if outer_pad is not None:
                    out.append(left_row + outer_pad)
                continue
            if raw:
                try:
                    matches = _theta_range(right_rows, right_keys, value, op)
                except TypeError:
                    raw = False
                    right_keys = list(map(orderable, right_keys))
            if not raw:
                matches = _theta_range(
                    right_rows, right_keys, orderable(value), op
                )
            out += _joined(left_row, matches, residual, outer_pad, semi)
        if out:
            yield out


def _theta_range(
    rows: list[tuple], keys: list, key, op: str
) -> list[tuple]:
    """Rows whose key satisfies ``row.key op left.key`` — note direction.

    The predicate form in the paper is ``inner.column op outer.column``
    (e.g. ``SUPPLY.PNUM < PARTS.PNUM``), with the *right* (inner) value
    on the left of the operator, so for op ``<`` we return right rows
    whose key is *less than* the probe key.
    """
    if op == "<":
        return rows[: bisect.bisect_left(keys, key)]
    if op == "<=":
        return rows[: bisect.bisect_right(keys, key)]
    if op == ">":
        return rows[bisect.bisect_right(keys, key) :]
    if op == ">=":
        return rows[bisect.bisect_left(keys, key) :]
    if op == "<>":
        start = bisect.bisect_left(keys, key)
        end = bisect.bisect_right(keys, key)
        return rows[:start] + rows[end:]
    raise ExecutionError(f"unsupported theta-join operator {op!r}")


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
            result = [a is True and b is True for a, b in zip(result, nxt)]
        return result

    return combined


def hash_probe_body(
    left_schema: RowSchema,
    right: Relation,
    left_key: Sequence[int],
    right_key: Sequence[int],
    mode: JoinMode = "inner",
    null_safe: bool | Sequence[bool] = False,
    residual: Callable[[tuple], object] | None = None,
) -> Callable[[list[tuple]], list[tuple]]:
    """Build the hash table on ``right``; return ``probe batch -> rows``.

    The build reads ``right`` once, here, straight into the table (a
    build side is never written); the table is read-only afterwards, so
    the returned function is pure.
    Output rows follow probe order (each left row's matches in build
    insertion order), so any ordering of the probe input survives.

    A residual that carries its source expression (``residual.expr`` /
    ``residual.schema``, as the executor's does) is evaluated a batch
    of candidate matches at a time, and its top-level conjuncts are
    decomposed first:

    * an equality between one left and one right column folds into the
      composite hash key, under the same per-column regime as the keys
      the caller passed (``null_safe``) — plain ``=`` components skip
      NULL keys at build (NULL never matches), ``<=>`` components admit
      them (dict equality on None is exactly null-safe matching);
    * a conjunct reading only right columns filters rows out of the
      hash table at build; only left columns, it masks probe rows —
      equivalent in every mode (a left row all of whose matches fail
      the residual pads with NULLs, or is dropped, either way), and far
      cheaper than materializing candidates;
    * anything left over keeps the candidate-time check, one kernel
      call per probe batch.

    A pushed conjunct is therefore evaluated on non-candidate rows, and
    a folded equality cannot raise the mixed-type error (the module
    docstring's error-surfacing contract).  A plain callable residual
    (no source expression) is checked per candidate row exactly as
    written.
    """
    right_nulls = (None,) * len(right.schema)
    left_width = len(left_schema)
    residual_kernel = build_residual = probe_residual = None
    keyed = list(zip(left_key, right_key, _regimes(null_safe, len(left_key))))
    eq_folds = [(l, r) for l, r, safe in keyed if not safe]  # '=' components
    ns_folds = [(l, r) for l, r, safe in keyed if safe]  # '<=>' components
    expr = getattr(residual, "expr", None)
    if expr is not None:
        schema = residual.schema
        left_parts: list = []
        right_parts: list = []
        leftover = False
        for conjunct in expr.operands if isinstance(expr, And) else [expr]:
            pair = _cross_side_equality(conjunct, schema, left_width)
            if pair is not None:
                (ns_folds if conjunct.null_safe else eq_folds).append(pair)
                continue
            refs = referenced_indexes(conjunct, schema)
            if refs is None:
                leftover = True
            elif refs and all(i >= left_width for i in refs):
                right_parts.append(compile_batch_predicate(conjunct, schema))
            elif all(i < left_width for i in refs):
                left_parts.append(compile_batch_predicate(conjunct, schema))
            else:
                leftover = True
        probe_residual = _and_kernels(left_parts)
        build_residual = _and_kernels(right_parts)
        if not leftover:
            residual = None
        else:
            # Candidates were pre-filtered by any pushed conjuncts (all
            # True there), so re-checking the whole expression on them
            # is redundant but correct.
            residual_kernel = compile_batch_predicate(expr, schema)

    # Leading ``nchecked`` key components never admit NULL (build rows
    # with NULL there are skipped); trailing components match NULL to
    # NULL via dict equality (null-safe join keys and ``<=>`` folds).
    probe_key = [p for p, _ in eq_folds + ns_folds]
    build_key = [b for _, b in eq_folds + ns_folds]
    nchecked = len(eq_folds)

    # Per-batch key extraction at C speed: a multi-index itemgetter
    # yields ready-made key tuples (a single-index one bare values) in
    # one ``map`` pass.
    single = len(build_key) == 1
    build_getter = itemgetter(*build_key)
    probe_getter = itemgetter(*probe_key)
    full_check = nchecked == len(build_key)

    table: dict = {}
    get = table.get
    # Kernel column positions follow the combined schema, so a pushed
    # build-side residual sees right columns behind a left-width pad.
    build_pad = [()] * left_width
    for batch in right.iter_runs():
        if not batch:
            continue
        if build_residual is not None:
            mask = build_residual(build_pad + list(zip(*batch)), len(batch), None)
            batch = [row for row, keep in zip(batch, mask) if keep is True]
        for key, row in zip(map(build_getter, batch), batch):
            if nchecked and (
                (key is None)
                if single
                else (None in key if full_check else None in key[:nchecked])
            ):
                continue
            bucket = get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)

    left_outer = mode == "left"
    semi = mode == "semi"

    def probe(batch: list[tuple]) -> list[tuple]:
        if not batch:
            return []
        # Probe keys containing NULL simply miss the table (build
        # skipped NULL keys unless null_safe, and a tuple holding None
        # never equals one that doesn't), so no per-row NULL test is
        # needed on the probe side.
        keys = map(probe_getter, batch)
        out: list[tuple] = []
        append = out.append
        if probe_residual is not None:
            # Left-only residual: mask the probe batch up front.  A
            # failing probe row has no surviving match by definition
            # (outer: pad; inner: skip).
            mask = probe_residual(list(zip(*batch)), len(batch), None)
            buckets = [
                get(key) if keep is True else None
                for key, keep in zip(keys, mask)
            ]
        else:
            buckets = list(map(get, keys))
        if residual is None:
            if semi:
                return [
                    left_row
                    for left_row, bucket in zip(batch, buckets)
                    if bucket is not None
                ]
            if left_outer:
                extend = out.extend
                for left_row, bucket in zip(batch, buckets):
                    if bucket is None:
                        append(left_row + right_nulls)
                    else:
                        extend([left_row + r for r in bucket])
                return out
            return [
                left_row + right_row
                for left_row, bucket in zip(batch, buckets)
                if bucket is not None
                for right_row in bucket
            ]
        if residual_kernel is None:
            # A plain callable residual: checked per candidate.
            for left_row, bucket in zip(batch, buckets):
                matched = False
                for right_row in bucket or ():
                    combined = left_row + right_row
                    if residual(combined) is True:
                        matched = True
                        if semi:
                            break
                        append(combined)
                if semi:
                    if matched:
                        append(left_row)
                elif left_outer and not matched:
                    append(left_row + right_nulls)
            return out
        # Candidate combined rows for the whole probe batch, filtered by
        # one kernel call; spans track which slice belongs to which left
        # row for the outer padding.
        cand: list[tuple] = []
        spans: list[int] = []
        for left_row, bucket in zip(batch, buckets):
            if bucket is not None:
                cand.extend([left_row + r for r in bucket])
            spans.append(len(cand))
        mask = residual_kernel(list(zip(*cand)), len(cand), None) if cand else []
        if not (left_outer or semi):
            return [row for row, value in zip(cand, mask) if value is True]
        start = 0
        for left_row, end in zip(batch, spans):
            hits = [cand[i] for i in range(start, end) if mask[i] is True]
            if semi:
                if hits:
                    append(left_row)
            elif hits:
                out.extend(hits)
            else:
                append(left_row + right_nulls)
            start = end
        return out

    return probe


def _cross_side_equality(
    conjunct: Expr, schema: RowSchema, left_width: int
) -> tuple[int, int] | None:
    """``(left column, right column)`` positions when ``conjunct``
    equates one column of each join side, else None."""
    if not (
        isinstance(conjunct, Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    li = referenced_indexes(conjunct.left, schema)
    ri = referenced_indexes(conjunct.right, schema)
    if not (li and ri):
        return None
    (li,), (ri,) = li, ri
    if li < left_width <= ri:
        return li, ri - left_width
    if ri < left_width <= li:
        return ri, li - left_width
    return None


def hash_join(
    left: Relation,
    right: Relation,
    left_key: Sequence[int],
    right_key: Sequence[int],
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool | Sequence[bool] = False,
    residual: Callable[[tuple], object] | None = None,
) -> Relation:
    """Hash equi join: build on ``right``, probe with ``left``.

    Neither input needs to be sorted.  The right input is read once and
    hashed on its key columns (duplicate keys chain in insertion
    order); each left row then probes the table.  Key equality follows
    SQL ``=``: a NULL in either key matches nothing — build rows with
    NULL keys are not even inserted, and probe rows with NULL keys
    produce no matches (but are NULL-padded under ``mode="left"``).
    ``mode="semi"`` emits the probe rows that have a match, each once.

    ``null_safe`` switches key columns — all of them, or each by its
    own bool — to ``<=>`` semantics: a NULL there hashes and joins like
    any other value (NULL <=> NULL is true).

    ``residual`` is evaluated over the combined row *as part of the
    join condition*, exactly as in :func:`merge_join`: under
    ``mode="left"`` a left row whose only key matches flunk the
    residual is NULL-padded rather than dropped.

    The build runs when the stream is first pulled, then the probe
    streams ``left`` through the table.
    """
    left_batches = left.iter_runs()

    def batches() -> Iterator[list[tuple]]:
        probe = hash_probe_body(
            left.schema, right, left_key, right_key, mode, null_safe, residual
        )
        yield from _nonempty(probe, left_batches)

    out_schema, order = _join_output(left, right, mode, left.order[0])
    return Relation.stream(out_schema, batches(), name, order)


def group_order(order: Order, group_cols: Sequence[int]) -> Order:
    """A grouped output's order (positions within the group columns):
    groups come out in first-appearance order, which over a source
    ordered on any permutation of the group columns is that order, with
    the group columns a key.  Over any other source: no order."""
    prefix = order[0][: len(group_cols)]
    if not group_cols or sorted(prefix) != sorted(group_cols):
        return NO_ORDER
    return (tuple(list(group_cols).index(c) for c in prefix), True)


def _aggregate_plan(
    source: Relation,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
) -> tuple[RowSchema, list[int], list[AggSpec], Order]:
    """Validate an aggregate's output naming; normalize its arguments."""
    expected = len(group_columns) + len(specs)
    if len(out_names) != expected:
        raise ExecutionError(
            f"group_aggregate needs {expected} output names, got {len(out_names)}"
        )
    order = group_order(source.order, group_columns)
    return RowSchema(out_names), list(group_columns), list(specs), order


def _scalar_aggregate(
    rows: list[tuple], agg_specs: list[AggSpec], always_emit: bool
) -> list[list[tuple]]:
    """The ungrouped case: the whole input is one group; an empty input
    yields the SQL scalar-aggregate row only under ``always_emit``."""
    if rows or always_emit:
        return [[tuple(apply_specs(rows, agg_specs))]]
    return []


def hash_group_aggregate(
    source: Relation,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
) -> Relation:
    """Grouped aggregation by hashing — the input needs **no sort**.

    Same contract as :func:`group_aggregate` except groups are
    accumulated in a hash table and emitted in first-appearance order
    (NULL group keys form one group, as in SQL's GROUP BY).  Over a
    key-sorted input first appearance *is* sorted order, so the two
    aggregates then agree row for row.
    """
    out_schema, group_cols, agg_specs, order = _aggregate_plan(
        source, group_columns, specs, out_names
    )
    source_batches = source.iter_runs()

    def batches() -> Iterator[list[tuple]]:
        if not group_cols:
            rows = list(chain.from_iterable(source_batches))
            yield from _scalar_aggregate(rows, agg_specs, always_emit)
            return
        groups: dict = {}
        setdefault = groups.setdefault
        # A single group column keys on the bare value (no per-row
        # tuple construction); the key is re-wrapped on output.
        single = len(group_cols) == 1
        key_of = itemgetter(*group_cols)
        for batch in source_batches:
            for row in batch:
                setdefault(key_of(row), []).append(row)
        out = [
            ((key,) if single else key) + tuple(apply_specs(rows, agg_specs))
            for key, rows in groups.items()
        ]
        if out:
            yield out

    return Relation.stream(out_schema, batches(), name, order)


def hash_distinct(source: Relation, name: str | None = None) -> Relation:
    """Duplicate elimination by hashing (first occurrence kept, input
    order preserved) — the hash counterpart of sort-unique."""
    source_batches = source.iter_runs()

    def batches() -> Iterator[list[tuple]]:
        seen: set[tuple] = set()
        for batch in source_batches:
            # dict.fromkeys dedupes within the batch preserving first
            # occurrence at C speed; the comprehension then drops rows
            # already seen in earlier batches.
            out = [row for row in dict.fromkeys(batch) if row not in seen]
            seen.update(out)
            if out:
                yield out

    return Relation.stream(source.schema, batches(), name)


def group_aggregate(
    source: Relation,
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

    Streaming: groups completed within a batch are emitted with that
    batch, and the group straddling a batch boundary is carried to the
    batch that closes it — so the memory held is one group's, not an
    accumulate-then-emit one's.
    """
    out_schema, group_cols, agg_specs, order = _aggregate_plan(
        source, group_columns, specs, out_names
    )
    source_batches = source.iter_batches()

    def batches() -> Iterator[list[tuple]]:
        if not group_cols:
            rows = list(chain.from_iterable(source_batches))
            yield from _scalar_aggregate(rows, agg_specs, always_emit)
            return
        # A single group column keys on the bare value, as in
        # hash_group_aggregate; groupby finds the boundaries within a
        # batch and only the group open at a batch's end is carried.
        single = len(group_cols) == 1
        key_of = itemgetter(*group_cols)

        def finish(key, rows: list[tuple]) -> tuple:
            return ((key,) if single else key) + tuple(apply_specs(rows, agg_specs))

        current_key = None
        group: list[tuple] = []  # never empty once the first row is in
        for batch in source_batches:
            out: list[tuple] = []
            for key, members in groupby(batch, key_of):
                if group and key == current_key:
                    group.extend(members)
                    continue
                if group:
                    out.append(finish(current_key, group))
                current_key = key
                group = list(members)
            if out:
                yield out
        if group:
            yield [finish(current_key, group)]

    return Relation.stream(out_schema, batches(), name, order)


def index_nested_loop_join(
    left: Relation,
    index,
    right_schema: RowSchema,
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
    left_batches = left.iter_batches()

    def batches() -> Iterator[list[tuple]]:
        for batch in left_batches:
            out: list[tuple] = []
            for left_row in batch:
                value = left_row[left_key]
                matched = False
                if value is not None:
                    for right_row in index.lookup(value):
                        matched = True
                        out.append(left_row + right_row)
                if mode == "left" and not matched:
                    out.append(left_row + right_nulls)
            if out:
                yield out

    return Relation.stream(out_schema, batches(), name)
