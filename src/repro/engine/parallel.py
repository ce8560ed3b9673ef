"""Partition-parallel physical operators (the ``parallelism=N`` path).

Exchange counterparts of the single-pass operators in
:mod:`repro.engine.operators`: they scatter disjoint page shards of
their input across the shared exchange pool
(:mod:`repro.engine.exchange`) and gather results in shard order.
Restrict/project and the hash-join probe run the *same* per-batch body
as the serial operators (``restrict_project_body`` /
``hash_probe_body``) — serial execution is this path with one shard,
streamed instead of gathered; grouped aggregation (partial → merge →
finalize) and DISTINCT (shard-local dedupe → global recheck) are
separate functions because their algorithm genuinely differs.

**The page-I/O identity invariant.**  Every operator here preserves the
serial operators' page-I/O *totals* exactly, by construction:

* inputs are sharded at page granularity
  (:meth:`Relation.iter_partition_batches`) — the shards are disjoint
  and their union is the serial scan, so the reads across all workers
  sum to the serial schedule no matter how threads interleave;
* these are all single-pass operators — no worker ever re-reads a page
  within its pass, so eviction pressure cannot multiply reads the way
  it can for rescanning operators (nested-loop join and external sort
  therefore stay serial);
* workers return plain in-memory row batches; the output heap is
  materialized *serially* on the gathering thread, in shard order, so
  the output row stream — and hence page fill, page count, and write
  totals — is bit-identical to the serial operator's.

Row order is preserved under the default ``"range"`` partition scheme:
shard 0's pages precede shard 1's in scan order, so the ordered gather
reproduces the serial output sequence, not merely the same bag.  The
aggregate's merge step additionally relies on this to keep
first-appearance group order global (see
:func:`parallel_group_aggregate`).

Speedup comes from overlapping the simulated disk reads
(:class:`DiskManager` sleeps outside all locks), not from the
GIL-bound Python work — the same mechanism that scales the serving
layer's inter-query throughput, applied inside one query.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial

from repro.engine.aggregate import AggSpec, apply_specs
from repro.engine.exchange import run_tasks
from repro.engine.operators import (
    JoinMode,
    _aggregate_plan,
    _join_output,
    _nonempty,
    _scalar_aggregate,
    hash_probe_body,
    restrict_project_body,
)
from repro.engine.relation import NO_ORDER, Relation
from repro.sql.ast import Expr
from repro.storage.buffer import BufferPool

__all__ = [
    "parallel_distinct",
    "parallel_group_aggregate",
    "parallel_hash_join",
    "parallel_restrict_project",
]


def _scatter(
    source: Relation,
    process: Callable[[list[tuple]], list[tuple]],
    parallelism: int,
) -> Iterator[list[tuple]]:
    """Run a per-batch body over ``source``'s page shards in exchange
    workers; the non-empty output batches, in serial scan order."""
    nparts = source.partition_count(parallelism)

    def work(index: int) -> list[list[tuple]]:
        return list(
            _nonempty(process, source.iter_partition_batches(index, nparts))
        )

    shards = run_tasks(
        [partial(work, index) for index in range(nparts)], width=parallelism
    )
    return (batch for shard in shards for batch in shard)


def parallel_restrict_project(
    source: Relation,
    buffer: BufferPool,
    predicate: Expr | None = None,
    projections: Sequence[tuple[Expr, str | None, str]] | None = None,
    name: str | None = None,
    rows_per_page: int | None = None,
    *,
    parallelism: int = 2,
) -> Relation:
    """Partition-parallel selection + projection.

    Same contract as :func:`repro.engine.operators.restrict_project`:
    workers filter and project disjoint page shards, the gather
    concatenates their outputs in shard order, and the result heap is
    materialized serially — identical rows, row order, pages, and I/O
    totals.
    """
    out_schema, process = restrict_project_body(
        source.schema, predicate, projections
    )
    return Relation.materialize_batches(
        out_schema,
        _scatter(source, process, parallelism),
        buffer,
        rows_per_page=rows_per_page,
        name=name,
        order=source.order if projections is None else NO_ORDER,
    )


def parallel_hash_join(
    left: Relation,
    right: Relation,
    buffer: BufferPool,
    left_key: Sequence[int],
    right_key: Sequence[int],
    mode: JoinMode = "inner",
    name: str | None = None,
    null_safe: bool | Sequence[bool] = False,
    residual: Callable[[tuple], object] | None = None,
    *,
    parallelism: int = 2,
) -> Relation:
    """Shared-build, partitioned-probe hash equi join.

    The build is :func:`~repro.engine.operators.hash_probe_body`'s —
    one serial read of ``right`` on the calling thread, read-only
    afterwards, so workers probe it without any synchronization.  The
    probe side is sharded; each worker emits matches in its shard's
    scan order and the ordered gather restores the serial probe order,
    so output rows, NULL padding under ``mode="left"``, the one row
    per matched probe row of ``mode="semi"``, and in-join ``residual``
    semantics are all exactly the serial operator's.

    (A partitioned build with per-worker tables merged was the
    alternative; the shared build wins here because the probe side is
    the large input in every plan this executor produces, and merging
    duplicate chains across worker tables would have to re-sort them
    into insertion order to keep output order deterministic.)
    """
    probe = hash_probe_body(
        left.schema, right, left_key, right_key, mode, null_safe, residual
    )
    out_schema, order = _join_output(left, right, mode, left.order[0])
    return Relation.materialize_batches(
        out_schema,
        _scatter(left, probe, parallelism),
        buffer,
        name=name,
        order=order,
    )


def parallel_group_aggregate(
    source: Relation,
    buffer: BufferPool,
    group_columns: Sequence[int],
    specs: Sequence[AggSpec],
    out_names: Sequence[tuple[str | None, str]],
    name: str | None = None,
    always_emit: bool = False,
    *,
    parallelism: int = 2,
) -> Relation:
    """Partition-parallel grouped aggregation: partial, merge, finalize.

    Workers build per-shard ``group key -> row list`` partials; the
    gather merges them *in shard order* and finalizes each group with
    the shared :func:`~repro.engine.aggregate.apply_specs` — the same
    code path every serial aggregate uses, so 3VL and NULL semantics
    (SUM over an empty group is NULL, COUNT is 0, ``always_emit`` for
    the empty scalar aggregate) are inherited, not reimplemented.

    Two order guarantees make this a drop-in for both serial shapes:

    * merging shards in range order makes the merged dict's insertion
      order the *global* first-appearance order (a key's first global
      appearance lies in the earliest shard containing it), matching
      the hash aggregates exactly;
    * each key's row list concatenates shard sublists in range order,
      i.e. scan order — so order-sensitive finalization sees the serial
      row sequence, and over key-sorted input first-appearance order
      *is* sorted order, matching the streaming sorted aggregate too.
    """
    out_schema, group_cols, agg_specs, order = _aggregate_plan(
        source, group_columns, specs, out_names
    )
    nparts = source.partition_count(parallelism)

    if not group_cols:

        def collect(index: int) -> list[tuple]:
            rows: list[tuple] = []
            for batch in source.iter_partition_batches(index, nparts):
                rows.extend(batch)
            return rows

        parts = run_tasks(
            [partial(collect, index) for index in range(nparts)],
            width=parallelism,
        )
        all_rows = [row for part in parts for row in part]
        return Relation.materialize_batches(
            out_schema,
            _scalar_aggregate(all_rows, agg_specs, always_emit),
            buffer,
            name=name,
        )

    def build(index: int) -> dict[tuple, list[tuple]]:
        groups: dict[tuple, list[tuple]] = {}
        setdefault = groups.setdefault
        for batch in source.iter_partition_batches(index, nparts):
            for row in batch:
                setdefault(tuple(row[i] for i in group_cols), []).append(row)
        return groups

    parts = run_tasks(
        [partial(build, index) for index in range(nparts)], width=parallelism
    )
    merged: dict[tuple, list[tuple]] = {}
    for part in parts:
        for key, rows in part.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = rows
            else:
                existing.extend(rows)
    output = [
        key + tuple(apply_specs(rows, agg_specs))
        for key, rows in merged.items()
    ]
    return Relation.materialize_batches(
        out_schema, [output] if output else [], buffer, name=name, order=order
    )


def parallel_distinct(
    source: Relation,
    buffer: BufferPool,
    name: str | None = None,
    *,
    parallelism: int = 2,
) -> Relation:
    """Partition-parallel duplicate elimination, first occurrence kept.

    Workers dedupe within their shard (preserving shard scan order);
    the gather re-checks against a global seen-set in shard order, so
    the survivors are exactly the serial operator's: the first global
    occurrence of each distinct row, in scan order.
    """
    nparts = source.partition_count(parallelism)

    def dedupe(index: int) -> list[list[tuple]]:
        local_seen: set[tuple] = set()
        out: list[list[tuple]] = []
        for batch in source.iter_partition_batches(index, nparts):
            rows = [row for row in dict.fromkeys(batch) if row not in local_seen]
            local_seen.update(rows)
            if rows:
                out.append(rows)
        return out

    parts = run_tasks(
        [partial(dedupe, index) for index in range(nparts)], width=parallelism
    )
    seen: set[tuple] = set()

    def batches() -> Iterator[list[tuple]]:
        for part in parts:
            for batch in part:
                rows = [row for row in batch if row not in seen]
                seen.update(rows)
                if rows:
                    yield rows

    return Relation.materialize_batches(
        source.schema, batches(), buffer, name=name
    )
