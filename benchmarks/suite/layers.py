"""Layer boundaries (the span list) and the per-layer metrics drawn from them.

Layers are the ``src/repro`` packages.  Each metric is ``None`` when a
boundary it needs is missing (counted in ``harness.layers_missing``) and
0 when the layer did no work on the workload (``txn.*`` on a read-only
workload).
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.suite.spans import (
    END,
    HOT,
    NAME,
    PARENT,
    START,
    Boundary,
    SpanTotals,
    Tracer,
    aggregate,
    has_ancestor,
    self_times,
)

#: Root spans: one per client operation.
API_READS = ("api.query", "api.execute_cached", "serve.bind")

BOUNDARIES: list[Boundary] = [
    Boundary("api.query", "repro.api:Database.query"),
    Boundary("api.execute_cached", "repro.api:Database.execute_cached"),
    Boundary("api.insert", "repro.api:Database.insert"),
    Boundary("sql.parse", "repro.sql.parser:parse"),
    Boundary("sql.parse_statement", "repro.sql.statements:parse_statement"),
    Boundary("sql.qualify_rewrite", "repro.core.pipeline:prepare_query"),
    Boundary("core.nest_g", "repro.core.nest_g:nest_g", count=lambda t: len(t.setup)),
    Boundary("analysis.verify_nested", "repro.analysis.verifier:verify_nested"),
    Boundary("analysis.verify_transform", "repro.analysis.verifier:verify_transform"),
    Boundary("analysis.lint_transform", "repro.analysis.lint:lint_transform"),
    Boundary(
        "optimizer.execute", "repro.optimizer.executor:SingleLevelExecutor.execute"
    ),
    Boundary("engine.sort", "repro.engine.sort:external_sort"),
    Boundary(
        "engine.materialize",
        "repro.engine.relation:Relation.materialize",
        count=lambda r: r.num_rows,
    ),
    Boundary(
        "engine.materialize_batches",
        "repro.engine.relation:Relation.materialize_batches",
        count=lambda r: r.num_rows,
    ),
    Boundary(
        "engine.nested_iteration",
        "repro.engine.nested_iteration:NestedIterationExecutor.execute",
    ),
    Boundary("storage.get_page", "repro.storage.buffer:BufferPool.get_page", "hot"),
    Boundary("storage.disk_read", "repro.storage.disk:DiskManager.read_page", "hot"),
    Boundary("storage.disk_write", "repro.storage.disk:DiskManager.write_page", "hot"),
    Boundary("storage.index_lookup", "repro.storage.index:IsamIndex.lookup", "generator"),
    Boundary("serve.parameterize", "repro.serve.normalize:parameterize"),
    Boundary("serve.fingerprint", "repro.serve.normalize:fingerprint"),
    Boundary("serve.lookup", "repro.serve.cache:PlanCache.lookup"),
    Boundary("serve.build_plan", "repro.serve.plan:build_plan"),
    Boundary("serve.replay", "repro.serve.plan:CachedPlan.replay"),
    Boundary("serve.bind", "repro.serve.prepared:PreparedStatement.execute"),
    Boundary("txn.commit", "repro.txn.txn:Transaction.commit"),
    Boundary("txn.wal_append", "repro.txn.wal:WriteAheadLog.append"),
    Boundary("txn.wal_flush", "repro.txn.wal:WriteAheadLog.flush"),
    Boundary("txn.publish", "repro.txn.mvcc:SnapshotManager.publish"),
]


@dataclass
class Counters:
    """What the harness counted itself around the traced loop."""

    selects: int
    writes: int
    rows_returned: int
    page_reads: int
    page_writes: int
    buffer_hits: int
    plan_hits: int
    plan_misses: int
    shared_hits: int
    memo_flushes: int
    shared_purges: int
    wal_bytes: int
    wal_flushes: int


def _per(value: float | None, count: int) -> float | None:
    if value is None:
        return None
    return value / count if count else 0.0


def layer_metrics(tracer: Tracer, counters: Counters) -> dict[str, float | None]:
    """The ``<layer>.*`` metrics of one traced run (harness.* and the
    untraced-run ones are added by the runner)."""
    totals = aggregate(tracer.spans)
    missing = set(tracer.missing)

    def span(*names: str) -> SpanTotals | None:
        if any(name in missing for name in names):
            return None
        merged = SpanTotals()
        for name in names:
            entry = totals.get(name, SpanTotals())
            merged.calls += entry.calls
            merged.total += entry.total
            merged.self_time += entry.self_time
            merged.count += entry.count
        return merged

    def ms(entry: SpanTotals | None, which: str, count: int) -> float | None:
        return None if entry is None else _per(getattr(entry, which) * 1e3, count)

    def calls(entry: SpanTotals | None, count: int, which: str = "calls") -> float | None:
        return None if entry is None else _per(getattr(entry, which), count)

    def hot(name: str, which: str, scale: float, count: int) -> float | None:
        if name in missing:
            return None
        return _per(getattr(tracer.hot[name], which) * scale, count)

    selects, writes = counters.selects, counters.writes
    parse = span("sql.parse", "sql.parse_statement")
    verify = span(
        "analysis.verify_nested", "analysis.verify_transform", "analysis.lint_transform"
    )
    execute = span("optimizer.execute")
    materialize = span("engine.materialize", "engine.materialize_batches")
    normalize = span("serve.parameterize", "serve.fingerprint")
    replay = span("serve.replay")
    build_plan = span("serve.build_plan")

    fallbacks: float | None = None
    if not {"engine.nested_iteration", "core.nest_g"} & missing:
        # A type-A block evaluated inside NEST-G is not a fallback.
        fallbacks = sum(
            1
            for index, record in enumerate(tracer.spans)
            if record[NAME] == "engine.nested_iteration"
            and not has_ancestor(tracer.spans, index, "core.nest_g")
        )
    temp_builds: float | None = None
    if replay is not None and execute is not None:
        under_replay = sum(
            1
            for index, record in enumerate(tracer.spans)
            if record[NAME] == "optimizer.execute"
            and has_ancestor(tracer.spans, index, "serve.replay")
        )
        # Every transform replay runs one final block; the rest rebuilt temps.
        temp_builds = (under_replay - replay.calls) / replay.calls if replay.calls else 0.0

    lookups = tracer.drained.get("storage.index_lookup")
    index_missing = "storage.index_lookup" in missing or "storage.get_page" in missing
    page_requests = counters.page_reads + counters.buffer_hits
    plan_lookups = counters.plan_hits + counters.plan_misses

    return {
        "sql.parse_ms_per_stmt": ms(parse, "total", selects),
        "sql.parse_calls_per_stmt": calls(parse, selects),
        "sql.qualify_rewrite_ms_per_stmt": ms(span("sql.qualify_rewrite"), "total", selects),
        "core.nest_g_self_ms_per_stmt": ms(span("core.nest_g"), "self_time", selects),
        "core.temps_per_stmt": calls(span("core.nest_g"), selects, "count"),
        "core.fallback_share": _per(fallbacks, selects),
        "analysis.verify_ms_per_stmt": ms(verify, "total", selects),
        "analysis.verify_calls_per_stmt": calls(verify, selects),
        "optimizer.execute_self_ms_per_stmt": ms(execute, "self_time", selects),
        "optimizer.blocks_per_stmt": calls(execute, selects),
        "engine.sort_ms_per_stmt": ms(span("engine.sort"), "total", selects),
        "engine.sort_calls_per_stmt": calls(span("engine.sort"), selects),
        "engine.materialize_ms_per_stmt": ms(materialize, "total", selects),
        "engine.materialize_rows_per_stmt": calls(materialize, selects, "count"),
        "engine.nested_iteration_self_ms_per_stmt": ms(
            span("engine.nested_iteration"), "self_time", selects
        ),
        "storage.get_page_ms_per_stmt": hot("storage.get_page", "seconds", 1e3, selects),
        "storage.get_page_calls_per_stmt": hot("storage.get_page", "calls", 1, selects),
        "storage.page_reads_per_stmt": _per(counters.page_reads, selects),
        "storage.page_writes_per_stmt": _per(counters.page_writes, selects),
        "storage.buffer_hit_ratio": _per(counters.buffer_hits, page_requests),
        "storage.disk_read_ms_per_stmt": hot("storage.disk_read", "seconds", 1e3, selects),
        "storage.index_lookups_per_stmt": None if index_missing else _per(lookups[0], selects),
        "storage.index_pages_per_lookup": None if index_missing else _per(lookups[1], lookups[0]),
        "serve.normalize_ms_per_stmt": ms(normalize, "total", selects),
        "serve.lookup_ms_per_stmt": ms(span("serve.lookup"), "total", selects),
        "serve.plan_hit_ratio": _per(counters.plan_hits, plan_lookups),
        "serve.build_plan_ms_per_miss": None
        if build_plan is None
        else _per(build_plan.total * 1e3, build_plan.calls),
        "serve.replay_self_ms_per_stmt": ms(replay, "self_time", selects),
        "serve.bind_self_ms_per_stmt": ms(span("serve.bind"), "self_time", selects),
        "serve.temp_builds_per_replay": temp_builds,
        "serve.shared_hits_per_stmt": _per(counters.shared_hits, selects),
        "serve.memo_flushes_per_write": _per(counters.memo_flushes, writes),
        "serve.shared_purges_per_write": _per(counters.shared_purges, writes),
        "txn.commit_self_ms_per_write": ms(span("txn.commit"), "self_time", writes),
        "txn.wal_append_ms_per_write": ms(span("txn.wal_append"), "total", writes),
        "txn.wal_flush_ms_per_write": ms(span("txn.wal_flush"), "total", writes),
        "txn.wal_flushes_per_write": _per(counters.wal_flushes, writes),
        "txn.wal_records_per_write": calls(span("txn.wal_append"), writes),
        "txn.wal_bytes_per_write": _per(counters.wal_bytes, writes),
        "txn.publish_ms_per_write": ms(span("txn.publish"), "total", writes),
        "api.self_ms_per_stmt": ms(
            span("api.query", "api.execute_cached"), "self_time", selects
        ),
        "api.rows_per_stmt": _per(counters.rows_returned, selects),
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Share of read-statement time by layer: span self times, with the
    hot storage time they contained counted under ``storage``."""
    spans = tracer.spans
    own = self_times(spans)
    is_read: dict[int, bool] = {}
    seconds: dict[str, float] = {}
    for index, record in enumerate(spans):
        if record[PARENT] < 0:
            is_read[index] = record[NAME] in API_READS
        else:
            is_read[index] = is_read[record[PARENT]]
        if not is_read[index]:
            continue
        layer = record[NAME].split(".")[0]
        seconds[layer] = seconds.get(layer, 0.0) + own[index]
        seconds["storage"] = seconds.get("storage", 0.0) + record[HOT]
    whole = sum(
        r[END] - r[START] for i, r in enumerate(spans) if r[PARENT] < 0 and is_read[i]
    )
    return {layer: value / whole for layer, value in sorted(seconds.items())} if whole else {}
