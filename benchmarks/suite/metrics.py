"""The metric registry: every name the suite reports, with unit and direction.

``BENCHMARK.json`` is the driver's copy of this registry (a self-test
keeps the two equal).  The driver requires every end-to-end metric to be
reported, and never 0, on every workload, so ``BENCHMARK.json`` lists
under ``end_to_end`` the six metrics defined on all four workloads; the
six that exist only on ``mixed_rw`` or are 0 by design are still
measured from the untraced run and gated by ``compare``, but travel to
the driver in the unbounded ``per_layer`` list.

Two bounds per metric, because they answer two questions.  ``bound`` is
for ``compare``: two runs of the *same seed and op count*, where counts
repeat exactly and only machine noise separates the timings.
``driver_bound`` is what ``BENCHMARK.json`` states: the driver compares
medians over runs of *different seeds*, bounded in time, not in ops, so
generated rows and op counts differ too (README, "Bounds").
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.suite.workloads import SHAPES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the base value by which the metric may worsen (e2e only).
    bound: float | None = None
    #: The same for the driver's across-seed medians (``BENCHMARK.json``);
    #: None for the metrics the driver cannot take as ``end_to_end``
    #: (defined on ``mixed_rw`` only, or 0 by design).
    driver_bound: float | None = None
    #: Worsening below this absolute amount never counts (small values).
    floor: float = 0.0


#: End-to-end metrics, all measured with tracing off.
E2E: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.15, 0.25, floor=0.05),
    Metric("throughput_ops_s", "1/s", "higher", 0.10, 0.25),
    Metric("stmt_p50_ms", "ms", "lower", 0.10, 0.25),
    Metric("stmt_p95_ms", "ms", "lower", 0.15, 0.25),
    Metric("pages_per_stmt", "count", "lower", 0.0, 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10, 0.20),
    Metric("failed_ops_share", "share", "lower", 0.0),
    Metric("write_p50_ms", "ms", "lower", 0.10),
    Metric("write_p90_ms", "ms", "lower", 0.10),
    Metric("recovery_s", "s", "lower", 0.10),
    Metric("wal_bytes_per_user_byte", "ratio", "lower", 0.0),
    Metric("durability_lost_rows", "count", "lower", 0.0),
)

#: The driver's ``end_to_end`` list.
CONTRACT_E2E = tuple(m for m in E2E if m.driver_bound is not None)

_LOWER, _HIGHER = "lower", "higher"

#: Per-layer metrics of the traced run, in layer order.
LAYER: tuple[Metric, ...] = (
    Metric("sql.parse_ms_per_stmt", "ms", _LOWER),
    Metric("sql.parse_calls_per_stmt", "count", _LOWER),
    Metric("sql.qualify_rewrite_ms_per_stmt", "ms", _LOWER),
    Metric("core.nest_g_self_ms_per_stmt", "ms", _LOWER),
    Metric("core.temps_per_stmt", "count", _LOWER),
    Metric("core.fallback_share", "share", _LOWER),
    Metric("analysis.verify_ms_per_stmt", "ms", _LOWER),
    Metric("analysis.verify_calls_per_stmt", "count", _LOWER),
    Metric("optimizer.execute_self_ms_per_stmt", "ms", _LOWER),
    Metric("optimizer.blocks_per_stmt", "count", _LOWER),
    Metric("engine.sort_ms_per_stmt", "ms", _LOWER),
    Metric("engine.sort_calls_per_stmt", "count", _LOWER),
    Metric("engine.materialize_ms_per_stmt", "ms", _LOWER),
    Metric("engine.materialize_rows_per_stmt", "count", _LOWER),
    Metric("engine.nested_iteration_self_ms_per_stmt", "ms", _LOWER),
    Metric("storage.get_page_ms_per_stmt", "ms", _LOWER),
    Metric("storage.get_page_calls_per_stmt", "count", _LOWER),
    Metric("storage.page_reads_per_stmt", "count", _LOWER),
    Metric("storage.page_writes_per_stmt", "count", _LOWER),
    Metric("storage.buffer_hit_ratio", "ratio", _HIGHER),
    Metric("storage.disk_read_ms_per_stmt", "ms", _LOWER),
    Metric("storage.index_lookups_per_stmt", "count", _LOWER),
    Metric("storage.index_pages_per_lookup", "count", _LOWER),
    Metric("serve.normalize_ms_per_stmt", "ms", _LOWER),
    Metric("serve.lookup_ms_per_stmt", "ms", _LOWER),
    Metric("serve.plan_hit_ratio", "ratio", _HIGHER),
    Metric("serve.build_plan_ms_per_miss", "ms", _LOWER),
    Metric("serve.replay_self_ms_per_stmt", "ms", _LOWER),
    Metric("serve.bind_self_ms_per_stmt", "ms", _LOWER),
    Metric("serve.temp_builds_per_replay", "count", _LOWER),
    Metric("serve.shared_hits_per_stmt", "count", _HIGHER),
    Metric("serve.memo_flushes_per_write", "count", _LOWER),
    Metric("serve.shared_purges_per_write", "count", _LOWER),
    Metric("txn.commit_self_ms_per_write", "ms", _LOWER),
    Metric("txn.wal_append_ms_per_write", "ms", _LOWER),
    Metric("txn.wal_flush_ms_per_write", "ms", _LOWER),
    Metric("txn.wal_flushes_per_write", "count", _LOWER),
    Metric("txn.wal_records_per_write", "count", _LOWER),
    Metric("txn.wal_bytes_per_write", "bytes", _LOWER),
    Metric("txn.publish_ms_per_write", "ms", _LOWER),
    Metric("txn.recover_rows_per_s", "1/s", _HIGHER),
    Metric("catalog.load_rows_per_s", "1/s", _HIGHER),
    Metric("catalog.index_build_s", "s", _LOWER),
    Metric("api.self_ms_per_stmt", "ms", _LOWER),
    Metric("api.rows_per_stmt", "count", _LOWER),
    *(Metric(f"api.shape_p50_ms.{shape}", "ms", _LOWER) for shape in SHAPES),
    Metric("harness.trace_overhead_share", "share", _LOWER),
    Metric("harness.layers_missing", "count", _LOWER),
    Metric("harness.calib_drift_share", "share", _LOWER),
)

#: The driver's ``per_layer`` list: the layer metrics, then the
#: end-to-end metrics it cannot take as ``end_to_end``.
CONTRACT_PER_LAYER = LAYER + tuple(m for m in E2E if m.driver_bound is None)
