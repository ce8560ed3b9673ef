"""Build a workload, drive the public API in a closed loop, measure, verify.

One client thread, ``io_delay=0``: on two shared cores under the GIL more
clients would measure the scheduler and a simulated delay would measure
sleeps.  Only ``repro.Database``, ``PreparedStatement`` and
``repro.txn.recover`` are called; every result is compared with the
SQLite shadow between operations, outside the per-operation timer.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import pathlib
import resource
import shutil
import statistics
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from time import perf_counter

from benchmarks.suite import layers, metrics, spans, stats
from benchmarks.suite.oracle import Shadow, bag
from benchmarks.suite.workloads import (
    DATE_POOL,
    ROWS_PER_PAGE,
    WORKLOADS,
    Instance,
    Op,
    Workload,
    make_instance,
    op_blocks,
    prepared_text,
    sql_text,
    workload_rng,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

RECOVERY_REPS = 5
#: Full span trees kept in the trace file (aggregates cover every span).
TRACE_SAMPLE_STATEMENTS = 24

NOT_COVERED = (
    "multi-client scaling, intra-query parallelism>1 and io_delay>0 are not "
    "measured: on two shared cores under the GIL they time sleeps and the scheduler"
)
FLUSH_POLICY = "one fsync per commit (WAL file), none without a WAL file"


def make_db(**wanted):
    """``Database(**wanted)`` minus the kwargs it no longer accepts.

    When a later PR retires a knob the product default is what gets
    measured, and the report shows requested vs. applied.
    """
    from repro import Database

    accepted = inspect.signature(Database.__init__).parameters
    applied = {key: value for key, value in wanted.items() if key in accepted}
    return Database(**applied), dict(wanted), applied


@dataclass
class Env:
    """A set-up database, ready to time."""

    db: object
    prepared: dict
    requested: dict
    applied: dict
    setup_s: float
    load_s: float
    index_s: float


def _bind(env: Env, op: Op):
    """(callable, args) of an op, resolved outside the timer."""
    if op.kind == "query":
        return env.db.query, (sql_text(op.shape, op.arg),)
    if op.kind == "cached":
        return env.db.execute_cached, (sql_text(op.shape, op.arg),)
    if op.kind == "prepared":
        return env.prepared[op.shape].execute, ((op.arg,),)
    return env.db.insert, ("SUPPLY", op.arg)


def _rows(result) -> list:
    # Database.query returns a QueryResult, the serving calls a RunReport.
    return result.rows if hasattr(result, "rows") else result.result.rows


def setup(workload: Workload, instance: Instance, wal_path: str | None = None) -> Env:
    """Database() + DDL + bulk load + index + prepare + first run of every shape."""
    start = perf_counter()
    wanted = dict(workload.config)
    if wal_path is not None:
        wanted["wal_path"] = wal_path
    db, requested, applied = make_db(**wanted)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=ROWS_PER_PAGE)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=ROWS_PER_PAGE
    )
    load_start = perf_counter()
    db.insert("PARTS", instance.parts)
    db.insert("SUPPLY", instance.supply)
    index_start = perf_counter()
    if workload.index:
        db.create_index("SUPPLY", "PNUM")
    index_end = perf_counter()
    prepared = {}
    if "prepared" in workload.read_kinds:
        prepared = {shape: db.prepare(prepared_text(shape)) for shape in workload.shapes}
    env = Env(db, prepared, requested, applied, 0.0, index_start - load_start, index_end - index_start)
    for shape in workload.shapes:
        for kind in dict.fromkeys(workload.read_kinds):
            call, args = _bind(env, Op(kind, shape, DATE_POOL[0]))
            call(*args)
    env.setup_s = perf_counter() - start
    return env


@dataclass
class Loop:
    """What one pass over the op stream measured."""

    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    by_shape: dict[str, list[float]] = field(default_factory=dict)
    rows_returned: int = 0
    user_bytes: int = 0
    counters: layers.Counters | None = None
    errors: list[str] = field(default_factory=list)
    #: Peak RSS when op number ``rss_at_op`` completed (None: not reached).
    rss_mb: float | None = None


def _program_counters(db) -> dict[str, int]:
    io, cache = db.io_stats(), db.cache_stats()
    return {
        "page_reads": io.page_reads,
        "page_writes": io.page_writes,
        "buffer_hits": io.buffer_hits,
        "plan_hits": cache.hits,
        "plan_misses": cache.misses,
        "shared_hits": cache.shared_hits,
        "memo_flushes": cache.memo_flushes,
        "shared_purges": cache.shared_purges,
        "wal_bytes": db.wal.size,
        "wal_flushes": db.wal.flush_count,
    }


def run_loop(
    env: Env,
    blocks: Iterator[list[Op]],
    shadow: Shadow,
    seconds: float | None,
    max_ops: int | None,
    rss_at_op: int | None = None,
) -> Loop:
    """Run whole blocks until ``seconds`` of operation time or ``max_ops``.

    The stop test sits at block boundaries, so the statement mix of any
    run is the same.  Time is the sum of the operations' own latencies:
    result checking between them is not the program's work.
    """
    loop = Loop()
    before = _program_counters(env.db)
    while True:
        if loop.ops == rss_at_op:
            loop.rss_mb = _peak_rss_mb()
        if max_ops is not None and loop.ops >= max_ops:
            break
        if seconds is not None and loop.busy_s >= seconds and loop.ops:
            break
        block = next(blocks)
        for op in block:
            call, args = _bind(env, op)
            start = perf_counter()
            try:
                result = call(*args)
                elapsed = perf_counter() - start
            except Exception as error:  # a failed op is counted, the run goes on
                elapsed = perf_counter() - start
                result = None
                loop.failed += 1
                if len(loop.errors) < 5:
                    loop.errors.append(f"{op.shape} {type(error).__name__}: {error}")
            loop.ops += 1
            loop.busy_s += elapsed
            if op.kind == "insert":
                loop.write_s.append(elapsed)
                if result is not None:  # acknowledged: the shadow gets it too
                    shadow.insert(op.arg)
                    loop.user_bytes += sum(len(repr(row)) for row in op.arg)
                continue
            loop.read_s.append(elapsed)
            loop.by_shape.setdefault(op.shape, []).append(elapsed)
            if result is None:
                continue
            rows = _rows(result)
            loop.rows_returned += len(rows)
            if not shadow.matches(op, rows):
                loop.failed += 1
                if len(loop.errors) < 5:
                    loop.errors.append(f"{op.shape} {op.arg}: result differs from SQLite")
    after = _program_counters(env.db)
    loop.counters = layers.Counters(
        selects=len(loop.read_s),
        writes=len(loop.write_s),
        rows_returned=loop.rows_returned,
        **{key: after[key] - before[key] for key in before},
    )
    return loop


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing(samples_s: list[float], fraction: float) -> dict:
    count = len(samples_s)
    return {
        "value": stats.percentile(samples_s, fraction) * 1e3,
        "unit": "ms",
        "samples": count,
        "beyond": stats.beyond(count, fraction),
    }


def _recover(env: Env, wal_path: str, scratch: pathlib.Path, shadow: Shadow) -> dict:
    """``recover()`` from copies of the WAL file, which holds only fsynced
    bytes: a row acknowledged by ``insert`` and absent afterwards is lost."""
    from repro.txn import recover

    config = {key: value for key, value in env.applied.items() if key != "wal_path"}
    seconds, lost, recovered_rows = [], 0, 0
    for rep in range(RECOVERY_REPS):
        copy = scratch / f"recover-{rep}.wal"
        shutil.copyfile(wal_path, copy)
        gc.collect()
        start = perf_counter()
        recovered = recover(str(copy), **config)
        seconds.append(perf_counter() - start)
        if rep == 0:
            got = bag(recovered.query("SELECT PNUM, QUAN, SHIPDATE FROM SUPPLY").rows)
            recovered_rows = sum(got.values())
            lost = sum((shadow.supply_bag() - got).values())
        del recovered
    return {
        "recovery_s": statistics.median(seconds),
        "lost_rows": lost,
        "rows": recovered_rows,
    }


def _traced_pass(env: Env, blocks, shadow: Shadow, warm_ops: int, untraced: Loop) -> dict:
    """Replay the untraced pass's operations with spans on.

    Returns the report's ``per_layer``, ``layer_shares`` and ``trace``
    entries, plus the pass's ``failed`` / ``attempted`` / ``errors``.
    """
    warm = run_loop(env, blocks, shadow, None, warm_ops)
    tracer = spans.Tracer()
    tracer.install(layers.BOUNDARIES)
    try:
        gc.collect()
        traced = run_loop(env, blocks, shadow, None, untraced.ops)
    finally:
        tracer.uninstall()
    assert traced.counters is not None
    per_layer = layers.layer_metrics(tracer, traced.counters)
    untraced_s_per_op = untraced.busy_s / untraced.ops
    per_layer["harness.trace_overhead_share"] = (
        traced.busy_s / traced.ops - untraced_s_per_op
    ) / untraced_s_per_op
    per_layer["harness.layers_missing"] = len(tracer.missing)
    totals = spans.aggregate(tracer.spans)
    return {
        "failed": warm.failed + traced.failed,
        "attempted": warm.ops + traced.ops,
        "errors": warm.errors + traced.errors,
        "per_layer": per_layer,
        "layer_shares": layers.layer_shares(tracer),
        "trace": {
            "layers_missing": tracer.missing,
            "traced_busy_s": traced.busy_s,
            "span_self_s": sum(entry.self_time for entry in totals.values())
            + sum(record[spans.HOT] for record in tracer.spans),
            "spans": {
                span_name: {
                    "calls": entry.calls,
                    "total_ms": entry.total * 1e3,
                    "self_ms": entry.self_time * 1e3,
                    "count": entry.count,
                }
                for span_name, entry in sorted(totals.items())
            },
            "hot": {
                hot_name: {"calls": counter.calls, "total_ms": counter.seconds * 1e3}
                for hot_name, counter in sorted(tracer.hot.items())
            },
            "sample": spans.span_trees(tracer.spans, TRACE_SAMPLE_STATEMENTS),
        },
    }


def measure(
    name: str,
    seed: int,
    seconds: float | None = None,
    ops: int | None = None,
    trace: bool = False,
    perturb_oracle: bool = False,
    quick: bool = False,
) -> dict:
    """Run one workload; returns its report (see README, "record schema").

    ``quick`` sets up once and warms up a twentieth as long: a smoke run
    whose numbers no bound applies to.
    """
    workload = WORKLOADS[name]
    if quick:
        workload = dataclasses.replace(
            workload, setup_reps=1, warm_blocks=-(-workload.warm_blocks // 20)
        )
    if seconds is not None and trace:
        # The traced pass replays the untraced one: half the time each.
        seconds = seconds / 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        return _measure(workload, seed, seconds, ops, trace, perturb_oracle, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _wal_path(workload: Workload, scratch: pathlib.Path, tag: str) -> str | None:
    return str(scratch / f"{tag}.wal") if workload.durable else None


def _measure(workload, seed, seconds, ops, trace, perturb_oracle, scratch) -> dict:
    calibration_before = stats.calibration_seconds()
    rng = workload_rng(seed, workload.name)
    instance = make_instance(workload, rng)
    ops_state = rng.getstate()
    loaded_bytes = sum(len(repr(row)) for row in instance.parts + instance.supply)

    def fresh_shadow() -> Shadow:
        shadow = Shadow(instance)
        if perturb_oracle:
            shadow.perturbed_shape = workload.shapes[0]
        if not workload.writes_per_block:
            # Read-only: every expected bag is worked out before timing.
            for shape in workload.shapes:
                for cutoff in DATE_POOL:
                    shadow.expected(shape, cutoff)
        return shadow

    # -- set-up, several times; the last database is the one timed ----------
    setups: list[float] = []
    env = None
    for rep in range(workload.setup_reps):
        env = None
        gc.collect()
        env = setup(workload, instance, _wal_path(workload, scratch, f"setup-{rep}"))
        setups.append(env.setup_s)
    assert env is not None
    wal_path = env.applied.get("wal_path")

    # -- the untraced pass: every end-to-end number comes from here ---------
    shadow = fresh_shadow()
    blocks = op_blocks(workload, rng)
    warm_ops = workload.warm_blocks * workload.block_size
    warm = run_loop(env, blocks, shadow, None, warm_ops)
    gc.collect()
    loop = run_loop(env, blocks, shadow, seconds, ops, workload.rss_at_op)
    counters = loop.counters
    assert counters is not None
    failed = warm.failed + loop.failed
    attempted = warm.ops + loop.ops
    e2e: dict[str, dict] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "throughput_ops_s": {"value": loop.ops / loop.busy_s, "unit": "1/s", "samples": loop.ops},
        "stmt_p50_ms": _timing(loop.read_s, 0.5),
        "stmt_p95_ms": _timing(loop.read_s, 0.95),
        "pages_per_stmt": {
            "value": (counters.page_reads + counters.page_writes) / counters.selects,
            "unit": "count",
            "samples": counters.selects,
        },
    }
    recovery = None
    if wal_path is not None:
        gc.collect()
        recovery = _recover(env, wal_path, scratch, shadow)
        wal_bytes = pathlib.Path(wal_path).stat().st_size
        e2e["write_p50_ms"] = _timing(loop.write_s, 0.5)
        e2e["write_p90_ms"] = _timing(loop.write_s, 0.9)
        e2e["recovery_s"] = {"value": recovery["recovery_s"], "unit": "s", "samples": RECOVERY_REPS}
        e2e["wal_bytes_per_user_byte"] = {
            "value": wal_bytes / (loaded_bytes + loop.user_bytes),
            "unit": "ratio",
        }
        e2e["durability_lost_rows"] = {"value": recovery["lost_rows"], "unit": "count"}
    e2e["peak_rss_mb"] = {
        "value": loop.rss_mb if loop.rss_mb is not None else _peak_rss_mb(),
        "unit": "MB",
        "at_op": workload.rss_at_op if loop.rss_mb is not None else loop.ops,
    }
    shape_p50 = {
        shape: stats.percentile(samples, 0.5) * 1e3 for shape, samples in loop.by_shape.items()
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "stop": {"seconds": seconds, "ops": ops},
        "client": "1 thread, closed loop, io_delay=0",
        "flush_policy": FLUSH_POLICY,
        "not_covered": NOT_COVERED,
        "config_requested": env.requested,
        "config_applied": env.applied,
        "ops": loop.ops,
        "selects": counters.selects,
        "writes": counters.writes,
        "warm_ops": warm.ops,
        "errors": warm.errors + loop.errors,
        "e2e": e2e,
        "shape_p50_ms": shape_p50,
    }

    shadow.close()
    if trace:
        # Same seed, same ops, spans on.
        env = None
        gc.collect()
        env = setup(workload, instance, _wal_path(workload, scratch, "traced"))
        rng.setstate(ops_state)
        shadow = fresh_shadow()
        traced = _traced_pass(env, op_blocks(workload, rng), shadow, warm_ops, loop)
        shadow.close()
        failed += traced.pop("failed")
        attempted += traced.pop("attempted")
        report["errors"] += traced.pop("errors")
        report.update(traced)
        per_layer = report["per_layer"]
        per_layer["txn.recover_rows_per_s"] = (
            recovery["rows"] / recovery["recovery_s"] if recovery else 0.0
        )
        loaded_rows = len(instance.parts) + len(instance.supply)
        per_layer["catalog.load_rows_per_s"] = loaded_rows / env.load_s
        per_layer["catalog.index_build_s"] = env.index_s
        for shape in metrics.SHAPES:
            per_layer[f"api.shape_p50_ms.{shape}"] = shape_p50.get(shape, 0.0)

    calibration_after = stats.calibration_seconds()
    drift = stats.drift_share(calibration_before, calibration_after)
    if trace:
        report["per_layer"]["harness.calib_drift_share"] = drift
    report["attempted"] = attempted
    report["failed"] = failed
    report["e2e"]["failed_ops_share"] = {"value": failed / attempted, "unit": "share"}
    lost = recovery["lost_rows"] if recovery else 0
    report["correct"] = failed == 0 and lost == 0
    report["calibration"] = {
        "before_s": calibration_before,
        "after_s": calibration_after,
        "drift_share": drift,
    }
    report["noisy"] = drift > stats.NOISY_DRIFT
    report["machine"] = stats.machine_fingerprint()
    return report


def contract_line(report: dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        values = {**report["e2e"], **{k: {"value": v} for k, v in report["per_layer"].items()}}
        wanted = metrics.CONTRACT_PER_LAYER
    else:
        values = report["e2e"]
        wanted = metrics.CONTRACT_E2E
    out = {}
    for metric in wanted:
        # The driver takes numbers only: a metric that is undefined on
        # this workload, or whose boundary is missing, reads 0.
        value = values.get(metric.name, {}).get("value")
        out[metric.name] = {"value": 0.0 if value is None else value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": out,
        }
    )


def write_trace_file(report: dict) -> pathlib.Path:
    """``out/trace_<workload>.json``: span aggregates and a sample of trees."""
    path = OUT_DIR / f"trace_{report['workload']}.json"
    keep = ("workload", "seed", "ops", "per_layer", "layer_shares", "trace")
    path.write_text(json.dumps({key: report[key] for key in keep}, indent=1))
    return path
