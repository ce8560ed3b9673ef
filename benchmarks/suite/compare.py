"""Compare two suite reports: one verdict per (workload, end-to-end metric)."""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.suite import metrics, stats


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: float
    new: float
    bound: float
    verdict: str  # "better" | "same" | "worse" | "unresolved"
    why: str = ""

    @property
    def ratio(self) -> float | None:
        return self.new / self.base if self.base else None


def worsening(metric: metrics.Metric, base: float, new: float) -> float:
    """By how much ``new`` is worse than ``base``, as a share of ``base``
    (negative: better).  A base of 0 makes any worsening infinite."""
    delta = new - base if metric.better == "lower" else base - new
    if delta == 0:
        return 0.0
    if base == 0:
        return float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


def verdict(metric: metrics.Metric, base: dict, new: dict) -> tuple[str, str]:
    for side in (base, new):
        if "beyond" in side and side["beyond"] < stats.MIN_BEYOND:
            return "unresolved", f"only {side['beyond']} samples beyond the percentile"
    change = worsening(metric, base["value"], new["value"])
    if abs(new["value"] - base["value"]) <= metric.floor:
        return "same", ""
    assert metric.bound is not None
    if change > metric.bound:
        return "worse", ""
    if change < -metric.bound:
        return "better", ""
    return "same", ""


def compare_reports(base: dict, new: dict) -> list[Row]:
    """Rows for every e2e metric both reports have, workload by workload."""
    rows: list[Row] = []
    for name, base_workload in base["workloads"].items():
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            continue
        refusal = ""
        if base.get("quick") or new.get("quick"):
            refusal = "quick run: no bounds"
        elif base_workload["noisy"] or new_workload["noisy"]:
            refusal = "calibration drifted: noisy run"
        for metric in metrics.E2E:
            old, fresh = base_workload["e2e"].get(metric.name), new_workload["e2e"].get(metric.name)
            if old is None or fresh is None:
                continue
            outcome, why = ("unresolved", refusal) if refusal else verdict(metric, old, fresh)
            rows.append(
                Row(name, metric.name, metric.unit, old["value"], fresh["value"],
                    metric.bound or 0.0, outcome, why)
            )
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<11} {'metric':<24} {'base':>12} {'new':>12} {'new/base':>9} "
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        ratio = f"{row.ratio:9.3f}" if row.ratio is not None else f"{'-':>9}"
        lines.append(
            f"{row.workload:<11} {row.metric:<24} {row.base:12.4f} {row.new:12.4f} {ratio} "
            f"{row.bound:6.2f}  {row.verdict}{' (' + row.why + ')' if row.why else ''}"
        )
    return "\n".join(lines)
