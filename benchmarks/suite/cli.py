"""``python -m benchmarks.suite {run,compare,aa,selftest}``.

``run`` starts one ``run.py`` process per workload with a fixed op count
(so that page counts repeat exactly), prints every metric by name with
its unit and sample count, and can write the whole record to a file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

from benchmarks.suite import compare, metrics, stats
from benchmarks.suite.workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1987
HOLD_OUT_SEED = 2087
#: ``--quick`` runs this fraction of each workload's ops.
QUICK_DIVISOR = 20


def run_workload(
    name: str, seed: int, ops: int, trace: bool, quick: bool = False, perturb_oracle: bool = False
) -> tuple[int, dict | None]:
    """One ``run.py`` child: (exit code, full report or None)."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        report_path = pathlib.Path(scratch) / "report.json"
        command = [
            sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
            "--ops", str(ops), "--trace", str(int(trace)), "--report", str(report_path),
        ]
        if quick:
            command.append("--quick")
        if perturb_oracle:
            command.append("--perturb-oracle")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
    return done.returncode, report


def quick_ops(name: str) -> int:
    """A twentieth of the workload's ops, in whole blocks."""
    workload = WORKLOADS[name]
    blocks = max(1, workload.ops // QUICK_DIVISOR // workload.block_size)
    return blocks * workload.block_size


def run_suite(
    names: list[str], seed: int, trace: bool, quick: bool, perturb_oracle: bool = False
) -> dict:
    record = {
        "suite": "benchmarks.suite",
        "seed": seed,
        "quick": quick,
        "traced": trace,
        "machine": stats.machine_fingerprint(),
        "workloads": {},
    }
    for name in names:
        ops = quick_ops(name) if quick else WORKLOADS[name].ops
        code, report = run_workload(name, seed, ops, trace, quick, perturb_oracle)
        if report is None:
            raise SystemExit(f"workload {name}: run.py exited {code} without a report")
        record["workloads"][name] = report
    return record


def _samples(entry: dict) -> str:
    if "samples" not in entry:
        return ""
    text = f"n={entry['samples']}"
    if "beyond" in entry:
        text += f", {entry['beyond']} beyond"
        if entry["beyond"] < stats.MIN_BEYOND:
            supported = stats.highest_supported(entry["samples"])
            text += f": fewer than {stats.MIN_BEYOND}, this sample supports " + (
                f"p{supported * 100:g} at most" if supported else "no percentile"
            )
    return f"  ({text})"


def format_record(record: dict) -> str:
    lines = [
        f"benchmarks.suite  seed {record['seed']}"
        f"{'  QUICK (no bounds apply)' if record['quick'] else ''}",
        f"machine: {record['machine']}",
    ]
    for name, report in record["workloads"].items():
        lines += [
            "",
            f"== {name}: {report['why']}",
            f"   {report['ops']} ops ({report['selects']} SELECT, {report['writes']} insert) "
            f"after {report['warm_ops']} warm-up ops; {report['client']}",
            f"   config applied: {report['config_applied']}",
        ]
        dropped = sorted(set(report["config_requested"]) - set(report["config_applied"]))
        if dropped:
            lines.append(f"   config dropped (no longer a Database kwarg): {dropped}")
        lines.append(f"   flush policy: {report['flush_policy']}")
        lines.append("   -- end to end (tracing off)")
        for metric in metrics.E2E:
            entry = report["e2e"].get(metric.name)
            if entry is not None:
                lines.append(
                    f"   {metric.name:<26} {entry['value']:14.4f} {metric.unit:<6}{_samples(entry)}"
                )
        for shape, value in report["shape_p50_ms"].items():
            lines.append(f"   api.shape_p50_ms.{shape:<12} {value:10.4f} ms")
        if "per_layer" in report:
            lines.append("   -- per layer (traced pass)")
            for metric in metrics.LAYER:
                if metric.name.startswith("api.shape_p50_ms."):
                    continue  # from the untraced pass: printed above
                value = report["per_layer"].get(metric.name)
                shown = "null (boundary missing)" if value is None else f"{value:14.4f}"
                lines.append(f"   {metric.name:<42} {shown} {metric.unit}")
            shares = ", ".join(f"{k} {v:.1%}" for k, v in report["layer_shares"].items())
            lines.append(f"   share of SELECT time by layer: {shares}")
        if report["noisy"]:
            lines.append(
                f"   NOISY: calibration drifted {report['calibration']['drift_share']:.1%}"
            )
        if not report["correct"]:
            lines.append(f"   FAILED: {report['failed']} of {report['attempted']} ops")
            lines += [f"      {error}" for error in report["errors"]]
    lines += ["", f"not covered: {next(iter(record['workloads'].values()))['not_covered']}"]
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    record = run_suite(names, args.seed, args.trace, args.quick, args.perturb_oracle)
    print(format_record(record))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if all(r["correct"] for r in record["workloads"].values()) else 1


def cmd_compare(args: argparse.Namespace) -> int:
    base = json.loads(pathlib.Path(args.base).read_text())
    new = json.loads(pathlib.Path(args.new).read_text())
    rows = compare.compare_reports(base, new)
    print(compare.format_rows(rows))
    worse = [row for row in rows if row.verdict == "worse"]
    print(f"\n{len(worse)} worse, {sum(r.verdict == 'unresolved' for r in rows)} unresolved")
    return 1 if worse else 0


def cmd_aa(args: argparse.Namespace) -> int:
    """Same commit twice, workload order alternated: the measured spread."""
    names = list(WORKLOADS)
    first = run_suite(names, args.seed, trace=False, quick=args.quick)
    second = run_suite(names[::-1], args.seed, trace=False, quick=args.quick)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "aa_first.json").write_text(json.dumps(first, indent=1))
    (OUT_DIR / "aa_second.json").write_text(json.dumps(second, indent=1))
    rows = compare.compare_reports(first, second)
    print(compare.format_rows(rows))
    print("\nrelative difference |second - first| / first:")
    for row in rows:
        if row.base:
            print(f"  {row.workload:<11} {row.metric:<24} {abs(row.new - row.base) / row.base:8.4f}")
    return 1 if any(row.verdict == "worse" for row in rows) else 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """The oracle must bite: a falsified expected bag fails the run."""
    ops = quick_ops("adhoc_tiny")
    code, report = run_workload("adhoc_tiny", args.seed, ops, False, True, perturb_oracle=True)
    if code == 0 or report is None or report["failed"] == 0 or report["correct"]:
        print("selftest FAILED: a perturbed oracle went unnoticed")
        return 1
    print(f"perturbed oracle: exit {code}, {report['failed']} of {report['attempted']} ops failed")
    code, report = run_workload("adhoc_tiny", args.seed, ops, False, True)
    if code != 0 or report is None or report["failed"]:
        print("selftest FAILED: the unperturbed run is not clean")
        return 1
    print("selftest ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"hold-out: {HOLD_OUT_SEED}")
    run.add_argument("--trace", action="store_true", help="add the traced pass (per-layer)")
    run.add_argument("--quick", action="store_true", help="1/20 of the ops; no bounds apply")
    run.add_argument("--out", help="write the whole record as JSON")
    run.add_argument("--perturb-oracle", action="store_true", help=argparse.SUPPRESS)
    run.set_defaults(call=cmd_run)

    cmp_parser = commands.add_parser("compare", help="verdict per (workload, e2e metric)")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("new")
    cmp_parser.set_defaults(call=cmd_compare)

    aa = commands.add_parser("aa", help="run twice, alternate order, compare")
    aa.add_argument("--seed", type=int, default=DEFAULT_SEED)
    aa.add_argument("--quick", action="store_true")
    aa.set_defaults(call=cmd_aa)

    selftest = commands.add_parser("selftest", help="prove that the oracle check bites")
    selftest.add_argument("--seed", type=int, default=DEFAULT_SEED)
    selftest.set_defaults(call=cmd_selftest)

    args = parser.parse_args(argv)
    return args.call(args)
