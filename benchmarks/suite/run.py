"""Driver entry point: one workload, one process, one JSON line.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's own ``src/`` (never from an installed copy), so a directory
without it fails before any result is printed.  The measurement runs in
a child interpreter started with ``PYTHONHASHSEED=0`` so that set and
dict iteration orders, and with them page-I/O counts, repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1987)
    stop = parser.add_mutually_exclusive_group()
    stop.add_argument("--seconds", type=float, help="operation time to measure")
    stop.add_argument("--ops", type=int, help="fixed operation count instead of a time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report to this file")
    parser.add_argument(
        "--quick", action="store_true", help="one set-up, a twentieth of the warm-up"
    )
    parser.add_argument(
        "--perturb-oracle",
        action="store_true",
        help="falsify one expected bag: the run must report failed operations",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, __file__, *argv], env=env).returncode

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite import runner
    from benchmarks.suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None and args.ops is None:
        seconds = 10.0
    report = runner.measure(
        args.workload,
        args.seed,
        seconds=seconds,
        ops=args.ops,
        trace=bool(args.trace),
        perturb_oracle=args.perturb_oracle,
        quick=args.quick,
    )
    if args.trace:
        runner.write_trace_file(report)
    if args.report:
        slim = {key: value for key, value in report.items() if key != "trace"}
        pathlib.Path(args.report).write_text(json.dumps(slim, indent=1))
    for error in report["errors"]:
        print(f"run.py: failed op: {error}", file=sys.stderr)
    print(runner.contract_line(report, bool(args.trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
