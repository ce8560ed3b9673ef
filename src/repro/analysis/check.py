"""``python -m repro check`` — static analysis of queries and plans.

For each query (SQL text on the command line, a ``.sql`` file, or the
built-in ``--figure1`` paper workload) the command:

1. parses and binds the query: the binder reports every name it
   cannot resolve (PV001, PV002, PV004, PV011), with a caret under it
   in the source text;
2. runs NEST-G and verifies the resulting plan — schema chaining
   through the temp chain, join shape, rejoin coverage;
3. runs the Kim-bug lint (KB001–KB003) over the transformed plan;
4. prints the inferred type + nullability of every output column.

Exit status 0 when no error-severity diagnostics were found, 1
otherwise::

    python -m repro check --figure1
    python -m repro check --instance kiessling "SELECT ..."
    python -m repro check queries/q2.sql

The lint's own teeth are tested on the plans of the section 5
demonstrators (:func:`repro.core.nest_ja.kim_nest_g`,
:func:`~repro.core.nest_ja.naive_outer_nest_g`), which no engine builds.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.diagnostics import Findings
from repro.analysis.lint import lint_transform
from repro.analysis.nullability import infer_query_nullability
from repro.analysis.spans import SourceMap
from repro.analysis.verifier import verify_nested, verify_transform
from repro.config import CHOICES
from repro.core.nest_g import nest_g
from repro.core.predicates import rewrite_extended_predicates
from repro.errors import ReproError
from repro.sql.parser import parse
from repro.workloads import paper_data

#: instance name -> catalog loader.
INSTANCES = {
    "kiessling": paper_data.load_kiessling_instance,
    "operator": paper_data.load_operator_bug_instance,
    "duplicates": paper_data.load_duplicates_instance,
    "suppliers": paper_data.load_supplier_parts,
}

#: The paper's workload queries (Figure 1 and section 5), each with the
#: instance it runs against.
FIGURE1_WORKLOAD: tuple[tuple[str, str, str], ...] = (
    ("Kiessling Q2 (section 5.1)", "kiessling", paper_data.KIESSLING_Q2),
    (
        "Kiessling Q2 with COUNT(*) (section 5.2.1)",
        "kiessling",
        paper_data.KIESSLING_Q2_COUNT_STAR,
    ),
    ("query Q5 (section 5.3)", "operator", paper_data.QUERY_Q5),
    ("Kiessling Q2 on duplicates (section 5.4)", "duplicates", paper_data.KIESSLING_Q2),
    ("introduction example (1)", "suppliers", paper_data.INTRO_QUERY_1),
    ("type-A example (2)", "suppliers", paper_data.TYPE_A_QUERY),
    ("type-N example (3)", "suppliers", paper_data.TYPE_N_QUERY),
    ("type-J example (4)", "suppliers", paper_data.TYPE_J_QUERY),
    ("type-JA example (5)", "suppliers", paper_data.TYPE_JA_QUERY),
)


def check_query(
    sql: str,
    instance: str = "kiessling",
    join_method: str = "merge",
) -> tuple[Findings, list[str]]:
    """Statically analyze one query; returns (findings, report lines)."""
    lines: list[str] = []
    catalog = INSTANCES[instance]()

    bound, findings = verify_nested(parse(sql), catalog, SourceMap(sql))
    if findings.errors:
        return findings, lines
    prepared = rewrite_extended_predicates(bound)

    for name, inferred in infer_query_nullability(prepared, catalog):
        lines.append(f"  output {name}: {inferred.describe()}")

    try:
        # Verified below, reporting every finding instead of raising.
        transform = nest_g(prepared, catalog)
    except ReproError as error:
        lines.append(f"  transform not applicable: {error}")
        return findings, lines

    plan_findings, temps = verify_transform(
        transform, catalog, join_method=join_method
    )
    findings.extend(plan_findings)
    findings.extend(lint_transform(transform, catalog, temps))

    for info in temps.values():
        described = ", ".join(
            f"{name} {inferred.describe()}"
            for name, inferred in info.outputs.items()
        )
        lines.append(f"  temp {info.name}: {described}")
    return findings, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Statically verify and lint queries without executing them.",
    )
    parser.add_argument(
        "queries",
        nargs="*",
        help="SQL strings or .sql files (omit with --figure1)",
    )
    parser.add_argument(
        "--instance",
        default="kiessling",
        choices=sorted(INSTANCES),
        help="schema/data instance to resolve against (default: kiessling)",
    )
    parser.add_argument(
        "--join",
        default="merge",
        choices=CHOICES["join_method"],
        help="join method assumed by the plan checks (default: merge)",
    )
    parser.add_argument(
        "--figure1",
        action="store_true",
        help="check the paper's workload queries on their instances",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the CC lock-order lint over src/repro (baseline-"
        "filtered) plus a TX monitor smoke",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="prove the concurrency analyzers detect their seeded-bug "
        "fixtures",
    )
    args = parser.parse_args(argv)

    if args.concurrency or args.selftest:
        from repro.analysis.concurrency.cli import (
            run_concurrency_check,
            run_selftest,
        )

        exit_code = 0
        if args.concurrency:
            exit_code = max(exit_code, run_concurrency_check())
        if args.selftest:
            exit_code = max(exit_code, run_selftest())
        if not args.queries and not args.figure1:
            return exit_code
        if exit_code:
            return exit_code

    jobs: list[tuple[str, str, str]] = []
    if args.figure1:
        jobs.extend(FIGURE1_WORKLOAD)
    for entry in args.queries:
        path = Path(entry)
        if entry.lower().endswith(".sql"):
            jobs.append((entry, args.instance, path.read_text()))
        else:
            jobs.append(("query", args.instance, entry))
    if not jobs:
        parser.error("no queries given (pass SQL, .sql files, or --figure1)")

    exit_code = 0
    for title, instance, sql in jobs:
        print(f"== {title} [{instance}] ==")
        try:
            findings, lines = check_query(
                sql,
                instance=instance,
                join_method=args.join,
            )
        except ReproError as error:
            print(f"  error: {error}")
            exit_code = 1
            continue
        for line in lines:
            print(line)
        if findings:
            print(findings.format(sql))
        else:
            print("  no findings")
        if findings.errors:
            exit_code = 1
    return exit_code
