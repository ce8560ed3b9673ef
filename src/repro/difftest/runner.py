"""The differential comparison and its CLI.

For every generated case the runner executes the query several ways —

1. ``nested_iteration`` (System R semantics, the repo's baseline),
2. ``transform``        (NEST-G with the paper's algorithms), once per
   join method (merge, nested, hash by default) and worker width, and
3. SQLite               (the external reference oracle)

— normalizes each result to a multiset, and demands agreement.  The
transform legs are skipped (not failed) when the query is outside the
algorithms' documented reach (``TransformError``, e.g. correlated
NOT IN); the other legs must still agree.

On top of bag-equal rows, every width of one join method — serial or
parallel — must report **identical page I/O**: over how many shards an
operator evaluates its tuples is not part of the plan, so a difference
in page counts is a divergence even when the rows agree.

Static analysis rides along on every leg: every transformed plan is
verified and linted (:mod:`repro.analysis`) before it executes,
and the nested-iteration executor verifies scope well-formedness over
the raw AST — so every generated query also regression-tests the
static analyses against the oracle-checked runtime behavior.

Known dialect differences (the allowlist) are enforced structurally
rather than filtered after the fact: the grammar generates none of

* scalar subqueries of more than one row (our engine raises
  ``CardinalityError``; SQLite silently takes the first row),
* integer division (``/`` is true division here, integer in SQLite),
* division by zero (an error here, NULL in SQLite),
* mixed-type comparisons (an error here, type-ordered in SQLite).

Everything the grammar does generate must agree exactly.

``--mixed STEPS`` appends a transactional leg: interleaved commits,
aborts, and cached-plan reads against a live :class:`~repro.api.Database`
checked step-by-step against a SQLite shadow fed only the committed
batches (:mod:`repro.difftest.mixed`).
"""

from __future__ import annotations

import argparse
from collections import Counter
from dataclasses import dataclass, field

from repro.config import CHOICES
from repro.core.pipeline import Engine
from repro.difftest.grammar import Case, CaseGenerator
from repro.difftest.leaks import leaked_pages
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.errors import TransformError
from repro.sql.parser import parse


#: The transform leg runs once per join method by default.
JOIN_METHODS = CHOICES["join_method"]

#: Default parallelism matrix: serial only (cross in degrees with
#: --parallelism; parallel legs run with ``parallel_threshold=0`` so
#: the grammar's small cases exercise the exchange operators at all).
PARALLELISMS = (1,)


@dataclass
class CaseOutcome:
    """Result of running one case through every engine leg."""

    case: Case
    status: str  # "ok" | "divergence" | "error"
    transform_skipped: bool = False
    detail: str = ""
    results: dict[str, Counter] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def run_case(
    case: Case,
    join_methods: tuple[str, ...] = JOIN_METHODS,
    parallelisms: tuple[int, ...] = PARALLELISMS,
) -> CaseOutcome:
    """Execute one case every way and compare normalized bags."""
    catalog = case.build_catalog()
    try:
        select = parse(case.sql)
    except Exception as exc:  # pragma: no cover - grammar emits valid SQL
        return CaseOutcome(case, "error", detail=f"parse: {exc}")

    engine = Engine(catalog)
    results: dict[str, Counter] = {}

    try:
        with SQLiteOracle(catalog) as oracle:
            results["sqlite"] = normalize_rows(oracle.run(select))
    except Exception as exc:
        return CaseOutcome(case, "error", detail=f"sqlite: {exc}")

    try:
        ni = engine.run(select, method="nested_iteration")
        results["nested_iteration"] = normalize_rows(ni.result.rows)
    except Exception as exc:
        return CaseOutcome(
            case, "error", detail=f"nested_iteration: {exc}", results=results
        )
    leaked = leaked_pages(catalog)
    if leaked:
        return _leak_outcome(case, "nested_iteration", leaked, results)

    transform_skipped = False
    detail_skip = ""
    for join_method in join_methods:
        page_ios: dict[str, int] = {}
        for degree in parallelisms:
            executor = Engine(
                catalog,
                join_method=join_method,
                parallelism=degree,
                # The grammar's cases are tiny; without a zero threshold
                # a parallel leg would silently run the serial operators.
                parallel_threshold=0 if degree > 1 else None,
            )
            suffix = f"|p{degree}" if degree > 1 else ""
            leg = f"transform[{join_method}{suffix}]"
            # Cold cache per leg (the bench protocol): page I/O must
            # reflect the plan, not the buffer state a previous leg
            # happened to leave behind.
            catalog.buffer.evict_all()
            try:
                tr = executor.run(select, method="transform")
                results[leg] = normalize_rows(tr.result.rows)
                page_ios[leg] = tr.io.page_ios
            except TransformError as exc:
                # The rewrite itself is independent of join method and
                # width: one skip means they all skip.
                transform_skipped = True
                detail_skip = str(exc)
            except Exception as exc:
                return CaseOutcome(
                    case, "error", detail=f"{leg}: {exc}", results=results
                )
            leaked = leaked_pages(catalog)
            if leaked:
                return _leak_outcome(case, leg, leaked, results)
            if transform_skipped:
                break
        if transform_skipped:
            break
        # Every width of one join method must charge the same page
        # I/O — the exchange operators may not change the cost model.
        if len(set(page_ios.values())) > 1:
            return CaseOutcome(
                case,
                "divergence",
                detail=f"page I/O differs across legs: {page_ios}",
                results=results,
            )

    reference = results["sqlite"]
    for leg, bag in results.items():
        if leg != "sqlite" and bag != reference:
            return CaseOutcome(
                case,
                "divergence",
                transform_skipped=transform_skipped,
                detail=f"{leg} disagrees with sqlite",
                results=results,
            )
    return CaseOutcome(
        case,
        "ok",
        transform_skipped=transform_skipped,
        detail="transform skipped: " + detail_skip if transform_skipped else "",
        results=results,
    )


def _leak_outcome(
    case: Case, leg: str, leaked: int, results: dict[str, Counter]
) -> CaseOutcome:
    """A leg that leaves pages nobody owns fails like a wrong row does."""
    return CaseOutcome(
        case,
        "divergence",
        detail=f"{leg} leaked {leaked} page(s): every page a "
        "run allocates must be freed or registered before it returns",
        results=results,
    )


@dataclass
class Report:
    """Aggregate statistics of a difftest run."""

    examples: int = 0
    ok: int = 0
    transform_skipped: int = 0
    failures: list[CaseOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"{self.examples} examples: {self.ok} ok, "
            f"{self.transform_skipped} transform-leg skips, "
            f"{len(self.failures)} failure(s)"
        )


def run_difftest(
    examples: int = 200,
    seed: int = 0,
    stop_on_failure: bool = True,
    minimize: bool = True,
    join_methods: tuple[str, ...] = JOIN_METHODS,
    parallelisms: tuple[int, ...] = PARALLELISMS,
) -> Report:
    """Generate and check ``examples`` cases; minimize any failure."""
    from repro.difftest.minimize import minimize_case

    generator = CaseGenerator(seed)
    report = Report()
    for index in range(examples):
        case = generator.case(index)
        outcome = run_case(case, join_methods, parallelisms)
        report.examples += 1
        if outcome.status == "ok":
            report.ok += 1
            if outcome.transform_skipped:
                report.transform_skipped += 1
            continue
        if minimize:
            shrunk = minimize_case(
                case,
                lambda c: run_case(c, join_methods, parallelisms).failed,
            )
            outcome = run_case(shrunk, join_methods, parallelisms)
            if not outcome.failed:  # pragma: no cover - shrinker invariant
                outcome = run_case(case, join_methods, parallelisms)
        report.failures.append(outcome)
        if stop_on_failure:
            break
    return report


def format_outcome(outcome: CaseOutcome) -> str:
    lines = [
        f"--- {outcome.status.upper()} (case #{outcome.case.index}, "
        f"seed {outcome.case.seed}) ---",
        outcome.case.describe(),
        f"detail: {outcome.detail}",
    ]
    for leg, bag in outcome.results.items():
        lines.append(f"{leg}:")
        lines.append(format_rows_from_bag(bag))
    return "\n".join(lines)


def format_rows_from_bag(bag: Counter) -> str:
    lines = []
    for row, count in sorted(bag.items(), key=repr):
        values = ", ".join(
            "NULL" if v == ("NULL",) else repr(v[1]) for v in row
        )
        suffix = f" x{count}" if count > 1 else ""
        lines.append(f"  ({values}){suffix}")
    return "\n".join(lines) if lines else "  (empty)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro difftest",
        description="Differential-test the engine against SQLite.",
    )
    parser.add_argument(
        "--examples", type=int, default=200, help="number of cases (default 200)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect every failure instead of stopping at the first",
    )
    parser.add_argument(
        "--join-methods",
        default=",".join(JOIN_METHODS),
        help="comma-separated join methods for the transform legs "
        f"(default: {','.join(JOIN_METHODS)})",
    )
    parser.add_argument(
        "--parallelism",
        default=",".join(str(p) for p in PARALLELISMS),
        help="comma-separated worker-shard degrees for the transform "
        "legs; degrees > 1 run with parallel_threshold=0 (default: 1)",
    )
    parser.add_argument(
        "--mixed",
        type=int,
        default=0,
        metavar="STEPS",
        help="also run STEPS interleaved transactional write/read steps "
        "against a SQLite shadow (see repro.difftest.mixed; default 0)",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=0,
        metavar="N",
        help="also replay N mixed multi-query events per parallelism "
        "leg (1 and 4) through the shared-subplan cache, checked "
        "against SQLite and the sharing-disabled path "
        "(see repro.difftest.replay; default 0)",
    )
    args = parser.parse_args(argv)

    join_methods = tuple(
        method.strip()
        for method in args.join_methods.split(",")
        if method.strip()
    )
    try:
        parallelisms = tuple(
            int(token.strip())
            for token in args.parallelism.split(",")
            if token.strip()
        )
    except ValueError:
        parser.error(f"--parallelism must be integers: {args.parallelism!r}")
    if any(degree < 1 for degree in parallelisms):
        parser.error("--parallelism degrees must be >= 1")
    report = run_difftest(
        examples=args.examples,
        seed=args.seed,
        stop_on_failure=not args.keep_going,
        join_methods=join_methods,
        parallelisms=parallelisms,
    )
    for outcome in report.failures:
        print(format_outcome(outcome))
    print(report.summary())
    clean = report.clean
    if args.mixed > 0:
        from repro.difftest.mixed import run_mixed

        mixed_report = run_mixed(steps=args.mixed, seed=args.seed)
        for line in mixed_report.failures:
            print(f"--- MIXED DIVERGENCE ---\n{line}")
        print(mixed_report.summary())
        clean = clean and mixed_report.clean
    if args.replay > 0:
        from repro.difftest.replay import run_replay

        replay_report = run_replay(queries=args.replay, seed=args.seed)
        for line in replay_report.failures:
            print(f"--- REPLAY DIVERGENCE ---\n{line}")
        print(replay_report.summary())
        clean = clean and replay_report.clean
    return 0 if clean else 1
