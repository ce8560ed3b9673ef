"""Ablations of the design choices DESIGN.md calls out.

* **join method inside the transformed plan** (merge vs nested-loop) —
  section 7.4's variant comparison, measured;
* **the inner temp of NEST-N-J** — Kim's literal merge against the
  restricted, projected, duplicate-free inner temp NEST-G merges as a
  semi-join: correctness effect (multiplicities) and I/O overhead;
* **outer projection (TEMP1) restriction** — NEST-JA2 step 1 applies
  the outer relation's simple predicates; this measures what that
  optimization is worth.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.harness import compare_methods, measure
from repro.bench.reporting import format_table
from repro.core.nest_nj import apply_nest_nj
from repro.core.pipeline import prepare_query
from repro.engine.relation import Relation
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.parser import parse
from repro.workloads.generators import (
    CUTOFF,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)

SPEC = PartsSupplySpec(
    num_parts=100, num_supply=600, rows_per_page=10, buffer_pages=6, seed=31
)

RESTRICTED_JA_QUERY = f"""
    SELECT PNUM FROM PARTS
    WHERE PNUM <= 20 AND
          QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
                 WHERE SUPPLY.PNUM = PARTS.PNUM AND
                       SHIPDATE < '{CUTOFF}')
"""


def test_join_method_ablation(benchmark, write_report):
    catalog = build_parts_supply(SPEC)

    def run():
        merge = measure(catalog, GENERATED_JA_QUERY, "transform",
                        join_method="merge")
        nested = measure(catalog, GENERATED_JA_QUERY, "transform",
                         join_method="nested")
        return merge, nested

    merge, nested = benchmark.pedantic(run, rounds=2, iterations=1)
    assert Counter(merge.rows) == Counter(nested.rows)

    write_report(
        "ablation_join_method",
        format_table(
            ["transformed-plan join method", "page I/Os"],
            [["merge join", merge.page_ios], ["nested loop", nested.page_ios]],
            title="Ablation: join method inside the NEST-JA2 plan",
        ),
    )


def literal_nest_nj(catalog, sql):
    """Kim's literal NEST-N-J (merge the FROM clauses, ``IN`` → ``=``),
    measured cold: the pure function, run as the flat join it is."""
    block = prepare_query(parse(sql), catalog)
    flat = apply_nest_nj(block, block.where)
    catalog.buffer.evict_all()
    before = catalog.buffer.stats()
    rows = SingleLevelExecutor(catalog).execute(flat, Relation.to_list)
    return rows, (catalog.buffer.stats() - before).page_ios


def test_dedupe_inner_ablation(benchmark, write_report):
    catalog = build_parts_supply(SPEC)

    def run():
        ni, inner_temp = compare_methods(catalog, GENERATED_N_QUERY)
        return ni, literal_nest_nj(catalog, GENERATED_N_QUERY), inner_temp

    ni, (literal_rows, literal_ios), inner_temp = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Paper-literal NEST-N-J inflates multiplicities; the duplicate-free
    # inner temp, merged as a semi-join, keeps them.
    assert len(literal_rows) >= len(ni.rows)
    assert set(literal_rows) == set(ni.rows)

    write_report(
        "ablation_dedupe",
        format_table(
            ["variant", "rows returned", "page I/Os"],
            [
                ["nested iteration (truth)", len(ni.rows), ni.page_ios],
                ["NEST-N-J paper-literal", len(literal_rows), literal_ios],
                [
                    "NEST-N-J + inner temp, semi-join",
                    len(inner_temp.rows),
                    inner_temp.page_ios,
                ],
            ],
            title="Ablation: Kim's literal merge vs the inner temp for NEST-N-J",
        ),
    )


def test_outer_restriction_benefit(benchmark, write_report):
    """NEST-JA2 step 1's restriction shrinks TEMP1 and everything after."""
    from repro.core.pipeline import Engine

    catalog = build_parts_supply(SPEC)

    def run():
        restricted = measure(catalog, RESTRICTED_JA_QUERY, "transform")
        unrestricted = measure(catalog, GENERATED_JA_QUERY, "transform")
        report = Engine(catalog).run(RESTRICTED_JA_QUERY, method="transform")
        return restricted, unrestricted, report

    restricted, unrestricted, report = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # The simple predicate must appear inside the TEMP1 definition.
    assert any("PNUM <= 20" in sql for sql in report.setup_sql)
    assert restricted.page_ios <= unrestricted.page_ios

    write_report(
        "ablation_outer_restriction",
        format_table(
            ["query", "page I/Os (transform)"],
            [
                ["with simple outer predicate (f(i) = 0.2)", restricted.page_ios],
                ["without (f(i) = 1.0)", unrestricted.page_ios],
            ],
            title="NEST-JA2 step 1: restricting the outer projection",
        ),
    )
