"""Section 8 — EXISTS / NOT EXISTS / ANY / ALL through the pipeline.

Each extended predicate is rewritten to an aggregate nested predicate
and then unnested; the benchmark verifies results against nested
iteration and reports the I/O of both strategies.  NOT EXISTS is the
interesting row: its ``0 = COUNT(...)`` rewrite only works because
NEST-JA2's outer join manufactures the zero-count groups.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import compare_methods, measure_transform
from repro.core.nest_ja import kim_nest_g
from repro.bench.reporting import format_table, savings_percent
from repro.workloads.generators import CUTOFF, PartsSupplySpec, build_parts_supply

SPEC = PartsSupplySpec(
    num_parts=80, num_supply=500, rows_per_page=10, buffer_pages=6, seed=41
)

EXTENSION_QUERIES = {
    "exists": f"""
        SELECT PNUM FROM PARTS
        WHERE EXISTS (SELECT QUAN FROM SUPPLY
                      WHERE SUPPLY.PNUM = PARTS.PNUM AND
                            SHIPDATE < '{CUTOFF}')
    """,
    "not_exists": f"""
        SELECT PNUM FROM PARTS
        WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY
                          WHERE SUPPLY.PNUM = PARTS.PNUM AND
                                SHIPDATE < '{CUTOFF}')
    """,
    "lt_any": """
        SELECT PNUM FROM PARTS
        WHERE QOH < ANY (SELECT QUAN FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM)
    """,
    "ge_all": """
        SELECT PNUM FROM PARTS
        WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY
                          WHERE SUPPLY.PNUM = PARTS.PNUM)
    """,
}

@pytest.mark.parametrize("name", sorted(EXTENSION_QUERIES))
def test_extension(name, benchmark, write_report):
    catalog = build_parts_supply(SPEC)
    sql = EXTENSION_QUERIES[name]

    def run():
        return compare_methods(catalog, sql)

    ni, tr = benchmark.pedantic(run, rounds=1, iterations=1)

    write_report(
        f"extensions_{name}",
        format_table(
            ["method", "rows", "page I/Os"],
            [
                ["nested iteration", len(ni.rows), ni.page_ios],
                ["section-8 rewrite + NEST-JA2", len(tr.rows), tr.page_ios],
            ],
            title=(
                f"Extended predicate: {name} "
                f"(saving {savings_percent(ni.page_ios, tr.page_ios):.0f}%)"
            ),
        ),
    )


def test_not_exists_needs_outer_join(benchmark):
    """With Kim's NEST-JA the NOT EXISTS rewrite returns nothing —
    COUNT can never be 0 — while NEST-JA2 matches nested iteration."""
    catalog = build_parts_supply(SPEC)
    sql = EXTENSION_QUERIES["not_exists"]

    def run():
        ni, fixed = compare_methods(catalog, sql)
        buggy = measure_transform(catalog, sql, kim_nest_g)
        return ni, fixed, buggy

    ni, fixed, buggy = benchmark.pedantic(run, rounds=1, iterations=1)
    assert Counter(fixed.rows) == Counter(ni.rows)
    assert buggy.rows == []
    assert len(ni.rows) > 0
