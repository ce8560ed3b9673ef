"""Section 5 — the three NEST-JA bugs, as a regression benchmark.

Each scenario runs the paper's exact instance three ways —
nested iteration (ground truth), Kim's buggy NEST-JA, and the paper's
NEST-JA2 — and regenerates the section's result tables, asserting that
the bug reproduces *and* that the fix closes it without giving up the
transformation's I/O advantage at scale.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import compare_methods, measure, measure_transform
from repro.core.nest_ja import kim_nest_g
from repro.bench.reporting import format_table, savings_percent
from repro.workloads.generators import (
    GENERATED_JA_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    load_duplicates_instance,
    load_kiessling_instance,
    load_operator_bug_instance,
)

SCENARIOS = {
    "count_bug": (
        load_kiessling_instance,
        KIESSLING_Q2,
        {(10,), (8,)},   # nested iteration (correct)
        {(10,)},         # Kim's NEST-JA (drops the zero-count part)
    ),
    "operator_bug": (
        load_operator_bug_instance,
        QUERY_Q5,
        {(8,)},
        {(10,), (8,)},   # Kim invents part 10
    ),
    "duplicates": (
        load_duplicates_instance,
        KIESSLING_Q2,
        {(3,), (10,), (8,)},
        None,            # Kim's temp never sees PARTS, bug shows in naive fixes
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bug_scenario(name, benchmark, write_report):
    loader, sql, correct, kim_wrong = SCENARIOS[name]

    def run():
        catalog = loader()
        oracle = measure(catalog, sql, "nested_iteration")
        fixed = measure(catalog, sql, "transform")
        buggy = measure_transform(catalog, sql, kim_nest_g)
        return oracle, fixed, buggy

    oracle, fixed, buggy = benchmark.pedantic(run, rounds=1, iterations=1)

    assert set(oracle.rows) == correct
    assert Counter(fixed.rows) == Counter(oracle.rows)
    if kim_wrong is not None:
        assert set(buggy.rows) == kim_wrong
        assert Counter(buggy.rows) != Counter(oracle.rows)

    table = format_table(
        ["method", "result (PNUMs)", "page I/Os"],
        [
            ["nested iteration (truth)",
             sorted(v[0] for v in oracle.rows), oracle.page_ios],
            ["Kim NEST-JA (buggy)",
             sorted(v[0] for v in buggy.rows), buggy.page_ios],
            ["NEST-JA2 (fixed)",
             sorted(v[0] for v in fixed.rows), fixed.page_ios],
        ],
        title=f"Section 5 scenario: {name}",
    )
    write_report(f"bugs_{name}", table)


def test_fix_keeps_the_speedup(benchmark, write_report):
    """NEST-JA2's extra temp tables do not erase the I/O advantage."""
    spec = PartsSupplySpec(
        num_parts=100, num_supply=600, rows_per_page=10, buffer_pages=6,
        seed=5,
    )
    catalog = build_parts_supply(spec)

    def run():
        return compare_methods(catalog, GENERATED_JA_QUERY)

    ni, tr = benchmark.pedantic(run, rounds=2, iterations=1)
    saving = savings_percent(ni.page_ios, tr.page_ios)
    assert saving >= 80
    write_report(
        "bugs_fix_speedup",
        format_table(
            ["method", "page I/Os"],
            [
                ["nested iteration", ni.page_ios],
                ["NEST-JA2 + merge joins", tr.page_ios],
                ["saving", f"{saving:.0f}%"],
            ],
            title="COUNT query at scale (100 parts / 600 shipments, B=6)",
        ),
    )
