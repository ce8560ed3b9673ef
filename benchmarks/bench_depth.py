"""Nesting depth: the multiplicative blowup NEST-G eliminates.

The paper's opening observation — "tables referenced in the inner query
block of a nested query may have to be retrieved once for each tuple of
the relation referenced in the outer query block" — compounds with
depth: a correlated block at level *k* re-evaluates everything beneath
it per outer tuple, so System R's nested iteration's page I/O grows
roughly geometrically with nesting depth while the canonical plan stays
flat (one temp-table chain per level).  The engine's own executor
memoizes a correlated block on its correlation values, which caps each
level at one evaluation per distinct value; it is reported beside.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.harness import block_evaluations, compare_methods, measure_system_r
from repro.bench.reporting import format_table
from repro.catalog.schema import schema
from repro.workloads.paper_data import fresh_catalog


def chain_catalog(levels: int, rows: int = 24, buffer_pages: int = 4):
    """``levels`` relations L1..Lk, each with ``rows`` rows, 3 pages+."""
    import random

    rng = random.Random(levels * 101)
    catalog = fresh_catalog(buffer_pages)
    for level in range(1, levels + 1):
        name = f"L{level}"
        catalog.create_table(schema(name, "K", "V"), rows_per_page=4)
        catalog.insert(
            name,
            [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rows)],
        )
    return catalog


def chain_query(levels: int) -> str:
    """A correlated COUNT chain of the given depth.

    Each level counts the next level's rows matching its key; the
    innermost level is a plain restriction.
    """
    sql = f"SELECT K, V FROM L{levels} WHERE K < 6"
    for level in range(levels - 1, 0, -1):
        inner = sql.replace("SELECT K, V", "SELECT COUNT(V)", 1)
        inner = inner + f" AND L{level + 1}.K = L{level}.K"
        sql = (
            f"SELECT K, V FROM L{level} WHERE K < 6 AND V >= ({inner})"
        )
    return sql


def test_depth_scaling(benchmark, write_report):
    def run():
        results = []
        for depth in (1, 2, 3):
            catalog = chain_catalog(levels=depth)
            sql = chain_query(depth)
            memo, tr = compare_methods(catalog, sql)
            system_r = measure_system_r(catalog, sql)
            assert Counter(system_r.rows) == Counter(tr.rows)
            results.append((depth, system_r.page_ios, memo.page_ios, tr.page_ios))
            # The memo's own claim: each correlated level runs once per
            # distinct correlation value (L<k-1>.K) that reaches it.
            evaluations = block_evaluations(catalog, sql)
            for level in range(2, depth + 1):
                outer = catalog.heap_of(f"L{level - 1}").scan()
                assert evaluations[f"L{level}"] == len(
                    {key for key, _ in outer if key < 6}
                ), (depth, level)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    write_report(
        "depth_scaling",
        format_table(
            ["nesting depth", "System R nested iteration I/Os",
             "memoized nested iteration I/Os", "NEST-G canonical I/Os",
             "ratio to System R"],
            [
                [depth, ni, memo, tr, f"{ni / max(1, tr):.0f}x"]
                for depth, ni, memo, tr in results
            ],
            title="Correlated COUNT chains: page I/O vs nesting depth "
                  "(24 rows/level, B=4)",
        ),
    )

    # System R's cost explodes with depth; the canonical plan grows
    # gently (a few more temp tables per level).
    ni_costs = [ni for _, ni, _, _ in results]
    tr_costs = [tr for _, _, _, tr in results]
    assert ni_costs[2] > 20 * ni_costs[0]
    assert tr_costs[2] < 20 * tr_costs[0]
    assert tr_costs[2] < ni_costs[2] / 10
