"""Nesting depth: the multiplicative blowup NEST-G eliminates.

The paper's opening observation — "tables referenced in the inner query
block of a nested query may have to be retrieved once for each tuple of
the relation referenced in the outer query block" — compounds with
depth: a correlated block at level *k* re-evaluates everything beneath
it per outer tuple, so nested iteration's page I/O grows roughly
geometrically with nesting depth while the canonical plan stays flat
(one temp-table chain per level).
"""

from __future__ import annotations

from collections import Counter

from repro.bench.harness import compare_methods
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
            ni, tr = compare_methods(catalog, sql)
            assert Counter(ni.rows) == Counter(tr.rows)
            results.append((depth, ni.page_ios, tr.page_ios))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    write_report(
        "depth_scaling",
        format_table(
            ["nesting depth", "nested iteration I/Os", "NEST-G canonical I/Os",
             "ratio"],
            [
                [depth, ni, tr, f"{ni / max(1, tr):.0f}x"]
                for depth, ni, tr in results
            ],
            title="Correlated COUNT chains: page I/O vs nesting depth "
                  "(24 rows/level, B=4)",
        ),
    )

    # Nested iteration's cost explodes with depth; the canonical plan
    # grows gently (a few more temp tables per level).
    ni_costs = [ni for _, ni, _ in results]
    tr_costs = [tr for _, _, tr in results]
    assert ni_costs[2] > 20 * ni_costs[0]
    assert tr_costs[2] < 20 * tr_costs[0]
    assert tr_costs[2] < ni_costs[2] / 10
