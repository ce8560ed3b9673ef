"""Section 9 / Figure 2 — the recursive NEST-G transformation.

Regenerates the Figure 2 walk-through: a four-level query tree whose
trans-aggregate join predicate spans from the innermost block to the
outermost relation, transformed to canonical form and executed, with
the transformation trace as the report artifact.

Two baselines: System R's nested iteration as the paper states it (a
correlated block evaluated once per outer tuple), which the paper's
claim is made against, and the engine's executor, which memoizes a
correlated block on its correlation values.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.reporting import format_table
from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.workloads.paper_data import fresh_catalog

from repro.bench.harness import block_evaluations, measure, measure_system_r


def figure2_catalog(scale: int = 14, buffer_pages: int = 6):
    """A scaled instance of the Figure 2 query tree's five relations."""
    import random

    rng = random.Random(9)
    catalog = fresh_catalog(buffer_pages)
    catalog.create_table(schema("TA", "K", "V"), rows_per_page=8)
    catalog.create_table(schema("TB", "K", "V", "W"), rows_per_page=8)
    catalog.create_table(schema("TC", "K", "V"), rows_per_page=8)
    catalog.create_table(schema("TD", "V"), rows_per_page=8)
    catalog.create_table(schema("TE", "K", "V"), rows_per_page=8)
    catalog.insert("TA", [(k, rng.randint(0, 9)) for k in range(scale)])
    catalog.insert(
        "TB",
        [
            (rng.randint(0, scale), rng.randint(0, 9), rng.choice([100, 200]))
            for _ in range(3 * scale)
        ],
    )
    catalog.insert(
        "TC", [(rng.randint(0, scale), rng.randint(50, 60)) for _ in range(scale)]
    )
    catalog.insert("TD", [(100,), (200,)])
    catalog.insert(
        "TE", [(rng.randint(0, scale), rng.randint(50, 60)) for _ in range(2 * scale)]
    )
    return catalog


FIGURE2_QUERY = """
    SELECT K FROM TA
    WHERE V = (SELECT MAX(TB.V) FROM TB
               WHERE TB.K IN (SELECT TC.K FROM TC
                              WHERE TC.V IN (SELECT TE.V FROM TE
                                             WHERE TE.K = TA.K))
                 AND TB.W IN (SELECT TD.V FROM TD))
"""


def test_figure2_transformation(benchmark, write_report):
    catalog = figure2_catalog()
    engine = Engine(catalog)

    def run():
        system_r = measure_system_r(catalog, FIGURE2_QUERY)
        oracle = measure(catalog, FIGURE2_QUERY, "nested_iteration")
        transformed = measure(catalog, FIGURE2_QUERY, "transform")
        return system_r, oracle, transformed

    system_r, oracle, transformed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert Counter(transformed.rows) == Counter(oracle.rows)
    assert Counter(system_r.rows) == Counter(oracle.rows)

    report = engine.run(FIGURE2_QUERY, method="transform")
    lines = [
        "Figure 2: recursive NEST-G on a 4-level query tree",
        "",
        "transformation trace:",
        *(f"  {step}" for step in report.trace),
        "",
        format_table(
            ["method", "page I/Os"],
            [
                ["nested iteration, System R (per outer tuple)", system_r.page_ios],
                ["nested iteration, memoized (per distinct TA.K)", oracle.page_ios],
                ["NEST-G canonical plan", transformed.page_ios],
            ],
        ),
    ]
    write_report("figure2_nest_g", "\n".join(lines))
    # System R's nested iteration re-evaluates three levels of inner
    # blocks per outer tuple; the canonical plan must be far cheaper.
    assert transformed.page_ios < system_r.page_ios / 5
    # The memo runs each correlated block once per distinct value of
    # the one correlation column, TA.K.
    evaluations = block_evaluations(catalog, FIGURE2_QUERY)
    distinct = len({key for key, _ in catalog.heap_of("TA").scan()})
    assert [evaluations[t] for t in ("TB", "TC", "TE")] == [distinct] * 3


def test_figure2_trace_order(benchmark):
    """The postorder property: all NEST-N-J merges of the inner levels
    happen before NEST-JA2 fires at the aggregate block."""
    catalog = figure2_catalog(scale=10)
    engine = Engine(catalog)

    def run():
        return engine.run(FIGURE2_QUERY, method="transform").trace

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    ja2_first = next(i for i, t in enumerate(trace) if t.startswith("NEST-JA2"))
    nj_inner = [i for i, t in enumerate(trace) if t.startswith("NEST-N-J (type-")]
    assert nj_inner and min(nj_inner) < ja2_first
