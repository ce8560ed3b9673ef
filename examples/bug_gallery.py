"""The bug gallery: section 5's three NEST-JA failures, side by side.

For each scenario the script prints the paper's tables: the instance,
the temporary table each algorithm builds, and the final results of
nested iteration (ground truth), Kim's NEST-JA (buggy), and the
paper's NEST-JA2 (fixed).

Run with::

    python examples/bug_gallery.py
"""

from repro.bench.reporting import format_table
from repro.core.nest_g import nest_g
from repro.core.nest_ja import kim_nest_g
from repro.core.pipeline import Engine, prepare_query
from repro.engine.params import bound_params
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.plan import install_link, run_transform
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    load_duplicates_instance,
    load_kiessling_instance,
    load_operator_bug_instance,
)

SCENARIOS = [
    (
        "5.1 The COUNT bug (Kiessling's Q2)",
        load_kiessling_instance,
        KIESSLING_Q2,
        "COUNT over an empty group must be 0, but a plain GROUP BY on "
        "the inner relation has no empty groups: part 8 vanishes.",
    ),
    (
        "5.3 Relations other than equality (query Q5)",
        load_operator_bug_instance,
        QUERY_Q5,
        "With SUPPLY.PNUM < PARTS.PNUM the aggregate ranges over all "
        "smaller part numbers; grouping SUPPLY by its own PNUM "
        "aggregates the wrong sets and invents part 10.",
    ),
    (
        "5.4 Duplicates in the outer join column",
        load_duplicates_instance,
        KIESSLING_Q2,
        "PARTS holds duplicate PNUMs; joining the raw outer relation "
        "would double the COUNTs, so NEST-JA2 projects it DISTINCT "
        "first.",
    ),
]


def dump_table(catalog, name: str) -> str:
    rows = [list(row) for row in catalog.heap_of(name).scan()]
    headers = list(catalog.schema_of(name).column_names)
    return format_table(headers, rows, title=name)


def transform_with(catalog, sql: str, algorithm):
    """NEST-G, or a section 5 demonstrator, over the prepared query."""
    return algorithm(prepare_query(parse(sql), catalog), catalog)


def show_temp_tables(catalog, algorithm, sql: str) -> None:
    transform = transform_with(catalog, sql, algorithm)
    with bound_params(()):
        for definition in transform.setup:
            install_link(SingleLevelExecutor(catalog), definition, definition.query)
    for definition in transform.setup:
        print(definition.describe())
        print(dump_table(catalog, definition.name))
    catalog.drop_temp_tables()


def main() -> None:
    for title, loader, sql, why in SCENARIOS:
        print("=" * 72)
        print(title)
        print(why)
        print()

        catalog = loader()
        print(dump_table(catalog, "PARTS"))
        print()
        print(dump_table(catalog, "SUPPLY"))
        print()
        print("query:", " ".join(sql.split()))
        print()

        truth = Engine(catalog).run(sql, method="nested_iteration")
        print("nested iteration (truth):", sorted(truth.result.rows))

        buggy = run_transform(catalog, transform_with(catalog, sql, kim_nest_g))
        print("Kim NEST-JA (buggy):     ", sorted(buggy.result.rows))

        fixed = Engine(catalog).run(sql, method="transform")
        print("NEST-JA2 (fixed):        ", sorted(fixed.result.rows))
        print()

        print("-- Kim's temporary table --")
        show_temp_tables(catalog, kim_nest_g, sql)
        print("-- NEST-JA2's temporary tables --")
        show_temp_tables(catalog, nest_g, sql)
        print()


if __name__ == "__main__":
    main()
