"""The paper's introduction: suppliers, parts, and shipments.

Runs the paper's example queries (1)-(5), one for each nesting type,
showing the classification, the transformation each receives, and the
page I/O of both evaluation strategies.

Run with::

    python examples/supplier_parts.py
"""

from repro.bench.harness import compare_methods
from repro.core.classify import catalog_resolver, classify_block
from repro.core.pipeline import Engine
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    INTRO_QUERY_1,
    TYPE_A_QUERY,
    TYPE_J_QUERY,
    TYPE_JA_QUERY,
    TYPE_N_QUERY,
    load_supplier_parts,
)

EXAMPLES = [
    ("(1) suppliers of part P2", INTRO_QUERY_1),
    ("(2) type-A nesting", TYPE_A_QUERY),
    ("(3) type-N nesting", TYPE_N_QUERY),
    # Kim's literal NEST-N-J would duplicate outer rows here (DESIGN.md,
    # "NEST-N-J and duplicates"); NEST-G merges the inner temp as a
    # semi-join, so the bags agree.
    ("(4) type-J nesting", TYPE_J_QUERY),
    ("(5) type-JA nesting", TYPE_JA_QUERY),
]


def main() -> None:
    catalog = load_supplier_parts(buffer_pages=8)
    engine = Engine(catalog)
    resolver = catalog_resolver(catalog)

    for title, sql in EXAMPLES:
        print("=" * 72)
        print(title)
        print(sql.strip())

        nested = classify_block(parse(sql), resolver)
        if nested:
            print(f"classification: type-{nested[0].nesting.value}")
        else:
            print("classification: unnested")

        ni, tr = compare_methods(catalog, sql)
        print(f"nested iteration : {sorted(set(ni.rows))}  [{ni.page_ios} page I/Os]")
        print(f"transformed      : {sorted(set(tr.rows))}  [{tr.page_ios} page I/Os]")

        report = engine.run(sql, method="transform")
        if report.setup_sql:
            for line in report.setup_sql:
                print(f"  temp: {line}")
        print(f"  canonical: {report.canonical_sql}")
        print()


if __name__ == "__main__":
    main()
