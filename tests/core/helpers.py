"""Shared helpers for core-transformation tests."""

from collections import Counter

from repro.config import ExecConfig
from repro.core.pipeline import Engine
from repro.optimizer.executor import SingleLevelExecutor


def run_both(catalog, sql, **engine_kwargs):
    """Run a query by nested iteration and by transformation."""
    engine = Engine(catalog, **engine_kwargs)
    ni = engine.run(sql, method="nested_iteration")
    tr = engine.run(sql, method="transform")
    return ni, tr


def assert_equivalent(catalog, sql, **engine_kwargs):
    """Transformed result must equal the nested-iteration oracle (bag)."""
    ni, tr = run_both(catalog, sql, **engine_kwargs)
    assert Counter(tr.result.rows) == Counter(ni.result.rows), (
        f"transform={sorted(tr.result.rows)} oracle={sorted(ni.result.rows)}"
    )
    return ni, tr


def build_temps(catalog, transform, join_method="merge"):
    """Materialize a GeneralTransform's remaining temp tables.

    Returns {name: list of rows} for inspection against the paper's
    printed temp-table contents.
    """
    contents = {}
    for definition in transform.setup[transform.built:]:
        executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
        relation = executor.execute(definition.query)
        catalog.register_temp(
            definition.name, relation.heap, executor.output_names(definition.query)
        )
    for definition in transform.setup:
        contents[definition.name] = list(catalog.heap_of(definition.name).scan())
    return contents
