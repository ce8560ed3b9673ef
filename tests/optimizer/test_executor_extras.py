"""Tests for physical-executor extras: HAVING, ORDER BY DESC, SELECT *
through the transformation pipeline."""

from collections import Counter

import pytest

from repro.config import ExecConfig
from repro.engine.relation import Relation
from repro.core.pipeline import Engine, prepare_query
from repro.errors import PlanError
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    load_duplicates_instance,
    load_kiessling_instance,
)


def run(catalog, sql, join_method="merge"):
    """The block's rows, collected as a chain collects its final
    block's: nothing is written for them."""
    executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
    return executor.execute(prepare_query(parse(sql), catalog), Relation.to_list)


class TestHaving:
    def test_having_on_count(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM SUPPLY GROUP BY PNUM HAVING COUNT(*) > 1",
        )
        assert Counter(result) == Counter([(3,), (10,)])

    def test_having_aggregate_not_in_select(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM, COUNT(*) FROM SUPPLY GROUP BY PNUM "
            "HAVING MAX(QUAN) >= 5",
        )
        assert Counter(result) == Counter([(8, 1)])

    def test_having_references_group_column(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM SUPPLY GROUP BY PNUM "
            "HAVING PNUM > 3 AND COUNT(*) > 1",
        )
        assert result == [(10,)]

    def test_having_on_non_grouped_column_raises(self):
        catalog = load_kiessling_instance()
        with pytest.raises(PlanError):
            run(
                catalog,
                "SELECT PNUM FROM SUPPLY GROUP BY PNUM HAVING QUAN > 1",
            )

    def test_having_matches_nested_iteration(self):
        catalog = load_kiessling_instance()
        from repro.engine.nested_iteration import NestedIterationExecutor

        sql = (
            "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY GROUP BY PNUM "
            "HAVING COUNT(SHIPDATE) >= 2"
        )
        oracle = NestedIterationExecutor(catalog).execute(prepare_query(parse(sql), catalog))
        physical = run(catalog, sql)
        assert Counter(physical) == Counter(oracle.rows)


class TestOrderBy:
    def test_order_by_desc(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS ORDER BY PNUM DESC")
        assert result == [(10,), (8,), (3,)]

    def test_order_by_asc(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS ORDER BY PNUM")
        assert result == [(3,), (8,), (10,)]

    def test_mixed_order_raises(self):
        catalog = load_kiessling_instance()
        with pytest.raises(PlanError):
            run(catalog, "SELECT PNUM, QOH FROM PARTS ORDER BY PNUM DESC, QOH ASC")


class TestSelectStarThroughPipeline:
    def test_star_with_nested_predicate(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        sql = (
            "SELECT * FROM PARTS WHERE QOH = "
            "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01')"
        )
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
        assert tr.result.rows and len(tr.result.rows[0]) == 2

    def test_qualified_star(self):
        catalog = load_duplicates_instance()
        engine = Engine(catalog)
        sql = (
            "SELECT PARTS.* FROM PARTS WHERE QOH = "
            "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01')"
        )
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
