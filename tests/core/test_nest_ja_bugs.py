"""Section 5 — Kim's NEST-JA bugs, reproduced byte-for-byte.

Each test pins an artifact the paper prints: the temporary table Kim's
algorithm builds, the (wrong) transformed result, and the correct
nested-iteration result.
"""

from collections import Counter

import pytest

from repro.core.nest_ja import apply_nest_ja, kim_nest_g, naive_outer_nest_g
from repro.core.pipeline import Engine, prepare_query
from repro.errors import TransformError
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    load_duplicates_instance,
    load_kiessling_instance,
    load_operator_bug_instance,
)

from tests.core.helpers import build_temps, run_with, transform_with


def inner_block(catalog, sql):
    return prepare_query(parse(sql), catalog).where.right.query


class TestNestJaAlgorithmShape:
    def test_temp_table_definition_matches_paper(self):
        """Kim's TEMP' for Q2 (section 5.1): group SUPPLY alone."""
        catalog = load_kiessling_instance()
        result = apply_nest_ja(inner_block(catalog, KIESSLING_Q2), "TEMPP")
        assert to_sql(result.setup[0].query) == (
            "SELECT SUPPLY.PNUM AS C1, COUNT(SUPPLY.SHIPDATE) AS CAGG FROM "
            "SUPPLY WHERE SUPPLY.SHIPDATE < '1980-01-01' GROUP BY SUPPLY.PNUM"
        )

    def test_rewritten_inner_block_is_type_j(self):
        catalog = load_kiessling_instance()
        result = apply_nest_ja(inner_block(catalog, KIESSLING_Q2), "TEMPP")
        assert to_sql(result.query) == (
            "SELECT TEMPP.CAGG AS CAGG FROM TEMPP "
            "WHERE TEMPP.C1 = PARTS.PNUM"
        )

    def test_operator_preserved_for_q5(self):
        """Section 5.3: Kim keeps the ``<`` operator — the bug."""
        catalog = load_operator_bug_instance()
        result = apply_nest_ja(inner_block(catalog, QUERY_Q5), "TEMP5")
        assert "TEMP5.C1 < PARTS.PNUM" in to_sql(result.query)

    def test_type_a_block_rejected(self):
        catalog = load_kiessling_instance()
        block = inner_block(
            catalog,
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY)",
        )
        with pytest.raises(TransformError):
            apply_nest_ja(block, "T")


class TestCountBug:
    """Section 5.1 — Kiessling's COUNT bug."""

    def test_kim_temp_table_contents(self):
        """TEMP': {(3, 2), (10, 1)} — CT can never be 0."""
        catalog = load_kiessling_instance()
        transform = transform_with(catalog, KIESSLING_Q2, kim_nest_g)
        contents = build_temps(catalog, transform)
        temp_name = transform.setup[0].name
        assert Counter(contents[temp_name]) == Counter([(3, 2), (10, 1)])
        catalog.drop_temp_tables()

    def test_kim_result_loses_part_8(self):
        """Kim's transformed Q2 misses PNUM 8 (whose count is 0)."""
        catalog = load_kiessling_instance()
        wrong = run_with(catalog, KIESSLING_Q2, kim_nest_g)
        assert Counter(wrong.result.rows) == Counter([(10,)])

    def test_nested_iteration_is_the_oracle(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        right = engine.run(KIESSLING_Q2, method="nested_iteration")
        assert Counter(right.result.rows) == Counter([(10,), (8,)])

    def test_bug_is_exactly_the_zero_count_rows(self):
        catalog = load_kiessling_instance()
        wrong = set(run_with(catalog, KIESSLING_Q2, kim_nest_g).result.rows)
        right = set(
            Engine(catalog).run(KIESSLING_Q2, method="nested_iteration").result.rows
        )
        assert right - wrong == {(8,)}  # the zero-count part
        assert wrong <= right  # Kim loses rows, never invents them (COUNT case)


class TestOperatorBug:
    """Section 5.3 — non-equality join operators."""

    def test_kim_temp5_contents(self):
        """TEMP5: {(3, 4), (10, 1), (9, 5)} — grouped by the inner value."""
        catalog = load_operator_bug_instance()
        transform = transform_with(catalog, QUERY_Q5, kim_nest_g)
        contents = build_temps(catalog, transform)
        temp_name = transform.setup[0].name
        assert Counter(contents[temp_name]) == Counter(
            [(3, 4), (10, 1), (9, 5)]
        )
        catalog.drop_temp_tables()

    def test_kim_result_is_wrong(self):
        """Kim's transform yields {10, 8}; nested iteration yields {8}."""
        catalog = load_operator_bug_instance()
        wrong = run_with(catalog, QUERY_Q5, kim_nest_g)
        assert Counter(wrong.result.rows) == Counter([(10,), (8,)])

    def test_nested_iteration_result(self):
        catalog = load_operator_bug_instance()
        engine = Engine(catalog)
        right = engine.run(QUERY_Q5, method="nested_iteration")
        assert Counter(right.result.rows) == Counter([(8,)])

    def test_this_bug_invents_rows(self):
        """Unlike the COUNT bug, the operator bug *adds* wrong rows."""
        catalog = load_operator_bug_instance()
        wrong = set(run_with(catalog, QUERY_Q5, kim_nest_g).result.rows)
        right = set(
            Engine(catalog).run(QUERY_Q5, method="nested_iteration").result.rows
        )
        assert wrong - right == {(10,)}

    def test_kim_is_correct_for_equality_non_count(self):
        """Section 5.3 opening: for MAX/MIN with '=', Kim's algorithm is
        correct — the bugs need COUNT or a non-equality operator."""
        catalog = load_operator_bug_instance()
        sql = """
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM AND
                               SHIPDATE < '1980-01-01')
        """
        wrong = run_with(catalog, sql, kim_nest_g)
        right = Engine(catalog).run(sql, method="nested_iteration")
        assert Counter(wrong.result.rows) == Counter(right.result.rows)


class TestDuplicatesBug:
    """Section 5.4 — the naive outer-join fix without DISTINCT."""

    def test_naive_outer_fix_doubles_the_counts(self):
        """PARTS lists 3 and 10 twice, so the un-deduplicated outer join
        doubles their shipment counts: only part 8 (count 0) survives."""
        catalog = load_duplicates_instance()
        wrong = run_with(catalog, KIESSLING_Q2, naive_outer_nest_g)
        right = Engine(catalog).run(KIESSLING_Q2, method="nested_iteration")
        assert Counter(right.result.rows) == Counter([(3,), (10,), (8,)])
        assert Counter(wrong.result.rows) == Counter([(8,)])
        assert Counter(
            Engine(catalog).run(KIESSLING_Q2, method="transform").result.rows
        ) == Counter(right.result.rows)
