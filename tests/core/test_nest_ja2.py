"""Section 6 — algorithm NEST-JA2: the paper's worked examples.

The three-step application to Kiessling's Q2 (section 6.1) prints
TEMP1, TEMP3, and the final result for the duplicates instance; every
one of those tables is asserted here, plus multiset equivalence with
the nested-iteration oracle across all instances and aggregates.
"""

from collections import Counter

import pytest

from repro.core.nest_ja2 import apply_nest_ja2
from repro.core.pipeline import Engine, prepare_query
from repro.errors import BindError, TransformError
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.workloads.paper_data import (
    CUTOFF_1980,
    KIESSLING_Q2,
    KIESSLING_Q2_COUNT_STAR,
    QUERY_Q5,
    fresh_catalog,
    load_duplicates_instance,
    load_kiessling_instance,
    load_operator_bug_instance,
)
from repro.catalog.schema import schema

from tests.core.helpers import assert_equivalent, build_temps


def transform_inner(catalog, sql, outer_tables=None):
    from repro.sql.ast import Comparison, ScalarSubquery, conjuncts

    block = prepare_query(parse(sql), catalog)
    inner = None
    for conjunct in conjuncts(block.where):
        if isinstance(conjunct, Comparison) and isinstance(
            conjunct.right, ScalarSubquery
        ):
            inner = conjunct.right.query
    assert inner is not None
    names = iter(["TEMP1", "TEMP2", "TEMP3"])
    return apply_nest_ja2(
        inner,
        lambda: next(names),
        outer_tables=outer_tables or {"PARTS": "PARTS"},
        outer_block=block,
    )


class TestAlgorithmShape:
    def test_three_steps_for_q2(self):
        """The section 6.1 walk-through, step for step."""
        catalog = load_kiessling_instance()
        result = transform_inner(catalog, KIESSLING_Q2)
        temp1, temp2, temp3 = result.setup

        # Step 1: DISTINCT projection of the outer join column.
        assert to_sql(temp1.query) == "SELECT DISTINCT PARTS.PNUM AS C1 FROM PARTS"
        # Step 2: restriction/projection of the inner relation...
        assert to_sql(temp2.query) == (
            "SELECT SUPPLY.PNUM AS J1, SUPPLY.SHIPDATE AS VAL FROM SUPPLY "
            f"WHERE SUPPLY.SHIPDATE < '{CUTOFF_1980}'"
        )
        # ... then the outer join + GROUP BY.
        assert to_sql(temp3.query) == (
            "SELECT TEMP1.C1 AS C1, COUNT(TEMP2.VAL) AS CAGG "
            "FROM TEMP1, TEMP2 WHERE TEMP1.C1 =+ TEMP2.J1 GROUP BY TEMP1.C1"
        )
        # The rewritten inner block joins on equality — *null-safe*
        # equality for COUNT, so a TEMP3 group formed for a NULL outer
        # value (with CAGG = 0) still matches its outer row.
        assert to_sql(result.query) == (
            "SELECT TEMP3.CAGG AS CAGG FROM TEMP3 WHERE TEMP3.C1 <=> PARTS.PNUM"
        )

    def test_count_star_counts_the_join_column(self):
        """Section 5.2.1: COUNT(*) must become COUNT(join column)."""
        catalog = load_kiessling_instance()
        result = transform_inner(catalog, KIESSLING_Q2_COUNT_STAR)
        temp3 = result.setup[2]
        assert "COUNT(TEMP2.J1)" in to_sql(temp3.query)

    def test_non_count_uses_plain_join(self):
        """Section 5.3.1: for MAX the temp join need not be outer."""
        catalog = load_operator_bug_instance()
        result = transform_inner(catalog, QUERY_Q5)
        temp3 = result.setup[2]
        sql = to_sql(temp3.query)
        assert "=+" not in sql
        # SUPPLY.PNUM < PARTS.PNUM appears mirrored with TEMP1 first.
        assert "TEMP1.C1 > TEMP2.J1" in sql

    def test_count_with_theta_operator_uses_outer_join(self):
        """Section 6.1 step 2: COUNT + theta → outer theta operator."""
        catalog = load_operator_bug_instance()
        sql = QUERY_Q5.replace("MAX(QUAN)", "COUNT(QUAN)")
        result = transform_inner(catalog, sql)
        temp3_sql = to_sql(result.setup[2].query)
        assert ">+" in temp3_sql  # outer '>' (mirrored '<'), preserving TEMP1

    def test_outer_simple_predicates_restrict_temp1(self):
        catalog = load_kiessling_instance()
        sql = KIESSLING_Q2.replace(
            "FROM PARTS", "FROM PARTS"
        ).replace("WHERE QOH =", "WHERE QOH > -1 AND QOH =")
        result = transform_inner(catalog, sql)
        assert "WHERE PARTS.QOH > -1" in to_sql(result.setup[0].query)

    def test_ambiguous_unqualified_predicates_are_not_hoisted(self):
        """Step 1 mines only predicates local to the outer relation: an
        unqualified column exposed by *another* FROM entry of the outer
        block may belong to that other table, and hoisting it would
        restrict the wrong relation.  The binder refuses the ambiguous
        name, and step 1 reads the binding it wrote for the others."""
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "K", "V"))
        catalog.create_table(schema("W", "V", "X"))
        catalog.create_table(schema("U", "K2", "W2"))
        subquery = "T.V = (SELECT MAX(W2) FROM U WHERE U.K2 = T.K)"
        with pytest.raises(BindError):
            transform_inner(
                catalog, f"SELECT T.K FROM T, W WHERE V > 1 AND {subquery}"
            )
        sql = f"SELECT T.K FROM T, W WHERE X > 0 AND K > 0 AND {subquery}"
        result = transform_inner(catalog, sql, outer_tables={"T": "T", "W": "W"})
        temp1_sql = to_sql(result.setup[0].query)
        # K resolves only on T → hoisted; X belongs to W → it may not
        # restrict TEMP1.
        assert "T.K > 0" in temp1_sql
        assert "X > 0" not in temp1_sql

    def test_qualified_outer_predicates_are_hoisted_despite_ambiguity(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "K", "V"))
        catalog.create_table(schema("W", "V", "X"))
        catalog.create_table(schema("U", "K2", "W2"))
        sql = (
            "SELECT T.K FROM T, W "
            "WHERE T.V > 1 AND W.V > 2 AND "
            "T.K = (SELECT MAX(W2) FROM U WHERE U.K2 = T.K)"
        )
        result = transform_inner(catalog, sql, outer_tables={"T": "T", "W": "W"})
        temp1_sql = to_sql(result.setup[0].query)
        assert "T.V > 1" in temp1_sql
        assert "W.V > 2" not in temp1_sql

    def test_unqualified_outer_reference_rejected(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "K", "V"))
        catalog.create_table(schema("U", "K2", "W"))
        catalog.insert("T", [(1, 1)])
        block = parse(
            "SELECT K FROM T WHERE V = (SELECT MAX(W) FROM U WHERE U.K2 = K)"
        )
        # Unqualified K resolves to T only via the pipeline's qualify
        # pass; the bare algorithm requires qualified outer columns.
        inner = block.where.right.query
        with pytest.raises(TransformError):
            apply_nest_ja2(
                inner,
                lambda: "X",
                outer_tables={"T": "T"},
            )


class TestPaperTables:
    def test_temp_contents_kiessling_instance(self):
        """TEMP3 = {(3,2), (10,1), (8,0)} — zero count present."""
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        transform = engine.transform(KIESSLING_Q2)
        contents = build_temps(catalog, transform)
        temp1, temp2, temp3 = (d.name for d in transform.setup)
        assert Counter(contents[temp1]) == Counter([(3,), (10,), (8,)])
        assert Counter(contents[temp3]) == Counter([(3, 2), (10, 1), (8, 0)])
        catalog.drop_temp_tables()

    def test_temp_contents_duplicates_instance(self):
        """Section 6.1's final tables: TEMP1 = {3,10,8} (deduplicated),
        TEMP3 = {(3,2), (10,1), (8,0)}."""
        catalog = load_duplicates_instance()
        engine = Engine(catalog)
        transform = engine.transform(KIESSLING_Q2)
        contents = build_temps(catalog, transform)
        temp1, temp2, temp3 = (d.name for d in transform.setup)
        assert Counter(contents[temp1]) == Counter([(3,), (10,), (8,)])
        assert Counter(contents[temp3]) == Counter([(3, 2), (10, 1), (8, 0)])
        catalog.drop_temp_tables()

    def test_temp6_contents_operator_instance(self):
        """Section 5.3.1's TEMP6: one group per *outer* value — part 10
        aggregates MAX over {4, 2, 5} = 5, part 8 over {4, 2} = 4, and
        part 3 has no matching range (no row, no NULL group)."""
        catalog = load_operator_bug_instance()
        engine = Engine(catalog)
        transform = engine.transform(QUERY_Q5)
        contents = build_temps(catalog, transform)
        temp3 = transform.setup[2].name
        assert Counter(contents[temp3]) == Counter([(10, 5), (8, 4)])
        catalog.drop_temp_tables()


class TestResults:
    def test_q2_fixed(self):
        """NEST-JA2 on Q2 matches nested iteration: {10, 8}."""
        _, tr = assert_equivalent(load_kiessling_instance(), KIESSLING_Q2)
        assert Counter(tr.result.rows) == Counter([(10,), (8,)])

    def test_q2_count_star_fixed(self):
        _, tr = assert_equivalent(
            load_kiessling_instance(), KIESSLING_Q2_COUNT_STAR
        )
        assert Counter(tr.result.rows) == Counter([(10,), (8,)])

    def test_q5_fixed(self):
        """Section 5.3.1: final result {8}."""
        _, tr = assert_equivalent(load_operator_bug_instance(), QUERY_Q5)
        assert Counter(tr.result.rows) == Counter([(8,)])

    def test_duplicates_fixed(self):
        """Section 5.4.1/6.1: final result {3, 10, 8}."""
        _, tr = assert_equivalent(load_duplicates_instance(), KIESSLING_Q2)
        assert Counter(tr.result.rows) == Counter([(3,), (10,), (8,)])

    @pytest.mark.parametrize("agg", ["MAX", "MIN", "SUM", "AVG", "COUNT"])
    def test_all_aggregates_equivalent_on_equality(self, agg):
        sql = KIESSLING_Q2.replace("COUNT(SHIPDATE)", f"{agg}(QUAN)")
        assert_equivalent(load_kiessling_instance(), sql)

    @pytest.mark.parametrize("agg", ["MAX", "MIN", "SUM", "AVG", "COUNT"])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "<>"])
    def test_all_aggregates_and_operators(self, agg, op):
        sql = f"""
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT {agg}(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM {op} PARTS.PNUM AND
                               SHIPDATE < '{CUTOFF_1980}')
        """
        assert_equivalent(load_operator_bug_instance(), sql)

    @pytest.mark.parametrize("agg", ["COUNT", "SUM", "AVG"])
    def test_duplicates_with_each_sensitive_aggregate(self, agg):
        """Section 5.4: COUNT, SUM, AVG are duplicate-sensitive."""
        sql = KIESSLING_Q2.replace("COUNT(SHIPDATE)", f"{agg}(QUAN)")
        assert_equivalent(load_duplicates_instance(), sql)

    def test_scalar_operator_other_than_equality(self):
        """The scalar comparison (QOH op ...) is untouched by the fix."""
        sql = KIESSLING_Q2.replace("WHERE QOH =", "WHERE QOH >=")
        assert_equivalent(load_kiessling_instance(), sql)

    def test_multi_column_correlation(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A", "B", "V"))
        catalog.create_table(schema("U", "A", "B", "W"))
        catalog.insert("T", [(1, 1, 2), (1, 2, 0), (2, 1, 1)])
        catalog.insert("U", [(1, 1, 5), (1, 1, 7), (2, 1, 1)])
        sql = """
            SELECT V FROM T
            WHERE V = (SELECT COUNT(W) FROM U
                       WHERE U.A = T.A AND U.B = T.B)
        """
        _, tr = assert_equivalent(catalog, sql)
        assert Counter(tr.result.rows) == Counter([(2,), (0,), (1,)])
