"""Tests for the nested-iteration reference executor.

These pin down the *semantics* the paper treats as ground truth: every
worked example's "result by nested iteration" table must come out
exactly.
"""

from collections import Counter

import pytest

from repro.core.pipeline import bind_columns
from repro.engine.nested_iteration import NestedIterationExecutor
from repro.errors import CardinalityError, ExecutionError
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    INTRO_QUERY_1,
    KIESSLING_Q2,
    KIESSLING_Q2_COUNT_STAR,
    QUERY_Q5,
    TYPE_A_QUERY,
    TYPE_J_QUERY,
    TYPE_JA_QUERY,
    TYPE_N_QUERY,
    fresh_catalog,
    load_duplicates_instance,
    load_kiessling_instance,
    load_operator_bug_instance,
    load_supplier_parts,
)
from repro.catalog.schema import schema


def run(catalog, sql):
    """``sql`` by nested iteration, bound as a plan binds it."""
    return NestedIterationExecutor(catalog).execute(bind_columns(parse(sql), catalog))


class TestUnnestedQueries:
    def test_full_scan(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM, QOH FROM PARTS")
        assert result.rows == [(3, 6), (10, 1), (8, 0)]
        assert result.columns == ["PNUM", "QOH"]

    def test_select_star(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT * FROM PARTS")
        assert result.rows == [(3, 6), (10, 1), (8, 0)]
        assert result.columns == ["PNUM", "QOH"]

    def test_where_filter(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS WHERE QOH > 0")
        assert result.rows == [(3,), (10,)]

    def test_two_table_join(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.SHIPDATE < '1980-01-01'",
        )
        assert result.multiset() == Counter([(3, 4), (3, 2), (10, 1)])

    def test_distinct(self):
        catalog = load_duplicates_instance()
        result = run(catalog, "SELECT DISTINCT PNUM FROM PARTS")
        assert result.rows == [(3,), (10,), (8,)]

    def test_order_by(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS ORDER BY PNUM")
        assert result.rows == [(3,), (8,), (10,)]

    def test_order_by_desc(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS ORDER BY PNUM DESC")
        assert result.rows == [(10,), (8,), (3,)]

    def test_scalar_aggregate(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT COUNT(*), MAX(QOH) FROM PARTS")
        assert result.rows == [(3, 6)]

    def test_scalar_aggregate_over_empty_input(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT COUNT(*), MAX(QOH) FROM PARTS WHERE QOH > 99")
        assert result.rows == [(0, None)]

    def test_group_by(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SHIPDATE < '1980-01-01' GROUP BY PNUM",
        )
        assert result.multiset() == Counter([(3, 2), (10, 1)])

    def test_group_by_having(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM SUPPLY GROUP BY PNUM HAVING COUNT(*) > 1",
        )
        assert result.multiset() == Counter([(3,), (10,)])

    def test_table_alias(self):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT X.PNUM FROM PARTS X WHERE X.QOH = 0")
        assert result.rows == [(8,)]

    def test_self_join_with_aliases(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT A.PNUM, B.PNUM FROM PARTS A, PARTS B "
            "WHERE A.PNUM < B.PNUM",
        )
        assert result.multiset() == Counter([(3, 10), (3, 8), (8, 10)])


    def test_a_semi_table_is_plan_syntax(self):
        catalog = load_kiessling_instance()
        statement = parse(
            "SELECT PARTS.PNUM FROM PARTS, SEMI SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM"
        )
        with pytest.raises(ExecutionError, match="plan syntax"):
            NestedIterationExecutor(catalog).execute(statement)


class TestPaperIntroExamples:
    def test_intro_query_1_suppliers_of_p2(self):
        catalog = load_supplier_parts()
        result = run(catalog, INTRO_QUERY_1)
        assert result.multiset() == Counter(
            [("Smith",), ("Jones",), ("Blake",), ("Clark",)]
        )

    def test_type_a_example(self):
        catalog = load_supplier_parts()
        result = run(catalog, TYPE_A_QUERY)
        # MAX(PNO) = 'P6'; only S1 ships P6.
        assert result.multiset() == Counter([("S1",)])

    def test_type_n_example(self):
        catalog = load_supplier_parts()
        result = run(catalog, TYPE_N_QUERY)
        # Parts heavier than 15: P2, P3, P6.
        expected = Counter(
            [("S1",), ("S1",), ("S1",), ("S2",), ("S3",), ("S4",)]
        )
        assert result.multiset() == expected

    def test_type_j_example(self):
        catalog = load_supplier_parts()
        result = run(catalog, TYPE_J_QUERY)
        # Shipments with QTY > 100 whose origin equals the supplier's city.
        assert ("Smith",) in result.multiset()

    def test_type_ja_example(self):
        catalog = load_supplier_parts()
        result = run(catalog, TYPE_JA_QUERY)
        # For each part: highest PNO shipped from the part's city.
        # London → P6, Paris → P5, Oslo → P3.
        assert result.multiset() == Counter([("Screw",), ("Cam",), ("Cog",)])


class TestPaperSection5Oracles:
    def test_kiessling_q2_nested_iteration_result(self):
        """Section 5.1: 'Result: PARTS.PNUM 10, 8'."""
        catalog = load_kiessling_instance()
        result = run(catalog, KIESSLING_Q2)
        assert result.multiset() == Counter([(10,), (8,)])

    def test_kiessling_q2_count_star_same_result(self):
        catalog = load_kiessling_instance()
        result = run(catalog, KIESSLING_Q2_COUNT_STAR)
        assert result.multiset() == Counter([(10,), (8,)])

    def test_query_q5_nested_iteration_result(self):
        """Section 5.3: result is {8}, assuming MAX({}) = NULL."""
        catalog = load_operator_bug_instance()
        result = run(catalog, QUERY_Q5)
        assert result.multiset() == Counter([(8,)])

    def test_duplicates_instance_nested_iteration_result(self):
        """Section 5.4: result is {3, 10, 8}."""
        catalog = load_duplicates_instance()
        result = run(catalog, KIESSLING_Q2)
        assert result.multiset() == Counter([(3,), (10,), (8,)])


class TestSubqueryForms:
    def test_uncorrelated_scalar_empty_is_null(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT QUAN FROM SUPPLY WHERE QUAN > 999)",
        )
        assert result.rows == []

    def test_scalar_subquery_multiple_rows_raises(self):
        catalog = load_kiessling_instance()
        with pytest.raises(CardinalityError):
            run(
                catalog,
                "SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY)",
            )

    def test_not_in_subquery(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
            "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-01-01')",
        )
        assert result.multiset() == Counter([(8,)])

    def test_exists_correlated(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE EXISTS "
            "(SELECT * FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND "
            " SHIPDATE < '1980-01-01')",
        )
        assert result.multiset() == Counter([(3,), (10,)])

    def test_not_exists_correlated(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE NOT EXISTS "
            "(SELECT * FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND "
            " SHIPDATE < '1980-01-01')",
        )
        assert result.multiset() == Counter([(8,)])

    def test_any_quantifier(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE QOH > ANY (SELECT QUAN FROM SUPPLY)",
        )
        # QOH > min(QUAN)=1: 6 and... QOH values 6,1,0 → only 6.
        assert result.multiset() == Counter([(3,)])

    def test_all_quantifier_empty_inner_is_vacuous_truth(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE QOH < ALL "
            "(SELECT QUAN FROM SUPPLY WHERE QUAN > 999)",
        )
        assert result.multiset() == Counter([(3,), (10,), (8,)])

    def test_three_levels_of_nesting(self):
        catalog = load_supplier_parts()
        result = run(
            catalog,
            """
            SELECT SNAME FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE PNO IN
                (SELECT PNO FROM P WHERE WEIGHT > 18))
            """,
        )
        # Only P6 (19); only S1 ships it.
        assert result.multiset() == Counter([("Smith",)])

    def test_correlated_subquery_in_having(self):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM, COUNT(*) FROM SUPPLY GROUP BY PNUM "
            "HAVING COUNT(*) > 1",
        )
        assert result.multiset() == Counter([(3, 2), (10, 2)])


class TestMeasuredIO:
    def test_correlated_inner_rescanned_per_outer_tuple(self):
        """The inefficiency the paper opens with (section 2.4)."""
        catalog = load_kiessling_instance(buffer_pages=2, rows_per_page=1)
        buffer = catalog.buffer
        parts_pages = catalog.heap_of("PARTS").num_pages  # 3
        supply_pages = catalog.heap_of("SUPPLY").num_pages  # 5
        buffer.evict_all()
        buffer.reset_stats()
        run(catalog, KIESSLING_Q2)
        stats = buffer.stats()
        # Inner relation scanned once per outer tuple (3 outer tuples):
        # at least Pi + Ni * Pj reads.
        assert stats.page_reads >= parts_pages + 3 * supply_pages

    def test_uncorrelated_inner_evaluated_once(self):
        catalog = load_kiessling_instance(buffer_pages=4, rows_per_page=1)
        buffer = catalog.buffer
        buffer.evict_all()
        buffer.reset_stats()
        run(
            catalog,
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-01-01')",
        )
        stats = buffer.stats()
        supply_pages = catalog.heap_of("SUPPLY").num_pages
        parts_pages = catalog.heap_of("PARTS").num_pages
        # SUPPLY is scanned once; X is rescanned but fits in the buffer.
        assert stats.page_reads <= supply_pages + parts_pages + 4


class TestEmptyTables:
    def test_scan_of_empty_table(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A"))
        result = run(catalog, "SELECT A FROM T")
        assert result.rows == []

    def test_correlated_aggregate_over_empty_inner(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("OUTER_T", "K", "V"))
        catalog.create_table(schema("INNER_T", "K", "V"))
        catalog.insert("OUTER_T", [(1, 0)])
        result = run(
            catalog,
            "SELECT K FROM OUTER_T WHERE V = "
            "(SELECT COUNT(V) FROM INNER_T WHERE INNER_T.K = OUTER_T.K)",
        )
        # COUNT over empty inner table is 0, matching V = 0.
        assert result.rows == [(1,)]


class TestOneMemo:
    """Scalar, ``IN`` and ``EXISTS`` blocks share one memo, keyed on the
    block and the values of the outer columns it reads."""

    #: 50 parts over five QOH values.
    PARTS = [(pnum, pnum % 5) for pnum in range(50)]

    @classmethod
    def database(cls):
        from repro import Database

        db = Database()
        db.create_table("PARTS", ["PNUM", "QOH"])
        db.create_table("SUPPLY", ["PNUM", "QUAN"])
        db.insert("PARTS", cls.PARTS)
        db.insert("SUPPLY", [(1, 3), (2, 1), (7, 4)])
        return db

    @staticmethod
    def count_blocks(monkeypatch) -> Counter:
        """``NestedIterationExecutor._execute_block`` calls by the
        block's first FROM table, as ``block_evaluations`` counts them."""
        evaluations: Counter = Counter()
        real = NestedIterationExecutor._execute_block

        def counting(self, select, outer):
            evaluations[select.from_tables[0].name] += 1
            return real(self, select, outer)

        monkeypatch.setattr(NestedIterationExecutor, "_execute_block", counting)
        return evaluations

    def test_an_uncorrelated_exists_is_evaluated_once(self, monkeypatch):
        db = self.database()
        evaluations = self.count_blocks(monkeypatch)
        report = db.run(
            "SELECT PNUM FROM PARTS WHERE EXISTS "
            "(SELECT PNUM FROM SUPPLY WHERE QUAN > 2)",
            method="nested_iteration",
        )
        assert len(report.result.rows) == 50
        assert evaluations == Counter({"PARTS": 1, "SUPPLY": 1})

    @pytest.mark.parametrize(
        "outer, inner",
        [("PARTS", "SUPPLY"), ("PARTS P", "SUPPLY"), ("PARTS P", "SUPPLY S")],
        ids=["unaliased", "outer-aliased", "both-aliased"],
    )
    @pytest.mark.parametrize(
        "predicate",
        [
            "QOH = (SELECT COUNT(*) FROM {inner} WHERE {i}.QUAN > {o}.QOH)",
            "QOH IN (SELECT QUAN FROM {inner} WHERE {i}.QUAN > {o}.QOH)",
            "EXISTS (SELECT PNUM FROM {inner} WHERE {i}.QUAN > {o}.QOH)",
        ],
    )
    def test_a_correlated_block_runs_once_per_distinct_value(
        self, predicate, outer, inner, monkeypatch
    ):
        """The memo key reads the outer columns by their bindings, so an
        alias on either table keys the block as its table name does."""
        db = self.database()
        evaluations = self.count_blocks(monkeypatch)
        bindings = dict(o=outer.split()[-1], i=inner.split()[-1], inner=inner)
        sql = f"SELECT PNUM FROM {outer} WHERE " + predicate.format(**bindings)
        memoized = db.run(sql, method="nested_iteration").result.rows
        assert evaluations["SUPPLY"] == 5  # QOH takes five values
        evaluations.clear()
        from repro.bench.harness import measure_system_r

        baseline = measure_system_r(db.catalog, sql)
        assert evaluations["SUPPLY"] == 50  # System R: once per outer tuple
        assert Counter(baseline.rows) == Counter(memoized)

    def test_system_r_evaluates_an_uncorrelated_block_once(self, monkeypatch):
        from repro.bench.harness import measure_system_r

        db = self.database()
        evaluations = self.count_blocks(monkeypatch)
        measure_system_r(
            db.catalog,
            "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY)",
        )
        assert evaluations["SUPPLY"] == 1

    def test_outer_references_run_once_per_block(self, monkeypatch):
        import repro.engine.nested_iteration as nested_iteration
        import repro.sql.analysis as analysis

        calls: list[str] = []
        real = analysis.outer_references

        def counting(select, *args):
            calls.append(select.from_tables[0].name)
            return real(select, *args)

        for module in (analysis, nested_iteration):
            monkeypatch.setattr(module, "outer_references", counting)
        db = self.database()
        db.run(
            "SELECT PNUM FROM PARTS WHERE EXISTS "
            "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.QUAN > PARTS.QOH) "
            "AND PNUM NOT IN (SELECT PNUM FROM SUPPLY WHERE QUAN > 3)",
            method="nested_iteration",
        )
        assert sorted(calls) == ["SUPPLY", "SUPPLY"]
