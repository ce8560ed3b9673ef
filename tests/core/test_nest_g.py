"""Section 9 — the recursive general algorithm NEST-G.

The centrepiece is the paper's Figure 2 scenario: a four-level query
tree A → B → C → E (plus D under B) where block B aggregates and block
E's join predicate references a table of block A — a "trans-aggregate"
reference spanning multiple levels, exactly the case Kiessling thought
unrecoverable.  The postorder recursion must inherit the reference
upward via NEST-N-J merges until NEST-JA2 applies at B.
"""

from collections import Counter

import pytest

from repro.catalog.schema import schema
from repro.core.nest_g import nest_g
from repro.core.pipeline import Engine
from repro.errors import TransformError
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.workloads.paper_data import fresh_catalog, load_supplier_parts

from tests.core.helpers import assert_equivalent


def figure2_catalog():
    """Five relations for the Figure 2 query tree."""
    catalog = fresh_catalog()
    catalog.create_table(schema("TA", "K", "V"))
    catalog.create_table(schema("TB", "K", "V", "W"))
    catalog.create_table(schema("TC", "K", "V"))
    catalog.create_table(schema("TD", "V"))
    catalog.create_table(schema("TE", "K", "V"))
    catalog.insert("TA", [(1, 7), (2, 5), (3, 0)])
    catalog.insert("TB", [(10, 7, 100), (10, 3, 100), (20, 5, 200), (30, 9, 999)])
    catalog.insert("TC", [(10, 51), (20, 52), (30, 53)])
    catalog.insert("TD", [(100,), (200,)])
    catalog.insert("TE", [(1, 51), (2, 52), (2, 51)])
    return catalog


FIGURE2_QUERY = """
    SELECT K FROM TA
    WHERE V = (SELECT MAX(TB.V) FROM TB
               WHERE TB.K IN (SELECT TC.K FROM TC
                              WHERE TC.V IN (SELECT TE.V FROM TE
                                             WHERE TE.K = TA.K))
                 AND TB.W IN (SELECT TD.V FROM TD))
"""


class TestFigure2:
    def test_equivalent_to_nested_iteration(self):
        assert_equivalent(figure2_catalog(), FIGURE2_QUERY)

    def test_expected_rows(self):
        # TA.K=1 → TE.V {51} → TC.K {10} → TB rows (10,7,100),(10,3,100)
        #   with W in TD → MAX(V)=7 = TA.V ✓
        # TA.K=2 → TE.V {51,52} → TC.K {10,20} → MAX(V over 7,3,5)=7 ≠ 5
        # TA.K=3 → no TE rows → MAX over ∅ = NULL → reject.
        engine = Engine(figure2_catalog())
        result = engine.run(FIGURE2_QUERY, method="transform")
        assert Counter(result.result.rows) == Counter([(1,)])

    def test_trace_shows_postorder_inheritance(self):
        """E merges into C, C into B, D into B, then JA2 fires at (A,B)."""
        engine = Engine(figure2_catalog())
        report = engine.run(FIGURE2_QUERY, method="transform")
        trace = report.trace
        nj_merges = [t for t in trace if t.startswith("NEST-N-J (type-")]
        assert len(nj_merges) >= 3  # E→C, C→B, D→B
        ja2_steps = [t for t in trace if t.startswith("NEST-JA2")]
        assert ja2_steps, trace
        # The JA2 steps come after the inner NEST-N-J merges.
        assert trace.index(ja2_steps[0]) > trace.index(nj_merges[0])

    def test_canonical_query_is_single_level(self):
        engine = Engine(figure2_catalog())
        transform = engine.transform(FIGURE2_QUERY)
        from repro.sql.ast import Select, walk

        nested = [
            node
            for node in walk(transform.query)
            if isinstance(node, Select) and node is not transform.query
        ]
        assert nested == []
        engine.catalog.drop_temp_tables()

    def test_temp1_projects_block_a_table(self):
        """The outer projection is taken from TA — the relation the
        trans-aggregate join predicate references."""
        engine = Engine(figure2_catalog())
        transform = engine.transform(FIGURE2_QUERY)
        # NEST-JA2's step 1, after the inner temps of the IN blocks.
        temp1 = next(d for d in transform.setup if d.name.startswith("TEMP_"))
        assert "FROM TA" in temp1.describe()
        engine.catalog.drop_temp_tables()


class TestTypeAEvaluation:
    def test_type_a_replaced_by_constant(self):
        """NEST-A at replay: the block is a value link binding a hidden
        slot, and the run substitutes the constant it evaluates to."""
        catalog = load_supplier_parts()
        engine = Engine(catalog)
        sql = "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)"
        transform = engine.transform(sql)
        (link,) = transform.setup
        assert (link.slot, link.is_list) == (0, False)
        assert to_sql(transform.query).endswith("WHERE SP.PNO = ?")
        report = engine.run(sql)
        assert report.steps[0].startswith("evaluated ATEMP_")
        expected = engine.run(sql.replace("(SELECT MAX(PNO) FROM P)", "'P6'"))
        assert Counter(report.result.rows) == Counter(expected.result.rows)

    def test_type_a_empty_inner_becomes_null(self):
        catalog = load_supplier_parts()
        engine = Engine(catalog)
        result = engine.run(
            "SELECT SNO FROM SP WHERE QTY = (SELECT MAX(WEIGHT) FROM P "
            "WHERE WEIGHT > 999)",
            method="transform",
        )
        assert result.result.rows == []

    def test_uncorrelated_not_in_evaluated_as_list(self):
        catalog = load_supplier_parts()
        assert_equivalent(
            catalog,
            "SELECT PNO FROM P WHERE PNO NOT IN (SELECT PNO FROM SP)",
        )

    def test_correlated_not_in_rejected(self):
        catalog = load_supplier_parts()
        engine = Engine(catalog)
        with pytest.raises(TransformError):
            engine.transform(
                "SELECT SNAME FROM S WHERE SNO NOT IN "
                "(SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY)"
            )

    def test_type_a_depending_on_descendant_temps(self):
        """A type-A block that itself contained type-JA nesting reads
        temp tables: its value link comes after them in the chain, and
        transforming builds none of them."""
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "K", "V"))
        catalog.create_table(schema("U", "K", "V"))
        catalog.create_table(schema("W", "K", "V"))
        catalog.insert("T", [(1, 2), (2, 9)])
        catalog.insert("U", [(5, 1), (6, 2)])
        catalog.insert("W", [(5, 7), (5, 8), (6, 3)])
        # Inner block: for each U row, count W rows with W.K = U.K;
        # MAX over those counts.  Uncorrelated w.r.t. T (type A), but
        # contains type-JA nesting internally.
        sql = """
            SELECT K FROM T
            WHERE V = (SELECT MAX(U.V) FROM U
                       WHERE U.V = (SELECT COUNT(W.V) FROM W
                                    WHERE W.K = U.K))
        """
        engine = Engine(catalog)
        tables = set(catalog.table_names())
        transform = engine.transform(sql)
        *temps, link = transform.setup
        assert temps and all(temp.slot is None for temp in temps)
        assert link.slot is not None
        assert {ref.name for ref in link.query.from_tables} & {t.name for t in temps}
        assert set(catalog.table_names()) == tables
        assert_equivalent(catalog, sql)

    def test_in_with_aggregate_inner_degenerates_to_equality(self):
        catalog = load_supplier_parts()
        assert_equivalent(
            catalog,
            "SELECT PNAME FROM P WHERE PNO IN "
            "(SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
        )


class TestDeepNesting:
    def test_five_levels(self):
        catalog = fresh_catalog()
        for name in ("L1", "L2", "L3", "L4", "L5"):
            catalog.create_table(schema(name, "K"))
            catalog.insert(name, [(1,), (2,), (3,)])
        assert_equivalent(
            catalog,
            """
            SELECT K FROM L1 WHERE K IN
              (SELECT K FROM L2 WHERE K IN
                (SELECT K FROM L3 WHERE K IN
                  (SELECT K FROM L4 WHERE K IN
                    (SELECT K FROM L5 WHERE K < 3))))
            """,
        )

    def test_two_ja_levels(self):
        """Nested type-JA inside type-JA (aggregate over aggregate)."""
        catalog = fresh_catalog()
        catalog.create_table(schema("R1", "K", "V"))
        catalog.create_table(schema("R2", "K", "V"))
        catalog.create_table(schema("R3", "K", "V"))
        catalog.insert("R1", [(1, 3), (2, 1)])
        catalog.insert("R2", [(1, 10), (1, 20), (2, 30)])
        catalog.insert("R3", [(10, 1), (10, 2), (10, 3), (20, 9), (30, 1)])
        sql = """
            SELECT K FROM R1
            WHERE V = (SELECT MAX(R2.V) FROM R2
                       WHERE R2.K = R1.K AND
                             R2.V = (SELECT COUNT(R3.V) FROM R3
                                     WHERE R3.K = R2.V))
        """
        # NI: R1(1,3): R2 rows with K=1: (1,10),(1,20); condition
        # R2.V = count(R3 where R3.K=R2.V): V=10 → count 3 → 10≠3 no;
        # V=20 → count 1 → 20≠1 no → MAX(∅)=NULL → reject.  R1(2,1):
        # R2 (2,30): V=30 → count 1 → 30≠1 → NULL → reject.
        engine = Engine(catalog)
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_two_sibling_ja_predicates(self):
        """Two type-JA predicates on one block: two NEST-JA2 rounds,
        each producing its own temp chain, merged in sequence."""
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "K", "V", "W"))
        catalog.create_table(schema("U", "K", "X"))
        catalog.create_table(schema("W2", "K", "Y"))
        catalog.insert("T", [(1, 1, 2), (2, 0, 1), (3, 2, 0)])
        catalog.insert("U", [(1, 5), (1, 6), (3, 1), (3, 2)])
        catalog.insert("W2", [(1, 9), (2, 8), (3, 7), (3, 6)])
        sql = """
            SELECT K FROM T
            WHERE V = (SELECT COUNT(X) FROM U WHERE U.K = T.K)
              AND W = (SELECT COUNT(Y) FROM W2 WHERE W2.K = T.K)
        """
        engine = Engine(catalog)
        transform = engine.transform(sql)
        assert len(transform.setup) == 6  # two TEMP1/TEMP2/TEMP3 chains
        catalog.drop_temp_tables()
        from tests.core.helpers import assert_equivalent

        _, tr = assert_equivalent(catalog, sql)
        assert sorted(tr.result.rows) == [(2,)]
        # T(2, 0, 1): zero U-matches (COUNT=0 ✓) and one W2-match —
        # only reachable because *both* outer joins kept empty groups.

    def test_sibling_nested_predicates(self):
        catalog = load_supplier_parts()
        assert_equivalent(
            catalog,
            "SELECT SNO FROM SP WHERE "
            "PNO IN (SELECT PNO FROM P WHERE WEIGHT > 12) AND "
            "QTY = (SELECT MAX(QTY) FROM SP X WHERE X.PNO = SP.PNO)",
        )
