"""Tests for algorithm NEST-N-J (paper section 3.1, Kim's Lemma 1)."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.nest_nj import apply_nest_nj, inner_temp_setup
from repro.core.pipeline import Engine, prepare_query
from repro.engine.relation import Relation
from repro.errors import TransformError
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.qualify import qualify
from repro.sql.ast import Comparison, TableRef
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.workloads.paper_data import (
    TYPE_J_QUERY,
    TYPE_N_QUERY,
    fresh_catalog,
    load_supplier_parts,
)
from repro.catalog.schema import schema

from tests.core.helpers import assert_equivalent, literal_nest_nj


def first_nested_conjunct(block):
    from repro.sql.ast import InSubquery, conjuncts

    for conjunct in conjuncts(block.where):
        if isinstance(conjunct, InSubquery):
            return conjunct
    raise AssertionError("no nested predicate found")


class TestAlgorithmSteps:
    def test_lemma_1_shape(self):
        """Kim's Lemma 1: Q2 transforms to the canonical join Q1."""
        block = parse(
            "SELECT RI.CK FROM RI WHERE RI.CH IN (SELECT RJ.CM FROM RJ)"
        )
        merged = apply_nest_nj(block, block.where)
        assert to_sql(merged) == (
            "SELECT RI.CK FROM RI, RJ WHERE RI.CH = RJ.CM"
        )

    def test_from_clauses_combined_in_order(self):
        block = parse(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15)"
        )
        merged = apply_nest_nj(block, block.where)
        assert merged.from_tables == (TableRef("SP"), TableRef("P"))

    def test_where_clauses_anded(self):
        # NEST-N-J itself does not qualify columns (the pipeline's
        # qualification pass runs first); the merge is purely structural.
        block = parse(
            "SELECT SP.SNO FROM SP WHERE SP.QTY > 100 AND "
            "SP.PNO IN (SELECT P.PNO FROM P WHERE P.WEIGHT > 15)"
        )
        merged = apply_nest_nj(block, first_nested_conjunct(block))
        assert to_sql(merged) == (
            "SELECT SP.SNO FROM SP, P WHERE SP.QTY > 100 AND SP.PNO = P.PNO "
            "AND P.WEIGHT > 15"
        )

    def test_outer_select_clause_retained(self):
        block = parse(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP)"
        )
        merged = apply_nest_nj(block, block.where)
        assert to_sql(merged).startswith("SELECT SNAME FROM")

    def test_scalar_comparison_with_subquery(self):
        block = parse(
            "SELECT A FROM T WHERE A < (SELECT B FROM U WHERE U.C = 1)"
        )
        merged = apply_nest_nj(block, block.where)
        assert to_sql(merged) == "SELECT A FROM T, U WHERE A < B AND U.C = 1"

    def test_binding_collision_raises(self):
        block = parse("SELECT A FROM T WHERE A IN (SELECT A FROM T)")
        with pytest.raises(TransformError):
            apply_nest_nj(block, block.where)

    def test_not_in_raises(self):
        block = parse("SELECT A FROM T WHERE A NOT IN (SELECT B FROM U)")
        with pytest.raises(TransformError):
            apply_nest_nj(block, block.where)

    def test_aggregate_inner_raises(self):
        block = parse("SELECT A FROM T WHERE A = (SELECT MAX(B) FROM U)")
        with pytest.raises(TransformError):
            apply_nest_nj(block, block.where)

    def test_inner_group_by_raises(self):
        block = parse(
            "SELECT A FROM T WHERE A IN (SELECT B FROM U GROUP BY B)"
        )
        with pytest.raises(TransformError):
            apply_nest_nj(block, block.where)


class TestSemantics:
    def test_type_n_equivalent_on_supplier_data(self):
        assert_equivalent(load_supplier_parts(), TYPE_N_QUERY)

    def test_type_j_set_equivalent(self):
        """Paper-literal NEST-N-J: sets match, multiplicities may not
        (the documented Lemma-1 duplicates caveat)."""
        catalog = load_supplier_parts()
        ni = Engine(catalog).run(TYPE_J_QUERY, method="nested_iteration")
        assert set(literal_nest_nj(catalog, TYPE_J_QUERY)) == set(ni.result.rows)

    def test_type_n_duplicates_in_inner_inflate_result(self):
        """The caveat itself: duplicate inner values duplicate outer rows."""
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A"))
        catalog.create_table(schema("U", "B"))
        catalog.insert("T", [(1,)])
        catalog.insert("U", [(1,), (1,)])
        sql = "SELECT A FROM T WHERE A IN (SELECT B FROM U)"
        ni = Engine(catalog).run(sql, method="nested_iteration")
        assert ni.result.rows == [(1,)]
        assert literal_nest_nj(catalog, sql) == [(1,), (1,)]  # inflated

    def test_dedupe_inner_fixes_multiplicity(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A"))
        catalog.create_table(schema("U", "B"))
        catalog.insert("T", [(1,), (2,)])
        catalog.insert("U", [(1,), (1,), (3,)])
        sql = "SELECT A FROM T WHERE A IN (SELECT B FROM U)"
        engine = Engine(catalog)
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_dedupe_inner_setup_shape(self):
        block = qualify(
            parse("SELECT A FROM T WHERE A IN (SELECT B FROM U WHERE B > 0)"),
            {"T": ("A",), "U": ("B",)}.get,
        )
        temp, new_pred = inner_temp_setup(block.where, lambda prefix: f"{prefix}_1")
        assert to_sql(temp.query) == (
            "SELECT DISTINCT U.B AS C1 FROM U WHERE U.B > 0"
        )
        assert to_sql(new_pred) == (
            "T.A IN (SELECT NTEMP_1.C1 AS C1 FROM SEMI NTEMP_1)"
        )

    @staticmethod
    def _setup_of(inner_sql):
        block = qualify(
            parse(f"SELECT A FROM T WHERE T.B IN ({inner_sql})"),
            {"T": ("A", "B"), "U": ("A", "C")}.get,
        )
        return inner_temp_setup(block.where, lambda prefix: f"{prefix}_1")

    def test_dedupe_inner_setup_type_j_shape(self):
        """Correlation columns first, item last; the correlated conjunct
        moves out of the definition and is rewritten over the temp."""
        temp, new_pred = self._setup_of(
            "SELECT U.C + 1 FROM U WHERE U.A = T.A AND U.C > 0"
        )
        assert to_sql(temp.query) == (
            "SELECT DISTINCT U.A AS J1, U.C + 1 AS C1 FROM U WHERE U.C > 0"
        )
        assert to_sql(new_pred) == (
            "T.B IN (SELECT JTEMP_1.C1 AS C1 FROM SEMI JTEMP_1 "
            "WHERE JTEMP_1.J1 = T.A)"
        )

    @pytest.mark.parametrize(
        "correlation",
        [
            "U.A < T.A",  # theta: many J1 values can match
            "U.A <=> T.A",  # not the strict =
            "U.A = T.A AND U.C <> T.A",  # second column not pinned
            "U.A + U.C = T.A",  # pins a sum, not the columns
            "U.A = T.A OR U.C = T.A",
        ],
    )
    def test_dedupe_inner_setup_reports_possible_fan_out(self, correlation):
        """Correlations under which several temp rows can match one
        outer row (they used to be reported, for a rowid fix-up): the
        temp is a semi table whatever the correlation, and the merged
        block gives each T row once."""
        _temp, new_pred = self._setup_of(f"SELECT U.C FROM U WHERE {correlation}")
        assert new_pred.query.from_tables == (TableRef("JTEMP_1", semi=True),)
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A", "B"))
        catalog.create_table(schema("U", "A", "C"))
        catalog.insert("T", [(2, 0), (2, 0), (None, 0), (0, 1)])
        catalog.insert("U", [(0, 0), (1, 0), (2, 0), (None, 0), (1, 1), (1, 1)])
        assert_equivalent(
            catalog,
            f"SELECT A FROM T WHERE T.B IN (SELECT U.C FROM U WHERE {correlation})",
        )

    @pytest.mark.parametrize(
        "inner_sql",
        [
            "SELECT U.C + T.A FROM U WHERE U.A = T.A",  # correlated item
            "SELECT DISTINCT U.C FROM U WHERE U.A = T.A",
        ],
    )
    def test_dedupe_inner_setup_not_applicable(self, inner_sql):
        """The two shapes the split used to decline ("not applicable",
        merged flat): an item that reads an outer column has its inner
        columns projected like the correlation columns, and DISTINCT in
        a correlated ``IN`` block says nothing the temp does not."""
        temp, new_pred = self._setup_of(inner_sql)
        assert temp.query.distinct and temp.query.where is None
        assert to_sql(new_pred.query.where) == "JTEMP_1.J1 = T.A"
        assert to_sql(new_pred.query.items[0].expr) in (
            "JTEMP_1.J2 + T.A", "JTEMP_1.C1",
        )

    def test_multi_level_type_n_with_dedupe(self):
        """SP holds duplicate SNO values, so multiset equivalence needs
        the inner-side dedup at both levels."""
        catalog = load_supplier_parts()
        assert_equivalent(
            catalog,
            """
            SELECT SNAME FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE PNO IN
                (SELECT PNO FROM P WHERE WEIGHT > 16))
            """,
        )

    def test_multi_level_type_n_paper_literal_is_set_equivalent(self):
        """Kim's literal merge, one level at a time from the inside."""
        catalog = load_supplier_parts()
        sql = """
            SELECT SNAME FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE PNO IN
                (SELECT PNO FROM P WHERE WEIGHT > 16))
        """
        ni = Engine(catalog).run(sql, method="nested_iteration")
        outer = prepare_query(parse(sql), catalog)
        middle = outer.where.query
        over_flat_middle = replace(
            outer.where, query=apply_nest_nj(middle, middle.where)
        )
        flat = apply_nest_nj(
            replace(outer, where=over_flat_middle), over_flat_middle
        )
        rows = SingleLevelExecutor(catalog).execute(flat, Relation.to_list)
        assert set(rows) == set(ni.result.rows)
