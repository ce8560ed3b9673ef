"""Section 8 — EXISTS / NOT EXISTS / ANY / ALL rewrites.

Includes the documented semantic caveats: the paper itself warns the
ANY/ALL rewrites are "logically (but not necessarily semantically)
equivalent", and we pin down exactly where they diverge.
"""

from collections import Counter

import pytest

from repro.core.pipeline import Engine
from repro.core.predicates import (
    has_extended_predicates,
    paper_section8,
    rewrite_extended_predicates,
)
from repro.errors import TransformError
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.workloads.paper_data import (
    fresh_catalog,
    load_kiessling_instance,
    load_supplier_parts,
)
from repro.catalog.schema import schema

from tests.core.helpers import assert_equivalent


def rewrite(sql, paper=False):
    rule = paper_section8 if paper else rewrite_extended_predicates
    return to_sql(rule(parse(sql)))


class TestRewriteShapes:
    def test_exists_becomes_zero_less_than_count(self):
        out = rewrite(
            "SELECT A FROM T WHERE EXISTS (SELECT B FROM U WHERE U.B = T.A)"
        )
        assert out == (
            "SELECT A FROM T WHERE 0 < "
            "(SELECT COUNT(*) AS CNT FROM U WHERE U.B = T.A)"
        )

    def test_not_exists_becomes_zero_equals_count(self):
        out = rewrite(
            "SELECT A FROM T WHERE NOT EXISTS (SELECT B FROM U WHERE U.B = T.A)"
        )
        assert "0 = (SELECT COUNT(*) AS CNT" in out

    def test_exists_paper_mode_counts_the_selected_column(self):
        out = rewrite(
            "SELECT A FROM T WHERE EXISTS (SELECT B FROM U)", paper=True
        )
        assert "COUNT(B)" in out

    @pytest.mark.parametrize(
        "op,quant,agg",
        [
            ("<", "ANY", "MAX"),
            ("<=", "ANY", "MAX"),
            (">", "ANY", "MIN"),
            (">=", "ANY", "MIN"),
            ("<", "ALL", "MIN"),
            ("<=", "ALL", "MIN"),
            (">", "ALL", "MAX"),
            (">=", "ALL", "MAX"),
        ],
    )
    def test_quantifier_table(self, op, quant, agg):
        out = rewrite(
            f"SELECT A FROM T WHERE A {op} {quant} (SELECT B FROM U)", paper=True
        )
        assert f"A {op} (SELECT {agg}(B) AS AGG FROM U)" in out

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "<>"])
    def test_exact_any_counts_matches(self, op):
        sql = f"SELECT A FROM T WHERE A {op} ANY (SELECT B FROM U WHERE B > 0)"
        if op == "=":  # normalized to IN by the parser
            return
        out = rewrite(sql)
        assert (
            f"0 < (SELECT COUNT(*) AS CNT FROM U WHERE B > 0 AND A {op} B)"
            in out
        )

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
    def test_exact_all_compares_counts(self, op):
        out = rewrite(
            f"SELECT A FROM T WHERE A {op} ALL (SELECT B FROM U WHERE B > 0)"
        )
        assert (
            "(SELECT COUNT(*) AS CNT FROM U WHERE B > 0) = "
            f"(SELECT COUNT(*) AS CNT FROM U WHERE B > 0 AND A {op} B)"
            in out
        )

    def test_eq_any_is_already_in(self):
        out = rewrite("SELECT A FROM T WHERE A = ANY (SELECT B FROM U)")
        assert "IN (SELECT B FROM U)" in out

    def test_neq_all_is_already_not_in(self):
        out = rewrite("SELECT A FROM T WHERE A <> ALL (SELECT B FROM U)")
        assert "NOT IN (SELECT B FROM U)" in out

    def test_eq_all_has_no_paper_transformation(self):
        """= ALL has no MIN/MAX form; the exact counting rewrite covers it."""
        with pytest.raises(TransformError):
            rewrite(
                "SELECT A FROM T WHERE A = ALL (SELECT B FROM U)", paper=True
            )
        out = rewrite("SELECT A FROM T WHERE A = ALL (SELECT B FROM U)")
        assert "COUNT(*)" in out

    def test_rewrite_recurses_into_nested_blocks(self):
        out = rewrite(
            "SELECT A FROM T WHERE A IN "
            "(SELECT B FROM U WHERE EXISTS (SELECT C FROM V WHERE V.C = U.B))"
        )
        assert "0 < (SELECT COUNT(*) AS CNT FROM V" in out

    def test_archaic_negated_operators(self):
        out = rewrite(
            "SELECT A FROM T WHERE A !> ALL (SELECT B FROM U)", paper=True
        )
        # !> normalizes to <=; <= ALL → MIN.
        assert "A <= (SELECT MIN(B) AS AGG FROM U)" in out

    def test_unknown_quantifier_mode_rejected(self):
        # There is no mode to get wrong: the engine rewrites exactly,
        # and the paper's table is the function paper_section8.  A mode
        # keyword is rejected where the config is built — not as a
        # TransformError, which method="auto" reads as "cannot be
        # unnested".
        with pytest.raises(TypeError, match="quantifier_mode"):
            Engine(fresh_catalog(), quantifier_mode="paper")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT A FROM T",
        "SELECT A FROM T WHERE A IN (SELECT B FROM U)",
        "SELECT A FROM T WHERE EXISTS (SELECT B FROM U WHERE U.B = T.A)",
        "SELECT A FROM T WHERE NOT EXISTS (SELECT B FROM U)",
        "SELECT A FROM T WHERE A < ANY (SELECT B FROM U)",
        "SELECT A FROM T WHERE A > ALL (SELECT B FROM U)",
        "SELECT A FROM T WHERE A = (SELECT MAX(B) FROM U "
        "WHERE EXISTS (SELECT C FROM V WHERE V.C = U.B))",
        "SELECT A FROM T GROUP BY A HAVING EXISTS (SELECT B FROM U)",
    ],
)
def test_has_extended_predicates_says_whether_the_rewrite_changes_a_tree(sql):
    assert has_extended_predicates(parse(sql)) == (rewrite(sql) != to_sql(parse(sql)))


class TestEndToEndEquivalence:
    def test_correlated_exists(self):
        assert_equivalent(
            load_kiessling_instance(),
            "SELECT PNUM FROM PARTS WHERE EXISTS "
            "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND "
            " SHIPDATE < '1980-01-01')",
        )

    def test_correlated_not_exists(self):
        """NOT EXISTS relies on NEST-JA2's zero-count rows: without the
        outer-join fix the 0 = COUNT predicate would match nothing."""
        _, tr = assert_equivalent(
            load_kiessling_instance(),
            "SELECT PNUM FROM PARTS WHERE NOT EXISTS "
            "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND "
            " SHIPDATE < '1980-01-01')",
        )
        assert Counter(tr.result.rows) == Counter([(8,)])

    def test_uncorrelated_exists(self):
        assert_equivalent(
            load_kiessling_instance(),
            "SELECT PNUM FROM PARTS WHERE EXISTS "
            "(SELECT QUAN FROM SUPPLY WHERE QUAN > 4)",
        )

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("quant", ["ANY", "ALL"])
    def test_correlated_quantifiers(self, op, quant):
        assert_equivalent(
            load_kiessling_instance(),
            f"SELECT PNUM FROM PARTS WHERE QOH {op} {quant} "
            "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
        )

    def test_exists_on_supplier_parts(self):
        assert_equivalent(
            load_supplier_parts(),
            "SELECT SNAME FROM S WHERE EXISTS "
            "(SELECT SNO FROM SP WHERE SP.SNO = S.SNO AND SP.QTY > 300)",
        )


class TestDocumentedDivergences:
    """Where the paper's rewrites change semantics — asserted, not hidden.

    Each divergence of the paper's rewrite (``paper_section8``, run by
    a plain engine) is paired with the engine's own counting rewrite,
    which must agree with nested iteration.
    """

    def setup_method(self):
        self.catalog = fresh_catalog()
        self.catalog.create_table(schema("T", "A"))
        self.catalog.create_table(schema("U", "B"))

    def paper(self, sql):
        """The paper's section 8 rewrite, transformed and run."""
        return Engine(self.catalog).run(
            paper_section8(parse(sql)), method="transform"
        )

    def test_all_over_empty_set_diverges(self):
        """x < ALL (∅) is true; x < MIN(∅)=NULL is unknown."""
        self.catalog.insert("T", [(1,)])
        sql = "SELECT A FROM T WHERE A < ALL (SELECT B FROM U)"
        ni = Engine(self.catalog).run(sql, method="nested_iteration")
        tr = self.paper(sql)
        assert ni.result.rows == [(1,)]  # vacuous truth
        assert tr.result.rows == []      # NULL comparison: unknown
        exact = Engine(self.catalog)
        assert exact.run(sql, method="transform").result.rows == [(1,)]

    def test_any_over_empty_set_agrees(self):
        """x < ANY (∅) is false; x < MAX(∅)=NULL is unknown — both
        reject the tuple, so results agree even though the logic
        values differ."""
        self.catalog.insert("T", [(1,)])
        sql = "SELECT A FROM T WHERE A < ANY (SELECT B FROM U)"
        engine = Engine(self.catalog)
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert ni.result.rows == tr.result.rows == self.paper(sql).result.rows == []

    def test_null_in_inner_column_diverges_for_all(self):
        """ALL over a set containing NULL is unknown; MIN ignores NULLs."""
        self.catalog.insert("T", [(1,)])
        self.catalog.insert("U", [(5,), (None,)])
        sql = "SELECT A FROM T WHERE A < ALL (SELECT B FROM U)"
        ni = Engine(self.catalog).run(sql, method="nested_iteration")
        tr = self.paper(sql)
        assert ni.result.rows == []      # 1 < NULL is unknown → reject
        assert tr.result.rows == [(1,)]  # MIN ignores the NULL: 1 < 5
        exact = Engine(self.catalog)
        assert exact.run(sql, method="transform").result.rows == []

    def test_null_operand_rejected_unless_empty_for_all(self):
        """NULL x: x op ALL (Q) is unknown unless Q is empty (vacuous)."""
        self.catalog.insert("T", [(None,)])
        self.catalog.insert("U", [(5,)])
        sql = "SELECT A FROM T WHERE A < ALL (SELECT B FROM U)"
        exact = Engine(self.catalog)
        assert exact.run(sql, method="nested_iteration").result.rows == []
        assert exact.run(sql, method="transform").result.rows == []

    def test_null_operand_vacuous_all_over_empty_set(self):
        self.catalog.insert("T", [(None,)])
        sql = "SELECT A FROM T WHERE A < ALL (SELECT B FROM U)"
        exact = Engine(self.catalog)
        assert exact.run(sql, method="nested_iteration").result.rows == [(None,)]
        assert exact.run(sql, method="transform").result.rows == [(None,)]

    def test_exists_paper_mode_diverges_on_null_column(self):
        """COUNT(B) ignores NULLs, so the paper-literal EXISTS rewrite
        misses rows whose only matches have NULL in the column."""
        self.catalog.insert("T", [(1,)])
        self.catalog.insert("U", [(None,)])
        sql = "SELECT A FROM T WHERE EXISTS (SELECT B FROM U)"
        star = Engine(self.catalog)
        ni = star.run(sql, method="nested_iteration")
        assert ni.result.rows == [(1,)]
        assert star.run(sql, method="transform").result.rows == [(1,)]
        assert self.paper(sql).result.rows == []
