"""Unit tests for the SQL parser, keyed to the paper's example queries."""

import pytest

from repro.errors import ParseError
from repro.sql.ast import (
    And,
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    Exists,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    Quantified,
    ScalarSubquery,
    Select,
    Star,
    TableRef,
    UnaryMinus,
)
from repro.sql.parser import parse, parse_expression


class TestSelectStructure:
    def test_minimal_select(self):
        block = parse("SELECT SNO FROM SP")
        assert isinstance(block, Select)
        assert block.from_tables == (TableRef("SP"),)
        assert block.where is None
        assert block.items[0].expr == ColumnRef(None, "SNO")

    def test_trailing_semicolon_is_accepted(self):
        assert parse("SELECT SNO FROM SP;") == parse("SELECT SNO FROM SP")

    def test_select_distinct(self):
        block = parse("SELECT DISTINCT PNUM FROM PARTS")
        assert block.distinct

    def test_multiple_select_items(self):
        block = parse("SELECT PNUM, QOH FROM PARTS")
        assert len(block.items) == 2

    def test_select_item_alias(self):
        block = parse("SELECT COUNT(SHIPDATE) AS CT FROM SUPPLY")
        assert block.items[0].alias == "CT"

    def test_select_item_bare_alias(self):
        block = parse("SELECT PNUM P FROM PARTS")
        assert block.items[0].alias == "P"

    def test_select_star(self):
        block = parse("SELECT * FROM PARTS")
        assert block.items[0].expr == Star()

    def test_select_qualified_star(self):
        block = parse("SELECT PARTS.* FROM PARTS")
        assert block.items[0].expr == Star("PARTS")

    def test_multiple_from_tables(self):
        block = parse("SELECT PNUM FROM PARTS, TEMP3")
        assert block.from_tables == (TableRef("PARTS"), TableRef("TEMP3"))

    def test_table_alias(self):
        block = parse("SELECT X.PNUM FROM PARTS X")
        assert block.from_tables == (TableRef("PARTS", "X"),)
        assert block.from_tables[0].binding == "X"

    def test_table_alias_with_as(self):
        block = parse("SELECT X.PNUM FROM PARTS AS X")
        assert block.from_tables == (TableRef("PARTS", "X"),)

    def test_group_by(self):
        block = parse("SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY GROUP BY PNUM")
        assert block.group_by == (ColumnRef(None, "PNUM"),)

    def test_group_by_multiple_columns(self):
        block = parse("SELECT A, B, MAX(C) FROM T GROUP BY A, B")
        assert len(block.group_by) == 2

    def test_having(self):
        block = parse("SELECT PNUM FROM SUPPLY GROUP BY PNUM HAVING COUNT(QUAN) > 1")
        assert isinstance(block.having, Comparison)

    def test_order_by(self):
        block = parse("SELECT PNUM FROM PARTS ORDER BY PNUM DESC, QOH")
        assert block.order_by[0].descending
        assert not block.order_by[1].descending

    def test_missing_from_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT SNO")

    def test_garbage_after_statement_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT SNO FROM SP extra garbage ,")


class TestPredicates:
    def test_simple_comparison(self):
        block = parse("SELECT SNO FROM SP WHERE QTY > 100")
        assert block.where == Comparison(
            ColumnRef(None, "QTY"), ">", Literal(100)
        )

    def test_qualified_column_comparison(self):
        block = parse("SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY")
        assert block.where == Comparison(
            ColumnRef("SP", "ORIGIN"), "=", ColumnRef("S", "CITY")
        )

    @pytest.mark.parametrize(
        "spelling,normalized",
        [("!=", "<>"), ("!>", "<="), ("!<", ">="), ("<>", "<>")],
    )
    def test_archaic_operators_are_normalized(self, spelling, normalized):
        block = parse(f"SELECT A FROM T WHERE A {spelling} 1")
        assert block.where.op == normalized

    def test_and_flattening(self):
        block = parse("SELECT A FROM T WHERE A = 1 AND B = 2 AND C = 3")
        assert isinstance(block.where, And)
        assert len(block.where.operands) == 3

    def test_or_and_precedence(self):
        block = parse("SELECT A FROM T WHERE A = 1 OR B = 2 AND C = 3")
        assert isinstance(block.where, Or)
        assert isinstance(block.where.operands[1], And)

    def test_parenthesized_boolean(self):
        block = parse("SELECT A FROM T WHERE (A = 1 OR B = 2) AND C = 3")
        assert isinstance(block.where, And)
        assert isinstance(block.where.operands[0], Or)

    def test_not(self):
        block = parse("SELECT A FROM T WHERE NOT A = 1")
        assert isinstance(block.where, Not)

    def test_is_null(self):
        block = parse("SELECT A FROM T WHERE A IS NULL")
        assert block.where == IsNull(ColumnRef(None, "A"))

    def test_is_not_null(self):
        block = parse("SELECT A FROM T WHERE A IS NOT NULL")
        assert block.where == IsNull(ColumnRef(None, "A"), negated=True)

    def test_between(self):
        block = parse("SELECT A FROM T WHERE A BETWEEN 1 AND 10")
        assert block.where == Between(
            ColumnRef(None, "A"), Literal(1), Literal(10)
        )

    def test_not_between(self):
        block = parse("SELECT A FROM T WHERE A NOT BETWEEN 1 AND 10")
        assert block.where.negated

    def test_in_list(self):
        block = parse("SELECT A FROM T WHERE A IN (1, 2, 3)")
        assert block.where == InList(
            ColumnRef(None, "A"), (Literal(1), Literal(2), Literal(3))
        )

    def test_not_in_list(self):
        block = parse("SELECT A FROM T WHERE A NOT IN (1, 2)")
        assert block.where.negated

    def test_outer_join_comparison(self):
        block = parse("SELECT A FROM T, U WHERE T.A =+ U.B")
        assert block.where == Comparison(
            ColumnRef("T", "A"), "=", ColumnRef("U", "B"), outer="left"
        )


    def test_semi_table(self):
        """Plan syntax (``TableRef.semi``), read back as ``=+`` is."""
        from repro.sql.ast import TableRef

        block = parse("SELECT A FROM T, SEMI JTEMP_3, SEMI U X WHERE T.A = X.B")
        assert block.from_tables == (
            TableRef("T"),
            TableRef("JTEMP_3", semi=True),
            TableRef("U", "X", semi=True),
        )


class TestNestedPredicates:
    def test_in_subquery(self):
        block = parse(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')"
        )
        pred = block.where
        assert isinstance(pred, InSubquery)
        assert not pred.negated
        assert pred.query.from_tables == (TableRef("SP"),)

    def test_paper_archaic_is_in(self):
        """The paper's example (3) uses ``IS IN``."""
        archaic = parse(
            "SELECT SNO FROM SP WHERE PNO IS IN "
            "(SELECT PNO FROM P WHERE WEIGHT > 50)"
        )
        modern = parse(
            "SELECT SNO FROM SP WHERE PNO IN "
            "(SELECT PNO FROM P WHERE WEIGHT > 50)"
        )
        assert archaic == modern

    def test_is_not_in(self):
        block = parse("SELECT A FROM T WHERE A IS NOT IN (SELECT B FROM U)")
        assert isinstance(block.where, InSubquery)
        assert block.where.negated

    def test_scalar_subquery_comparison(self):
        """The paper's example (2): a type-A nested predicate."""
        block = parse(
            "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)"
        )
        pred = block.where
        assert isinstance(pred, Comparison)
        assert isinstance(pred.right, ScalarSubquery)
        inner_item = pred.right.query.items[0].expr
        assert inner_item == FuncCall("MAX", ColumnRef(None, "PNO"))

    def test_type_ja_query_from_paper(self):
        """The paper's example (5)."""
        block = parse(
            """
            SELECT PNAME
            FROM P
            WHERE PNO = (SELECT MAX(PNO)
                         FROM SP
                         WHERE SP.ORIGIN = P.CITY)
            """
        )
        assert isinstance(block.where, Comparison)
        inner = block.where.right.query
        assert inner.where == Comparison(
            ColumnRef("SP", "ORIGIN"), "=", ColumnRef("P", "CITY")
        )

    def test_kiessling_query_q2(self):
        """Kiessling's query Q2 (section 5.1) parses fully."""
        block = parse(
            """
            SELECT PNUM
            FROM PARTS
            WHERE QOH = (SELECT COUNT(SHIPDATE)
                         FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM AND
                               SHIPDATE < '1980-01-01')
            """
        )
        inner = block.where.right.query
        assert isinstance(inner.where, And)
        assert inner.items[0].expr == FuncCall(
            "COUNT", ColumnRef(None, "SHIPDATE")
        )

    def test_exists(self):
        block = parse(
            "SELECT SNO FROM S WHERE EXISTS (SELECT * FROM SP WHERE SP.SNO = S.SNO)"
        )
        assert isinstance(block.where, Exists)
        assert not block.where.negated

    def test_not_exists(self):
        block = parse(
            "SELECT SNO FROM S WHERE NOT EXISTS "
            "(SELECT * FROM SP WHERE SP.SNO = S.SNO)"
        )
        assert isinstance(block.where, Not)
        assert isinstance(block.where.operand, Exists)

    def test_any_quantifier(self):
        block = parse("SELECT A FROM T WHERE A < ANY (SELECT B FROM U)")
        pred = block.where
        assert isinstance(pred, Quantified)
        assert pred.quantifier == "ANY"
        assert pred.op == "<"

    def test_some_is_any(self):
        a = parse("SELECT A FROM T WHERE A < SOME (SELECT B FROM U)")
        b = parse("SELECT A FROM T WHERE A < ANY (SELECT B FROM U)")
        assert a == b

    def test_all_quantifier(self):
        block = parse("SELECT A FROM T WHERE A >= ALL (SELECT B FROM U)")
        assert block.where.quantifier == "ALL"

    def test_eq_any_becomes_in(self):
        block = parse("SELECT A FROM T WHERE A = ANY (SELECT B FROM U)")
        assert isinstance(block.where, InSubquery)
        assert not block.where.negated

    def test_neq_all_becomes_not_in(self):
        block = parse("SELECT A FROM T WHERE A <> ALL (SELECT B FROM U)")
        assert isinstance(block.where, InSubquery)
        assert block.where.negated

    def test_deeply_nested_query(self):
        block = parse(
            """
            SELECT A FROM T1 WHERE A IN
              (SELECT B FROM T2 WHERE B IN
                (SELECT C FROM T3 WHERE C IN
                  (SELECT D FROM T4)))
            """
        )
        level2 = block.where.query
        level3 = level2.where.query
        level4 = level3.where.query
        assert level4.from_tables == (TableRef("T4"),)


class TestScalarExpressions:
    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryArith)
        assert expr.op == "+"
        assert expr.right == BinaryArith(Literal(2), "*", Literal(3))

    def test_parenthesized_arithmetic(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_minus(self):
        expr = parse_expression("-QOH")
        assert expr == UnaryMinus(ColumnRef(None, "QOH"))

    def test_null_literal(self):
        expr = parse_expression("NULL")
        assert expr == Literal(None)

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr == FuncCall("COUNT", Star())

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT PNUM)")
        assert expr == FuncCall("COUNT", ColumnRef(None, "PNUM"), distinct=True)

    @pytest.mark.parametrize("name", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_all_aggregates_parse(self, name):
        expr = parse_expression(f"{name}(QTY)")
        assert expr == FuncCall(name, ColumnRef(None, "QTY"))

    def test_unknown_function_raises(self):
        with pytest.raises(ParseError):
            parse_expression("FROBNICATE(QTY)")

    def test_comparison_chain_is_rejected(self):
        # ``a < b < c`` is not SQL; the second ``<`` must fail to parse
        # at statement level.
        with pytest.raises(ParseError):
            parse("SELECT A FROM T WHERE A < B < C")
