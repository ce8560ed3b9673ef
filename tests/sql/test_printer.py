"""Tests for the SQL printer, including parse/print round-trips."""

import pytest

from repro.sql.ast import (
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Select,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import to_sql


class TestPrinting:
    def test_minimal_select(self):
        sql = to_sql(parse("select sno from sp"))
        assert sql == "SELECT SNO FROM SP"

    def test_distinct(self):
        sql = to_sql(parse("select distinct pnum from parts"))
        assert sql == "SELECT DISTINCT PNUM FROM PARTS"

    def test_where_clause(self):
        sql = to_sql(parse("select a from t where a = 1 and b < 2"))
        assert sql == "SELECT A FROM T WHERE A = 1 AND B < 2"

    def test_group_by_and_having(self):
        sql = to_sql(
            parse("select pnum, count(quan) from supply group by pnum having count(quan) > 1")
        )
        assert "GROUP BY PNUM" in sql
        assert "HAVING COUNT(QUAN) > 1" in sql

    def test_string_literal_quoting(self):
        sql = to_sql(parse("select a from t where a = 'it''s'"))
        assert "'it''s'" in sql

    def test_null_literal(self):
        assert to_sql(parse_expression("NULL")) == "NULL"

    def test_count_star(self):
        assert to_sql(parse_expression("COUNT(*)")) == "COUNT(*)"

    def test_in_subquery(self):
        sql = to_sql(
            parse("select sname from s where sno in (select sno from sp)")
        )
        assert sql == "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP)"

    def test_archaic_is_in_prints_as_in(self):
        sql = to_sql(
            parse("select sname from s where sno is in (select sno from sp)")
        )
        assert " IN (" in sql
        assert " IS IN" not in sql

    def test_outer_join_comparison_round_trips(self):
        source = "SELECT A FROM T, U WHERE T.A =+ U.B"
        assert parse(to_sql(parse(source))) == parse(source)

    def test_semi_table_round_trips(self):
        source = "SELECT A FROM T, SEMI JTEMP_3, SEMI U X WHERE T.A = X.B"
        assert to_sql(parse(source)) == source

    def test_table_alias(self):
        sql = to_sql(parse("select x.a from t x"))
        assert "FROM T X" in sql

    def test_or_inside_and_is_parenthesized(self):
        sql = to_sql(parse("select a from t where (a = 1 or b = 2) and c = 3"))
        assert "(A = 1 OR B = 2) AND C = 3" in sql

    def test_manual_ast_prints(self):
        block = Select(
            items=(SelectItem(FuncCall("COUNT", Star())),),
            from_tables=(TableRef("SUPPLY"),),
            where=Comparison(ColumnRef("SUPPLY", "QUAN"), ">", Literal(5)),
        )
        assert to_sql(block) == "SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.QUAN > 5"


PAPER_QUERIES = [
    # (1) intro example
    "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')",
    # (2) type-A
    "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
    # (3) type-N
    "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 50)",
    # (4) type-J
    "SELECT SNAME FROM S WHERE SNO IN "
    "(SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
    # (5) type-JA
    "SELECT PNAME FROM P WHERE PNO = "
    "(SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
    # Kiessling Q2 (section 5.1)
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01')",
    # Query Q5 (section 5.3)
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT MAX(QUAN) FROM SUPPLY "
    "WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < '1980-01-01')",
    # Section 8 predicates
    "SELECT SNO FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = S.SNO)",
    "SELECT SNO FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE SP.SNO = S.SNO)",
    "SELECT A FROM T WHERE A < ANY (SELECT B FROM U)",
    "SELECT A FROM T WHERE A > ALL (SELECT B FROM U)",
    # Temporary-table definitions from section 6.1
    "SELECT DISTINCT PNUM FROM PARTS",
    "SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-01-01'",
    "SELECT TEMP1.PNUM, COUNT(TEMP2.PNUM) FROM TEMP1, TEMP2 "
    "WHERE TEMP1.PNUM =+ TEMP2.PNUM GROUP BY TEMP1.PNUM",
]


@pytest.mark.parametrize("source", PAPER_QUERIES)
def test_round_trip_paper_queries(source):
    """parse → print → parse is a fixed point for every paper query."""
    first = parse(source)
    printed = to_sql(first)
    second = parse(printed)
    assert first == second
    # And printing is idempotent.
    assert to_sql(second) == printed
