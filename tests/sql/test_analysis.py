"""Tests for correlation analysis (repro.sql.analysis)."""

import pytest

from repro.errors import BindError
from repro.sql.analysis import (
    direct_subqueries,
    is_correlated,
    nesting_depth,
    outer_references,
)
from repro.sql.parser import parse
from repro.sql.qualify import qualify

COLUMNS = {
    "PARTS": ("PNUM", "QOH"),
    "SUPPLY": ("PNUM", "QUAN", "SHIPDATE"),
    "PA": ("PNUM", "QOH"),
    "SU": ("PNUM", "QUAN", "SHIPDATE"),
    "P": ("PNO", "WEIGHT", "CITY"),
    "S": ("SNO", "CITY"),
    "SP": ("SNO", "PNO", "QTY", "ORIGIN"),
    "X": ("SNO", "PNO", "QTY", "ORIGIN"),  # SP X: the map is by binding
}


def inner_of(sql):
    """The first inner block of ``sql``, bound as the pipeline binds it."""
    block = qualify(parse(sql), COLUMNS.get)
    return direct_subqueries(block)[0]


class TestOuterReferences:
    def test_uncorrelated_block_has_none(self):
        inner = inner_of("SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P)")
        assert outer_references(inner) == []

    def test_qualified_outer_reference_found(self):
        inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
        )
        refs = outer_references(inner)
        assert [r.qualified() for r in refs] == ["PARTS.PNUM"]

    def test_unqualified_reference_prefers_local(self):
        # PNUM exists in both SUPPLY (local) and PARTS (outer): local wins.
        inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH IN "
            "(SELECT QUAN FROM SUPPLY WHERE PNUM > 0)"
        )
        assert outer_references(inner) == []

    def test_unqualified_outer_only_column(self):
        inner = inner_of(
            "SELECT QOH FROM PARTS WHERE QOH IN "
            "(SELECT QUAN FROM SUPPLY WHERE QOH > 0)"
        )
        refs = outer_references(inner)
        assert [r.qualified() for r in refs] == ["PARTS.QOH"]

    def test_unresolvable_reference_raises(self):
        """The binder refuses a name no block binds; nothing later
        resolves names."""
        with pytest.raises(BindError):
            inner_of(
                "SELECT QOH FROM PARTS WHERE QOH IN "
                "(SELECT QUAN FROM SUPPLY WHERE NOPE > 0)"
            )

    def test_an_aliased_outer_table_is_found_by_its_binding(self):
        inner = inner_of(
            "SELECT PA.PNUM FROM PARTS PA WHERE PA.QOH = "
            "(SELECT COUNT(*) FROM SUPPLY SU WHERE SU.QUAN > QOH)"
        )
        assert [r.qualified() for r in outer_references(inner)] == ["PA.QOH"]

    def test_an_order_by_output_name_is_not_an_outer_reference(self):
        inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN AS X "
            "FROM SUPPLY WHERE SUPPLY.QUAN > PARTS.QOH ORDER BY X)"
        )
        assert [r.qualified() for r in outer_references(inner)] == ["PARTS.QOH"]

    def test_reference_found_through_deeper_block(self):
        inner = inner_of(
            """
            SELECT SNO FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE PNO IN
                (SELECT PNO FROM P WHERE P.CITY = S.CITY))
            """
        )
        refs = outer_references(inner)
        assert [r.qualified() for r in refs] == ["S.CITY"]


    def test_deeper_block_reading_this_blocks_own_table_is_not_outer(self):
        """The innermost block reads ``SP`` — a table of the middle
        block, not of anything enclosing it — so the middle block has no
        outer reference."""
        inner = inner_of(
            """
            SELECT SNO FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE QTY =
                (SELECT MAX(QTY) FROM SP X WHERE X.PNO = SP.PNO))
            """
        )
        assert outer_references(inner) == []
        assert not is_correlated(inner)

    def test_deeper_block_keeps_its_references_past_this_block(self):
        inner = inner_of(
            """
            SELECT SNO FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE QTY =
                (SELECT MAX(QTY) FROM SP X
                 WHERE X.PNO = SP.PNO AND X.ORIGIN = S.CITY))
            """
        )
        refs = outer_references(inner)
        assert [r.qualified() for r in refs] == ["S.CITY"]


class TestIsCorrelated:
    def test_correlated(self):
        inner = inner_of(
            "SELECT SNO FROM S WHERE SNO IN "
            "(SELECT SNO FROM SP WHERE SP.ORIGIN = S.CITY)"
        )
        assert is_correlated(inner)

    def test_not_correlated(self):
        inner = inner_of("SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P)")
        assert not is_correlated(inner)


class TestStructure:
    def test_direct_subqueries_counts_only_own_level(self):
        block = parse(
            """
            SELECT A FROM T WHERE
              A IN (SELECT B FROM U WHERE B IN (SELECT C FROM V)) AND
              A = (SELECT MAX(D) FROM W)
            """
        )
        assert len(direct_subqueries(block)) == 2

    def test_nesting_depth(self):
        assert nesting_depth(parse("SELECT A FROM T")) == 1
        assert nesting_depth(
            parse("SELECT A FROM T WHERE A IN (SELECT B FROM U)")
        ) == 2
        assert nesting_depth(
            parse(
                "SELECT A FROM T WHERE A IN "
                "(SELECT B FROM U WHERE B IN (SELECT C FROM V))"
            )
        ) == 3
