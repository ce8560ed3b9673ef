"""Tests for the qualification pass (repro.sql.qualify)."""

import pytest

from repro.errors import BindError
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.sql.qualify import qualify

COLUMNS = {
    "PARTS": ("PNUM", "QOH"),
    "SUPPLY": ("PNUM", "QUAN", "SHIPDATE"),
    "S": ("SNO", "SNAME", "CITY"),
    "SP": ("SNO", "PNO", "QTY"),
    "P": ("PNO", "WEIGHT"),
    "X": ("PNUM", "QOH"),
}


def q(sql):
    return to_sql(qualify(parse(sql), COLUMNS.get))


class TestQualify:
    def test_simple_block(self):
        assert q("SELECT PNUM FROM PARTS WHERE QOH > 0") == (
            "SELECT PARTS.PNUM FROM PARTS WHERE PARTS.QOH > 0"
        )

    def test_already_qualified_untouched(self):
        source = "SELECT PARTS.PNUM FROM PARTS WHERE PARTS.QOH > 0"
        assert q(source) == source

    def test_group_by_order_by_and_having(self):
        out = q(
            "SELECT PNUM, COUNT(QUAN) FROM SUPPLY GROUP BY PNUM "
            "HAVING COUNT(QUAN) > 1 ORDER BY PNUM"
        )
        assert "GROUP BY SUPPLY.PNUM" in out
        assert "COUNT(SUPPLY.QUAN)" in out
        assert "ORDER BY SUPPLY.PNUM" in out

    def test_order_by_select_alias_is_left_alone(self):
        out = q("SELECT PNUM AS X, QOH FROM PARTS ORDER BY X DESC")
        assert out == "SELECT PARTS.PNUM AS X, PARTS.QOH FROM PARTS ORDER BY X DESC"

    def test_order_by_alias_wins_over_a_same_named_column(self):
        out = q("SELECT PNUM AS QOH, QOH AS PNUM FROM PARTS ORDER BY QOH")
        assert out.endswith("ORDER BY QOH")

    def test_qualified_order_by_is_never_an_alias(self):
        out = q("SELECT PNUM AS QOH FROM PARTS ORDER BY PARTS.QOH")
        assert out.endswith("ORDER BY PARTS.QOH")

    def test_alias_is_not_visible_outside_order_by(self):
        with pytest.raises(BindError):
            q("SELECT PNUM AS X FROM PARTS WHERE X > 1")

    def test_count_star_untouched(self):
        out = q("SELECT COUNT(*) FROM SUPPLY")
        assert out == "SELECT COUNT(*) FROM SUPPLY"

    def test_inner_block_resolves_locally_first(self):
        out = q(
            "SELECT PNUM FROM PARTS WHERE QOH IN "
            "(SELECT QUAN FROM SUPPLY WHERE PNUM > 0)"
        )
        assert "SUPPLY.PNUM > 0" in out

    def test_correlated_reference_resolves_to_enclosing(self):
        out = q(
            "SELECT QOH FROM PARTS WHERE QOH IN "
            "(SELECT QUAN FROM SUPPLY WHERE QOH > 0)"
        )
        # QOH only exists in PARTS: the inner reference is correlated.
        assert "WHERE PARTS.QOH > 0" in out

    def test_the_merging_hazard_is_fixed(self):
        """The inner SNO must be qualified before FROM clauses merge."""
        out = q(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP)"
        )
        assert "S.SNO IN (SELECT SP.SNO FROM SP)" in out

    def test_alias_scope(self):
        # Columns are looked up by binding (the pipeline maps each
        # binding to its table's columns; here X is listed directly).
        out = q("SELECT X.PNUM FROM PARTS X WHERE QOH > 0")
        assert "X.QOH > 0" in out

    def test_ambiguous_reference_raises(self):
        with pytest.raises(BindError):
            q("SELECT PNUM FROM PARTS, SUPPLY")

    def test_unknown_column_raises(self):
        with pytest.raises(BindError):
            q("SELECT NOPE FROM PARTS")

    def test_exists_and_quantified_blocks_are_entered(self):
        out = q(
            "SELECT SNO FROM S WHERE EXISTS "
            "(SELECT QTY FROM SP WHERE SNO = S.SNO) AND "
            "SNO > ALL (SELECT SNO FROM SP)"
        )
        assert "SELECT SP.QTY FROM SP WHERE SP.SNO = S.SNO" in out
        assert "ALL (SELECT SP.SNO FROM SP)" in out

    def test_a_star_expands_to_its_bindings_columns(self):
        assert q("SELECT * FROM PARTS X") == "SELECT X.PNUM, X.QOH FROM PARTS X"
