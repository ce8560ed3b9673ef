"""Tests for the qualification pass (repro.sql.qualify)."""

from collections import Counter

import pytest

from repro.analysis.diagnostics import Findings
from repro.analysis.spans import SourceMap
from repro.errors import BindError, ColumnVerificationError, VerificationError
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


class TestEveryNameIsChecked:
    """The binder is the one name checker: a qualified reference is
    checked as an unqualified one is, and every finding of a statement
    comes out in one error."""

    def test_a_qualified_miss_is_pv001(self):
        with pytest.raises(ColumnVerificationError) as excinfo:
            q("SELECT PARTS.NOPE FROM PARTS")
        assert [d.rule for d in excinfo.value.diagnostics] == ["PV001"]

    def test_a_binding_of_no_enclosing_block_is_pv001(self):
        with pytest.raises(ColumnVerificationError, match=r"PV001.*SUPPLY\.QUAN"):
            q("SELECT SUPPLY.QUAN FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)")

    def test_every_finding_is_in_the_one_error(self):
        with pytest.raises(ColumnVerificationError) as excinfo:
            q("SELECT NOPE, PARTS.ZIP, PNUM FROM PARTS, SUPPLY")
        assert [d.rule for d in excinfo.value.diagnostics] == [
            "PV001", "PV001", "PV002",
        ]

    def test_an_order_by_name_that_resolves_nowhere_is_pv001_alone(self):
        with pytest.raises(ColumnVerificationError) as excinfo:
            q("SELECT PNUM FROM PARTS ORDER BY NOPE")
        assert [d.rule for d in excinfo.value.diagnostics] == ["PV001"]

    def test_an_unsortable_order_by_is_pv011(self):
        with pytest.raises(VerificationError, match="PV011") as excinfo:
            q("SELECT PNUM AS P FROM PARTS ORDER BY QOH")
        assert not isinstance(excinfo.value, BindError)

    def test_findings_are_collected_with_spans_when_asked(self):
        sql = "SELECT PNUM FROM PARTS WHERE X.QOH > 0"
        findings = Findings()
        bound = qualify(parse(sql), COLUMNS.get, findings, SourceMap(sql))
        (diagnostic,) = findings
        assert diagnostic.rule == "PV001"
        assert sql[diagnostic.span.start : diagnostic.span.end] == "X.QOH"
        # The name is left as written; the rest is bound.
        assert to_sql(bound) == "SELECT PARTS.PNUM FROM PARTS WHERE X.QOH > 0"

    def test_a_from_table_it_does_not_know_is_pv004(self):
        findings = Findings()
        qualify(parse("SELECT A FROM NOPE"), COLUMNS.get, findings)
        assert [d.rule for d in findings] == ["PV004", "PV001"]


#: A type-JA statement NEST-G transforms, and one it does not (a
#: subquery under OR), which ``auto`` runs by nested iteration.
TRANSFORMABLE = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
)
FALLBACK = "SELECT PNUM FROM PARTS WHERE QOH > 5 OR PNUM IN (SELECT PNUM FROM SUPPLY)"


@pytest.mark.parametrize(
    "method,sql,runs",
    [
        ("transform", TRANSFORMABLE, "transform"),
        ("auto", TRANSFORMABLE, "transform"),
        ("cost", TRANSFORMABLE, None),
        ("nested_iteration", TRANSFORMABLE, "nested_iteration"),
        ("auto", FALLBACK, "nested_iteration"),
    ],
    ids=["transform", "auto", "cost", "nested_iteration", "fallback"],
)
def test_a_plan_build_binds_its_statement_once(method, sql, runs, monkeypatch):
    """``prepare_query`` binds the statement; a nested-iteration plan
    runs that tree rather than binding the statement again."""
    import repro.core.pipeline
    import repro.serve.plan
    from repro import Database

    calls: Counter = Counter()
    for module, name in (
        (repro.core.pipeline, "qualify"),
        (repro.serve.plan, "prepare_query"),
    ):
        real = getattr(module, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    db = Database()
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
    db.insert("SUPPLY", [(3, 4), (10, 1), (8, 5)])
    report = db.run(sql, method=method)
    assert report.result.rows
    assert runs in (None, report.method)
    assert calls == {"qualify": 1, "prepare_query": 1}
