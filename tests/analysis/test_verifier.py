"""Unit tests for the plan invariant verifier (PV0xx rules)."""

import pytest

from repro.analysis.spans import SourceMap
from repro.analysis.verifier import (
    collect_temp_infos,
    verify_nested,
    verify_single_level,
    verify_transform,
)
from repro.core.nest_ja import kim_nest_g
from repro.core.pipeline import Engine, prepare_query
from repro.errors import (
    BindError,
    CatalogError,
    ColumnVerificationError,
    PlanError,
    VerificationError,
)
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    load_kiessling_instance,
    load_operator_bug_instance,
    load_supplier_parts,
)

from tests.core.helpers import transform_with


class TestVerifyNested:
    def test_clean_query_has_no_findings(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(parse(KIESSLING_Q2), catalog)
        assert not findings

    def test_unknown_column_is_pv001(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(parse("SELECT NOPE FROM PARTS"), catalog)
        assert findings.rules() == {"PV001"}

    def test_qualified_miss_is_pv001(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(
            parse("SELECT PARTS.NOPE FROM PARTS"), catalog
        )
        assert findings.rules() == {"PV001"}

    def test_ambiguous_column_is_pv002(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(
            parse("SELECT PNUM FROM PARTS, SUPPLY"), catalog
        )
        assert findings.rules() == {"PV002"}

    def test_unknown_table_is_pv004(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(parse("SELECT A FROM NOPE"), catalog)
        assert "PV004" in findings.rules()

    def test_correlated_reference_resolves_through_outer_scope(self):
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PNUM FROM PARTS WHERE 0 < "
            "(SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
        )
        assert not verify_nested(parse(sql), catalog)

    def test_uncorrelated_inner_cannot_be_referenced_from_outer(self):
        catalog = load_kiessling_instance()
        # SUPPLY is only in scope inside the subquery, not outside it.
        sql = (
            "SELECT SUPPLY.QUAN FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY)"
        )
        findings = verify_nested(parse(sql), catalog)
        assert "PV001" in findings.rules()

    def test_order_by_output_alias_is_accepted(self):
        # The nested-iteration executor resolves ORDER BY against
        # output names; the verifier must not flag a valid alias.
        catalog = load_kiessling_instance()
        sql = "SELECT PNUM AS P FROM PARTS ORDER BY P"
        assert not verify_nested(parse(sql), catalog)

    def test_require_qualified_reports_pv003(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(
            parse("SELECT PNUM FROM PARTS"),
            catalog,
            require_qualified=True,
        )
        assert findings.rules() == {"PV003"}

    def test_qualified_query_passes_require_qualified(self):
        catalog = load_kiessling_instance()
        prepared = prepare_query(parse(KIESSLING_Q2), catalog)
        findings = verify_nested(prepared, catalog, require_qualified=True)
        assert not findings


class TestSourceSpans:
    def test_pv001_carries_a_span_pointing_at_the_column(self):
        catalog = load_kiessling_instance()
        sql = "SELECT NOPE FROM PARTS"
        findings = verify_nested(
            parse(sql), catalog, source_map=SourceMap(sql)
        )
        (diag,) = findings.by_rule("PV001")
        assert diag.span is not None
        assert sql[diag.span.start : diag.span.end] == "NOPE"

    def test_format_renders_caret_snippet(self):
        catalog = load_kiessling_instance()
        sql = "SELECT NOPE FROM PARTS"
        findings = verify_nested(
            parse(sql), catalog, source_map=SourceMap(sql)
        )
        rendered = findings.format(sql)
        assert "^" in rendered
        assert "PV001" in rendered


class TestRaiseErrors:
    def test_binding_errors_raise_bind_error_subclass(self):
        catalog = load_kiessling_instance()
        findings = verify_nested(parse("SELECT NOPE FROM PARTS"), catalog)
        with pytest.raises(ColumnVerificationError) as excinfo:
            findings.raise_errors()
        assert isinstance(excinfo.value, BindError)
        assert excinfo.value.diagnostics

    def test_plan_errors_raise_verification_error(self):
        catalog = load_operator_bug_instance()
        transform = transform_with(catalog, QUERY_Q5, kim_nest_g)
        findings, _ = verify_transform(transform, catalog)
        with pytest.raises(VerificationError) as excinfo:
            findings.raise_errors()
        assert isinstance(excinfo.value, PlanError)


class TestVerifySingleLevel:
    def test_nested_canonical_is_pv010(self):
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY)"
        )
        findings = verify_single_level(parse(sql), catalog)
        assert "PV010" in findings.rules()

    def test_flat_query_is_clean(self):
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM"
        )
        assert not verify_single_level(parse(sql), catalog)

    def test_non_grouped_select_item_is_pv008(self):
        catalog = load_kiessling_instance()
        sql = "SELECT QOH FROM PARTS GROUP BY PNUM"
        findings = verify_single_level(parse(sql), catalog)
        assert "PV008" in findings.rules()

    def test_having_aggregate_argument_is_exempt(self):
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PNUM FROM PARTS GROUP BY PNUM "
            "HAVING COUNT(QOH) > 1"
        )
        assert not verify_single_level(parse(sql), catalog)

    def test_semi_table_columns_are_visible_to_where_only(self):
        """PV012: a semi-join puts out none of its right columns."""
        catalog = load_kiessling_instance()
        semi = "FROM PARTS, SEMI SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM"
        assert not verify_single_level(parse(f"SELECT PARTS.QOH {semi}"), catalog)
        for sql in (
            f"SELECT SUPPLY.QUAN {semi}",
            f"SELECT QUAN {semi}",  # unqualified, owned by the semi table
            f"SELECT COUNT(SUPPLY.QUAN) {semi}",
            f"SELECT COUNT(*) {semi} GROUP BY SUPPLY.QUAN",
            f"SELECT PARTS.QOH {semi} GROUP BY PARTS.QOH "
            "HAVING MAX(SUPPLY.QUAN) > 1",
            f"SELECT PARTS.QOH {semi} ORDER BY SUPPLY.QUAN",
        ):
            findings = verify_single_level(parse(sql), catalog)
            assert "PV012" in [d.rule for d in findings.errors], sql

    def test_order_by_select_alias_is_clean(self):
        # qualify leaves ORDER BY <alias> unqualified; it names the
        # output column, not a table column (PV001) and it is in the
        # SELECT list (PV011) — also when it shadows a base column.
        catalog = load_kiessling_instance()
        for sql in (
            "SELECT PARTS.PNUM AS X, PARTS.QOH FROM PARTS ORDER BY X",
            "SELECT PARTS.PNUM AS QOH FROM PARTS ORDER BY QOH DESC",
        ):
            assert not verify_single_level(parse(sql), catalog)

    def test_order_by_unknown_name_is_still_pv001(self):
        catalog = load_kiessling_instance()
        sql = "SELECT PARTS.PNUM AS X FROM PARTS ORDER BY Y"
        findings = verify_single_level(parse(sql), catalog)
        assert {"PV001", "PV011"} <= set(findings.rules())

    def test_hash_join_non_equality_outer_is_a_warning(self):
        # The executor falls back to merge-theta when there is no equi
        # key, so this must not be an error.
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM < SUPPLY.PNUM"
        )
        findings = verify_single_level(
            parse(sql), catalog, join_method="hash"
        )
        assert not findings.errors


class TestVerifyTransform:
    def test_ja2_transform_is_clean(self):
        catalog = load_kiessling_instance()
        transform = Engine(catalog).transform(KIESSLING_Q2)
        findings, temps = verify_transform(transform, catalog)
        assert not findings.errors
        assert temps  # the temp chain was inferred

    def test_kim_operator_bug_rejoin_is_pv007(self):
        # Kim keeps `<` in the rejoin, so the grouped temp's key is
        # never equated: one outer row matches several groups.
        catalog = load_operator_bug_instance()
        transform = transform_with(catalog, QUERY_Q5, kim_nest_g)
        findings, _ = verify_transform(transform, catalog)
        assert "PV007" in findings.rules()

    def test_temp_chain_nullability_reaches_the_rejoin(self):
        catalog = load_kiessling_instance()
        transform = Engine(catalog).transform(KIESSLING_Q2)
        temps = collect_temp_infos(transform.setup, catalog)
        agg = temps[transform.setup[-1].name]
        assert agg.grouped
        # COUNT through the whole TEMP1/TEMP2/TEMP3 chain stays NOT NULL.
        (cagg,) = [temps[agg.name].outputs[c] for c in agg.agg_outputs]
        assert cagg.nullable is False


class TestExecutorIntegration:
    def test_nested_iteration_rejects_bad_column_statically(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        with pytest.raises(BindError):
            engine.run("SELECT NOPE FROM PARTS", method="nested_iteration")

    def test_unknown_table_still_raises_catalog_error(self):
        # PV004 defers to the catalog so the error class is unchanged.
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        with pytest.raises(CatalogError):
            engine.run("SELECT A FROM NOPE", method="nested_iteration")

    def test_transform_pipeline_traces_verifier_ok(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        report = engine.run(KIESSLING_Q2, method="transform")
        assert any("verifier: plan ok" in line for line in report.trace)

    def test_a_plan_with_an_error_finding_raises(self, monkeypatch):
        """Every transform plan is verified, and an error always raises —
        also under ``method="auto"``, which must not fall back to nested
        iteration.  Kim's plan stands in for a NEST-G bug."""
        import repro.serve.plan as plan_module

        monkeypatch.setattr(plan_module, "nest_g", kim_nest_g)
        catalog = load_kiessling_instance()
        for method in ("transform", "auto"):
            with pytest.raises(VerificationError, match="KB001"):
                Engine(catalog).run(KIESSLING_Q2, method=method)


class TestSupplierWorkload:
    def test_intro_query_verifies_end_to_end(self):
        catalog = load_supplier_parts()
        sql = (
            "SELECT SNAME FROM S WHERE SNO IN "
            "(SELECT SNO FROM SP WHERE PNO = 'P2')"
        )
        assert not verify_nested(parse(sql), catalog)
