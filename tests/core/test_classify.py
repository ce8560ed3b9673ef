"""Tests for Kim's nesting classification (paper section 2)."""

import pytest

from repro.core.classify import (
    NestingType,
    classify_block,
    classify_nested_predicate,
    ensure_transformable,
)
from repro.core.pipeline import prepare_query
from repro.errors import TransformError
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    TYPE_A_QUERY,
    TYPE_J_QUERY,
    TYPE_JA_QUERY,
    TYPE_N_QUERY,
    load_kiessling_instance,
    load_supplier_parts,
)


def classify_first(catalog, sql):
    found = classify_block(prepare_query(parse(sql), catalog))
    assert len(found) == 1
    return found[0]


class TestPaperExamples:
    def test_type_a(self):
        catalog = load_supplier_parts()
        assert classify_first(catalog, TYPE_A_QUERY).nesting is NestingType.TYPE_A

    def test_type_n(self):
        catalog = load_supplier_parts()
        assert classify_first(catalog, TYPE_N_QUERY).nesting is NestingType.TYPE_N

    def test_type_j(self):
        catalog = load_supplier_parts()
        assert classify_first(catalog, TYPE_J_QUERY).nesting is NestingType.TYPE_J

    def test_type_ja(self):
        catalog = load_supplier_parts()
        assert classify_first(catalog, TYPE_JA_QUERY).nesting is NestingType.TYPE_JA

    def test_kiessling_q2_is_type_ja(self):
        catalog = load_kiessling_instance()
        assert classify_first(catalog, KIESSLING_Q2).nesting is NestingType.TYPE_JA

    def test_query_q5_is_type_ja(self):
        catalog = load_kiessling_instance()
        assert classify_first(catalog, QUERY_Q5).nesting is NestingType.TYPE_JA


class TestNestingTypeProperties:
    @pytest.mark.parametrize(
        "nesting,correlated,aggregate",
        [
            (NestingType.TYPE_A, False, True),
            (NestingType.TYPE_N, False, False),
            (NestingType.TYPE_J, True, False),
            (NestingType.TYPE_JA, True, True),
        ],
    )
    def test_flags(self, nesting, correlated, aggregate):
        assert nesting.is_correlated is correlated
        assert nesting.has_aggregate is aggregate


class TestClassifyBlock:
    def test_multiple_nested_predicates(self):
        catalog = load_supplier_parts()
        block = parse(
            "SELECT SNO FROM SP WHERE "
            "PNO IN (SELECT PNO FROM P) AND "
            "QTY = (SELECT MAX(WEIGHT) FROM P)"
        )
        found = classify_block(prepare_query(block, catalog))
        assert [p.nesting for p in found] == [
            NestingType.TYPE_N, NestingType.TYPE_A
        ]

    def test_no_nested_predicates(self):
        catalog = load_supplier_parts()
        block = parse("SELECT SNO FROM SP WHERE QTY > 100")
        assert classify_block(prepare_query(block, catalog)) == []

    def test_correlation_detected_through_depth(self):
        """A deep inner block referencing the outermost relation makes
        the *outer* nested predicate correlated."""
        catalog = load_supplier_parts()
        block = parse(
            """
            SELECT SNAME FROM S WHERE SNO IN
              (SELECT SNO FROM SP WHERE PNO IN
                (SELECT PNO FROM P WHERE P.CITY = S.CITY))
            """
        )
        found = classify_block(prepare_query(block, catalog))
        assert found[0].nesting is NestingType.TYPE_J

    def test_inner_block_correlated_only_with_itself_is_type_n(self):
        """The benchmark's ``depth2`` shape: the innermost block reads
        ``S1``, a table of the ``IN`` block's own FROM clause, so the
        ``IN`` block is uncorrelated with ``PARTS`` — type N, not J."""
        catalog = load_kiessling_instance()
        block = parse(
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY S1 WHERE QUAN = "
            "(SELECT MAX(QUAN) FROM SUPPLY S2 "
            "WHERE S2.PNUM = S1.PNUM AND S2.SHIPDATE < '1980-07-15'))"
        )
        found = classify_block(prepare_query(block, catalog))
        assert [p.nesting for p in found] == [NestingType.TYPE_N]

    def test_alias_correlation(self):
        catalog = load_supplier_parts()
        block = parse(
            "SELECT SNAME FROM S X WHERE SNO IN "
            "(SELECT SNO FROM SP WHERE SP.ORIGIN = X.CITY)"
        )
        found = classify_block(prepare_query(block, catalog))
        assert found[0].nesting is NestingType.TYPE_J


class TestEnsureTransformable:
    def test_accepts_anded_nested_predicates(self):
        block = parse(
            "SELECT A FROM T WHERE A IN (SELECT B FROM U) AND A > 0"
        )
        ensure_transformable(block)

    def test_rejects_nested_predicate_under_or(self):
        block = parse(
            "SELECT A FROM T WHERE A > 0 OR A IN (SELECT B FROM U)"
        )
        with pytest.raises(TransformError):
            ensure_transformable(block)

    def test_rejects_nested_predicate_under_explicit_not(self):
        # NOT applied to a parenthesized membership predicate.  (Plain
        # ``x NOT IN (...)`` is its own node type and is handled.)
        block = parse(
            "SELECT A FROM T WHERE NOT (A IN (SELECT B FROM U))"
        )
        with pytest.raises(TransformError):
            ensure_transformable(block)
