"""Property-based equivalence: transformation vs. nested iteration.

For randomized PARTS/SUPPLY instances and randomized query parameters,
the transformed query must produce exactly the nested-iteration result
(as a bag).  This is the strongest statement of the paper's lemmas:
NEST-JA2 is *correct* where Kim's NEST-JA was not, across aggregates,
operators, duplicates, empty groups, and buffer geometries.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import ColumnType, schema
from repro.core.pipeline import Engine
from repro.workloads.paper_data import fresh_catalog

# Small domains force collisions: duplicates, empty groups, ties.
small_int = st.integers(min_value=0, max_value=4)
dates = st.sampled_from(
    ["1975-01-01", "1978-06-08", "1979-12-31", "1980-01-01", "1983-05-07"]
)

parts_rows = st.lists(st.tuples(small_int, small_int), max_size=8)
supply_rows = st.lists(st.tuples(small_int, small_int, dates), max_size=10)


def make_catalog(parts, supply, buffer_pages=4):
    catalog = fresh_catalog(buffer_pages)
    catalog.create_table(schema("PARTS", "PNUM", "QOH"), rows_per_page=2)
    catalog.create_table(
        schema("SUPPLY", "PNUM", "QUAN", ("SHIPDATE", ColumnType.DATE)),
        rows_per_page=2,
    )
    catalog.insert("PARTS", parts)
    catalog.insert("SUPPLY", supply)
    return catalog


def check(catalog, sql, **engine_kwargs):
    engine = Engine(catalog, **engine_kwargs)
    oracle = engine.run(sql, method="nested_iteration")
    transformed = engine.run(sql, method="transform")
    assert Counter(transformed.result.rows) == Counter(oracle.result.rows), (
        f"{sql}\ntransform={sorted(transformed.result.rows, key=str)}\n"
        f"oracle={sorted(oracle.result.rows, key=str)}"
    )


class TestTypeJAEquivalence:
    @given(parts=parts_rows, supply=supply_rows,
           agg=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]))
    @settings(max_examples=60, deadline=None)
    def test_equality_join_all_aggregates(self, parts, supply, agg):
        sql = f"""
            SELECT PNUM, QOH FROM PARTS
            WHERE QOH = (SELECT {agg}(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM AND
                               SHIPDATE < '1980-01-01')
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows,
           op=st.sampled_from(["<", "<=", ">", ">=", "<>"]),
           agg=st.sampled_from(["COUNT", "MAX", "SUM"]))
    @settings(max_examples=60, deadline=None)
    def test_theta_join_operators(self, parts, supply, op, agg):
        sql = f"""
            SELECT PNUM, QOH FROM PARTS
            WHERE QOH = (SELECT {agg}(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM {op} PARTS.PNUM)
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows,
           scalar_op=st.sampled_from(["=", "<", ">=", "<>"]))
    @settings(max_examples=40, deadline=None)
    def test_scalar_operators(self, parts, supply, scalar_op):
        sql = f"""
            SELECT PNUM FROM PARTS
            WHERE QOH {scalar_op} (SELECT COUNT(QUAN) FROM SUPPLY
                                   WHERE SUPPLY.PNUM = PARTS.PNUM)
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=40, deadline=None)
    def test_count_star(self, parts, supply):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT COUNT(*) FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM AND
                               SHIPDATE < '1980-01-01')
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows,
           join_method=st.sampled_from(["merge", "nested"]),
           buffer_pages=st.integers(min_value=3, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_any_join_method_and_buffer(self, parts, supply, join_method,
                                        buffer_pages):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM)
        """
        catalog = make_catalog(parts, supply, buffer_pages)
        check(catalog, sql, join_method=join_method)


class TestTypeNEquivalence:
    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=40, deadline=None)
    def test_uncorrelated_in_with_dedupe(self, parts, supply):
        sql = """
            SELECT PNUM, QOH FROM PARTS
            WHERE PNUM IN (SELECT PNUM FROM SUPPLY
                           WHERE SHIPDATE < '1980-01-01')
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=30, deadline=None)
    def test_uncorrelated_not_in(self, parts, supply):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE PNUM NOT IN (SELECT PNUM FROM SUPPLY WHERE QUAN > 2)
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=30, deadline=None)
    def test_type_a_scalar(self, parts, supply):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY
                         WHERE SHIPDATE < '1980-01-01')
        """
        check(make_catalog(parts, supply), sql)


class TestExtendedPredicateEquivalence:
    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=40, deadline=None)
    def test_exists(self, parts, supply):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE EXISTS (SELECT QUAN FROM SUPPLY
                          WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 1)
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows)
    @settings(max_examples=40, deadline=None)
    def test_not_exists(self, parts, supply):
        sql = """
            SELECT PNUM FROM PARTS
            WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY
                              WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 1)
        """
        check(make_catalog(parts, supply), sql)

    @given(parts=parts_rows, supply=supply_rows,
           op=st.sampled_from(["<", "<=", ">", ">="]),
           quant=st.sampled_from(["ANY", "ALL"]))
    @settings(max_examples=60, deadline=None)
    def test_quantifiers_correlated_nonempty_groups(self, parts, supply, op, quant):
        """ANY/ALL rewrites agree wherever every correlated group is
        non-empty and NULL-free; restrict PARTS to PNUMs present in
        SUPPLY to stay inside the agreement region (the divergences
        are pinned in tests/core/test_predicates.py)."""
        present = {row[0] for row in supply}
        parts = [row for row in parts if row[0] in present]
        sql = f"""
            SELECT PNUM, QOH FROM PARTS
            WHERE QOH {op} {quant} (SELECT QUAN FROM SUPPLY
                                    WHERE SUPPLY.PNUM = PARTS.PNUM)
        """
        check(make_catalog(parts, supply), sql)


class TestMultiLevelEquivalence:
    @given(parts=parts_rows, supply=supply_rows, cutoff=small_int)
    @settings(max_examples=30, deadline=None)
    def test_two_level_ja_over_n_with_dedupe(self, parts, supply, cutoff):
        """A type-N block nested under an aggregate: merging it with
        duplicate inner values would *change the aggregate* (the paper's
        Lemma 1 assumes set semantics; see DESIGN.md), so the inner temp
        is a semi table of NEST-JA2's restricted inner projection."""
        sql = f"""
            SELECT PNUM FROM PARTS
            WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
                         WHERE SUPPLY.PNUM = PARTS.PNUM AND
                               QUAN IN (SELECT QOH FROM PARTS X
                                        WHERE X.PNUM > {cutoff}))
        """
        # The inner type-N block references PARTS via an alias to avoid
        # the FROM-collision restriction.
        check(make_catalog(parts, supply), sql)

    def test_paper_literal_merge_inflates_aggregate(self):
        """Pin the caveat: Kim's literal merge of a type-N block with
        duplicate inner values inflates a COUNT computed above it."""
        from tests.core.helpers import literal_nest_nj

        catalog = make_catalog([(1, 1), (1, 1)], [(1, 1, "1975-01-01")])
        aggregated_block = """
            SELECT COUNT(QUAN) FROM SUPPLY
            WHERE QUAN IN (SELECT QOH FROM PARTS X WHERE X.PNUM > 0)
        """
        ni = Engine(catalog).run(aggregated_block, method="nested_iteration")
        assert ni.result.rows == [(1,)]
        assert literal_nest_nj(catalog, aggregated_block) == [(2,)]
