"""End-to-end SQL NULL semantics for aggregates.

Pins the standard's aggregate NULL rules through *both* evaluation
strategies: COUNT(c) skips NULLs while COUNT(*) counts rows; SUM / AVG
/ MIN / MAX over an all-NULL (or empty) group yield NULL; and the
transformed type-JA plans must agree with nested iteration on all of
it.
"""

from collections import Counter

from repro.core.pipeline import Engine
from repro.workloads.paper_data import fresh_catalog
from repro.catalog.schema import schema


def make_catalog():
    catalog = fresh_catalog()
    catalog.create_table(schema("T", "G", "V"))
    catalog.insert(
        "T",
        [
            (1, 10),
            (1, None),
            (2, None),
            (2, None),
            (None, 5),
        ],
    )
    return catalog


def run_both(catalog, sql):
    engine = Engine(catalog)
    ni = engine.run(sql, method="nested_iteration")
    tr = engine.run(sql, method="auto")
    assert Counter(ni.result.rows) == Counter(tr.result.rows)
    return ni.result.rows


class TestFlatAggregates:
    def test_count_column_skips_nulls_count_star_does_not(self):
        catalog = make_catalog()
        assert run_both(catalog, "SELECT COUNT(V) FROM T") == [(2,)]
        assert run_both(catalog, "SELECT COUNT(*) FROM T") == [(5,)]

    def test_sum_avg_min_max_ignore_nulls(self):
        catalog = make_catalog()
        assert run_both(catalog, "SELECT SUM(V) FROM T") == [(15,)]
        assert run_both(catalog, "SELECT AVG(V) FROM T") == [(7.5,)]
        assert run_both(catalog, "SELECT MIN(V), MAX(V) FROM T") == [(5, 10)]

    def test_aggregates_over_empty_input(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "G", "V"))
        assert run_both(catalog, "SELECT COUNT(V) FROM T") == [(0,)]
        assert run_both(catalog, "SELECT SUM(V) FROM T") == [(None,)]
        assert run_both(catalog, "SELECT MAX(V) FROM T") == [(None,)]


class TestGroupedAggregates:
    def test_all_null_group_yields_null_for_sum(self):
        rows = run_both(
            make_catalog(), "SELECT G, SUM(V) FROM T GROUP BY G"
        )
        assert Counter(rows) == Counter(
            [(1, 10), (2, None), (None, 5)]
        )

    def test_count_column_in_all_null_group_is_zero(self):
        rows = run_both(
            make_catalog(), "SELECT G, COUNT(V), COUNT(*) FROM T GROUP BY G"
        )
        assert Counter(rows) == Counter(
            [(1, 1, 2), (2, 0, 2), (None, 1, 1)]
        )


class TestTransformedTypeJA:
    def make_pair(self):
        catalog = fresh_catalog()
        catalog.create_table(schema("T", "A", "B"))
        catalog.create_table(schema("U", "A", "C"))
        catalog.insert("T", [(1, 0), (2, 0), (3, 1)])
        catalog.insert("U", [(1, None), (3, None), (3, 4)])
        return catalog

    def test_count_column_vs_count_star_through_transform(self):
        catalog = self.make_pair()
        # COUNT(U.C) skips the NULL supply rows; parts 1 and 2 have
        # zero non-NULL matches.
        rows = run_both(
            catalog,
            "SELECT T.A FROM T WHERE T.B = "
            "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A)",
        )
        assert Counter(rows) == Counter([(1,), (2,), (3,)])
        rows = run_both(
            catalog,
            "SELECT T.A FROM T WHERE T.B = "
            "(SELECT COUNT(*) FROM U WHERE U.A = T.A)",
        )
        assert Counter(rows) == Counter([(2,)])

    def test_max_over_all_null_matches_is_null(self):
        catalog = self.make_pair()
        # Part 1's only match has a NULL C: MAX = NULL, comparison
        # unknown, row rejected — by both strategies.
        rows = run_both(
            catalog,
            "SELECT T.A FROM T WHERE T.B < "
            "(SELECT MAX(U.C) FROM U WHERE U.A = T.A)",
        )
        assert Counter(rows) == Counter([(3,)])
