"""An ``IN`` merge keeps the outer rows' multiplicities.

The paper's NEST-N-J follows Kim's Lemma 1, a *set*-semantics statement:
an outer tuple matching several inner tuples is emitted several times.
Modern optimizers unnest IN-subqueries as semijoins instead, and so
does NEST-G: the inner temp is merged as a ``SEMI`` table, so an outer
tuple comes out once however many inner tuples match it — also when
outer rows are value-identical, and below an aggregate.  (The module
keeps the name of the rowid fix-up that used to repair the fan-out
after the fact.)
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.workloads.paper_data import (
    TYPE_J_QUERY,
    fresh_catalog,
    load_supplier_parts,
)
from tests.core.helpers import literal_nest_nj


def tu_catalog(t_rows, u_rows):
    catalog = fresh_catalog()
    catalog.create_table(schema("T", "A", "V"), rows_per_page=2)
    catalog.create_table(schema("U", "B", "W"), rows_per_page=2)
    catalog.insert("T", t_rows)
    catalog.insert("U", u_rows)
    return catalog


class TestDedupeOuter:
    def test_type_j_multiplicities_restored(self):
        catalog = load_supplier_parts()
        engine = Engine(catalog)
        ni = engine.run(TYPE_J_QUERY, method="nested_iteration")
        tr = engine.run(TYPE_J_QUERY, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_without_fix_multiplicities_inflate(self):
        """The caveat, by calling Kim's literal algorithm."""
        catalog = load_supplier_parts()
        ni = Engine(catalog).run(TYPE_J_QUERY, method="nested_iteration")
        assert len(literal_nest_nj(catalog, TYPE_J_QUERY)) > len(ni.result.rows)

    def test_value_identical_outer_rows_stay_distinct(self):
        """Two identical outer tuples both match: two output rows, not
        one (plain DISTINCT would collapse them) and not six (the raw
        join would fan each out three ways)."""
        catalog = tu_catalog([(1, 0), (1, 0)], [(1, 0), (1, 1), (1, 2)])
        engine = Engine(catalog)
        sql = "SELECT A FROM T WHERE A IN (SELECT B FROM U)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert ni.result.rows == [(1,), (1,)]
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_correlated_type_j(self):
        catalog = tu_catalog(
            [(1, 5), (2, 5), (3, 9)],
            [(1, 5), (1, 5), (2, 5), (3, 0)],
        )
        engine = Engine(catalog)
        sql = "SELECT A FROM T WHERE V IN (SELECT W FROM U WHERE U.B = T.A)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)

    def test_no_rewrite_when_no_fanout_merge(self):
        """Type-JA plans join a grouped temp (one row per key): no
        fan-out, no semi table, identical results."""
        catalog = tu_catalog([(1, 2)], [(1, 5), (1, 7)])
        engine = Engine(catalog)
        sql = "SELECT A FROM T WHERE V = (SELECT COUNT(W) FROM U WHERE U.B = T.A)"
        report = engine.run(sql, method="transform")
        assert report.canonical_sql is not None
        assert "SEMI" not in report.canonical_sql
        assert report.result.rows == [(1,)]

    def test_aggregated_root_count(self):
        """COUNT over the outer relation sees each outer row once: the
        semi-join below it has no fan-out to inflate it."""
        catalog = tu_catalog([(1, 0), (2, 0), (9, 0)], [(1, 0), (1, 1), (2, 0)])
        engine = Engine(catalog)
        sql = "SELECT COUNT(*) FROM T WHERE A IN (SELECT B FROM U)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert ni.result.rows == [(2,)]
        assert tr.result.rows == [(2,)]

    def test_aggregated_root_without_fix_inflates(self):
        catalog = tu_catalog([(1, 0), (2, 0)], [(1, 0), (1, 1), (2, 0)])
        sql = "SELECT COUNT(*) FROM T WHERE A IN (SELECT B FROM U)"
        # Kim's literal merge: inflated, 2 matches + 1.
        assert literal_nest_nj(catalog, sql) == [(3,)]

    def test_aggregated_root_group_by(self):
        catalog = tu_catalog(
            [(1, 5), (1, 6), (2, 7), (3, 0)],
            [(1, 0), (1, 1), (2, 0)],
        )
        engine = Engine(catalog)
        sql = (
            "SELECT A, COUNT(*), SUM(V) FROM T "
            "WHERE A IN (SELECT B FROM U) GROUP BY A"
        )
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
        assert Counter(ni.result.rows) == Counter([(1, 2, 11), (2, 1, 7)])

    def test_aggregated_root_multi_table_rejected(self):
        """The rowid fix-up gave up on an aggregated root over two outer
        tables (``TransformError``); a semi-join needs no staging temp,
        so it is an ordinary plan with the nested-iteration answer."""
        catalog = tu_catalog([(1, 0), (1, 0)], [(1, 0), (1, 1)])
        from repro.catalog.schema import schema as make_schema

        catalog.create_table(make_schema("W2", "C"))
        catalog.insert("W2", [(1,), (1,), (2,)])
        report = Engine(catalog).run(
            "SELECT COUNT(*) FROM T, W2 WHERE T.A = W2.C AND "
            "T.A IN (SELECT B FROM U)",
            method="transform",
        )
        assert report.result.rows == [(4,)]  # 2 T rows x 2 W2 rows, once each

    def test_facade_exposes_option(self):
        """No option left to expose: the default is the semi-join, and
        the retired keywords are rejected."""
        from repro import Database

        for retired in ("dedupe_inner", "dedupe_outer"):
            with pytest.raises(TypeError):
                Database(**{retired: True})
            with pytest.raises(TypeError):
                Engine(fresh_catalog(), **{retired: True})
        db = Database()
        db.create_table("T", ["A"])
        db.create_table("U", ["B"])
        db.insert("T", [(1,)])
        db.insert("U", [(1,), (1,)])
        result = db.query(
            "SELECT A FROM T WHERE A IN (SELECT B FROM U)", method="transform"
        )
        assert result.rows == [(1,)]


class TestDedupeOuterProperty:
    @given(
        t_rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
        ),
        u_rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_correlated_in_equivalence(self, t_rows, u_rows):
        catalog = tu_catalog(t_rows, u_rows)
        engine = Engine(catalog)
        sql = "SELECT A, V FROM T WHERE V IN (SELECT W FROM U WHERE U.B = T.A)"
        ni = engine.run(sql, method="nested_iteration")
        tr = engine.run(sql, method="transform")
        assert Counter(tr.result.rows) == Counter(ni.result.rows)
