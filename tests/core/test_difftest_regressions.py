"""Minimized regression cases from the SQLite differential tester.

Each case below was found by ``python -m repro difftest`` (or its
development-time probes) as a three-way divergence, shrunk by the
minimizer, and fixed in this revision.  They run through the same
:func:`~repro.difftest.runner.run_case` harness — nested iteration,
the transformation pipeline, and SQLite must all agree — and key
expected outputs are additionally pinned explicitly.
"""

from collections import Counter

import pytest

from repro.core.pipeline import Engine
from repro.difftest.grammar import Case
from repro.difftest.runner import run_case


def case(rows_t, rows_u, sql):
    return Case(rows={"T": rows_t, "U": rows_u}, sql=sql)


def check(c, expected=None):
    outcome = run_case(c)
    assert outcome.status == "ok", (
        f"{outcome.detail}\n{c.describe()}\n{outcome.results}"
    )
    assert not outcome.transform_skipped, "transform leg unexpectedly skipped"
    if expected is not None:
        engine = Engine(c.build_catalog())
        rows = engine.run(c.sql, method="transform").result.rows
        assert Counter(rows) == Counter(expected)


class TestCountOverNullOuterValue:
    """NEST-JA2's final `=` join silently dropped NULL outer values.

    The COUNT outer join keeps a TEMP3 group for a NULL outer value
    (CAGG = 0), but a plain equality in the rewritten query compares
    NULL = NULL → unknown, losing exactly the rows the outer join was
    added to preserve.  Fixed by making the final join null-safe
    (``<=>``) in the COUNT case.
    """

    def test_count_zero_for_null_outer_value(self):
        check(
            case(
                [(None, 0)],
                [],
                "SELECT T.A, T.B FROM T WHERE T.B = "
                "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A)",
            ),
            expected=[(None, 0)],
        )

    def test_null_outer_value_does_not_match_null_inner(self):
        # NULL never equi-joins a NULL inner value: the count for the
        # NULL outer group must stay 0 even when U.A holds NULLs.
        check(
            case(
                [(None, 0)],
                [(None, 7)],
                "SELECT T.A, T.B FROM T WHERE T.B = "
                "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A)",
            ),
            expected=[(None, 0)],
        )

    def test_count_star_with_null_outer_value(self):
        check(
            case(
                [(None, 0), (1, 1)],
                [(1, None)],
                "SELECT T.A, T.B FROM T WHERE T.B = "
                "(SELECT COUNT(*) FROM U WHERE U.A = T.A)",
            ),
            expected=[(None, 0), (1, 1)],
        )

    def test_not_exists_with_null_correlation_value(self):
        # NOT EXISTS rewrites to 0 = COUNT(*): same zero-group story.
        check(
            case(
                [(None, 0)],
                [(1, 1)],
                "SELECT T.A, T.B FROM T WHERE NOT EXISTS "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[(None, 0)],
        )


class TestExactQuantifierRewrites:
    """The paper's MIN/MAX ANY/ALL rewrites are not exact; the default
    counting rewrites must match three-valued semantics everywhere."""

    def test_all_over_empty_set_is_vacuously_true(self):
        check(
            case(
                [(1, 1)],
                [],
                "SELECT T.A, T.B FROM T WHERE T.B < ALL "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[(1, 1)],
        )

    def test_all_with_null_item_rejects(self):
        check(
            case(
                [(1, 1)],
                [(1, None), (1, 5)],
                "SELECT T.A, T.B FROM T WHERE T.B < ALL "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[],
        )

    def test_all_with_null_operand_rejects_unless_empty(self):
        check(
            case(
                [(1, None), (2, None)],
                [(1, 5)],
                "SELECT T.A, T.B FROM T WHERE T.B < ALL "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[(2, None)],  # its inner set is empty → vacuous
        )

    def test_any_with_null_operand_rejects(self):
        check(
            case(
                [(1, None)],
                [(1, 5)],
                "SELECT T.A, T.B FROM T WHERE T.B > ANY "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[],
        )

    def test_eq_all_is_transformable_in_exact_mode(self):
        check(
            case(
                [(1, 2), (2, 3)],
                [(1, 2), (1, 2), (2, 2)],
                "SELECT T.A, T.B FROM T WHERE T.B = ALL "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            ),
            expected=[(1, 2)],
        )


class TestExactAllWithThetaCorrelation:
    """The exact ALL rewrite on a non-equality correlation yields a
    COUNT aggregate whose TEMP3 join mixes *two* theta predicates under
    an outer join.  Applying the second predicate as a filter after the
    outer join dropped the NULL-padded zero-count groups; it now runs
    as an in-join residual.
    """

    def test_ge_all_with_le_correlation(self):
        check(
            case(
                [(0, 0), (2, 1), (None, 3)],
                [(1, 1), (3, 0), (None, None)],
                "SELECT T.A, T.B FROM T WHERE T.B >= ALL "
                "(SELECT U.C FROM U WHERE U.A <= T.A)",
            ),
            # T.A = NULL: U.A <= NULL is unknown for every row, so the
            # inner set is empty and ALL holds vacuously.
            expected=[(0, 0), (2, 1), (None, 3)],
        )

    def test_lt_any_with_gt_correlation(self):
        check(
            case(
                [(0, 0), (3, 1)],
                [(1, 1), (2, 0), (None, 4)],
                "SELECT T.A, T.B FROM T WHERE T.B < ANY "
                "(SELECT U.C FROM U WHERE U.A > T.A)",
            ),
            expected=[(0, 0)],
        )


class TestMultiplicities:
    def test_duplicate_outer_rows_survive_type_j(self):
        check(
            case(
                [(1, 1), (1, 1)],
                [(1, 0), (1, 2)],
                "SELECT T.A, T.B FROM T WHERE T.A IN (SELECT U.A FROM U)",
            ),
            expected=[(1, 1), (1, 1)],
        )

    def test_duplicate_inner_values_do_not_fan_out(self):
        check(
            case(
                [(1, 1)],
                [(1, 0), (1, 2), (1, 2)],
                "SELECT T.A, T.B FROM T WHERE T.A IN (SELECT U.A FROM U)",
            ),
            expected=[(1, 1)],
        )


class TestSemiJoinUnderEveryRoot:
    """An ``IN`` merged as a semi-join below whatever the root block
    does with its rows.  The rowid fix-up these replace staged an
    aggregated root's outer rows in one more temp and gave up on two
    outer tables (``TransformError``: the transform leg was skipped)."""

    #: T x (U as X) on A, the theta-correlated IN on top: several JTEMP
    #: rows match one outer pair, and outer pairs repeat.
    ROWS_T = [(1, 0), (2, 0), (2, 0), (2, 1), (None, 0)]
    ROWS_U = [(0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, None)]
    FROM_WHERE = (
        " FROM T, U X WHERE T.A = X.A AND "
        "T.B IN (SELECT U.C FROM U WHERE U.A < T.A)"
    )

    @pytest.mark.parametrize(
        "select,tail,expected",
        [
            ("SELECT COUNT(T.A)", "", [(8,)]),
            (
                "SELECT T.A, COUNT(*), SUM(X.C)", " GROUP BY T.A",
                [(1, 2, 1), (2, 6, 0)],
            ),
            (
                "SELECT T.A, COUNT(*)", " GROUP BY T.A HAVING COUNT(*) > 2",
                [(2, 6)],
            ),
            (
                "SELECT DISTINCT T.A, X.C", "",
                [(1, 0), (1, 1), (2, 0), (2, None)],
            ),
            (
                "SELECT T.A, T.B", " ORDER BY T.A",
                [(1, 0)] * 2 + [(2, 0)] * 4 + [(2, 1)] * 2,
            ),
        ],
        ids=["count", "group_by", "having", "distinct", "order_by"],
    )
    def test_two_outer_tables(self, select, tail, expected):
        check(
            case(self.ROWS_T, self.ROWS_U, select + self.FROM_WHERE + tail),
            expected=expected,
        )

    def test_value_identical_outer_rows_stay_distinct(self):
        """Two identical outer tuples both match three inner ones: two
        rows, not one (a DISTINCT would collapse them), not six."""
        check(
            case(
                [(1, 0), (1, 0)],
                [(1, 0), (1, 1), (1, 2)],
                "SELECT T.A, T.B FROM T WHERE T.A IN (SELECT U.A FROM U)",
            ),
            expected=[(1, 0), (1, 0)],
        )


class TestOrderByOnTransformedPlans:
    """ORDER BY referenced original table columns, but the result
    schema is labelled with output names; position lookup falls back to
    matching SELECT items.
    """

    def test_order_by_qualified_column_after_transform(self):
        c = case(
            [(2, 1), (1, 1), (None, 1)],
            [(1, 1), (2, 1), (None, 1)],
            "SELECT T.A, T.B FROM T WHERE T.A IN (SELECT U.A FROM U) "
            "ORDER BY T.A",
        )
        engine = Engine(c.build_catalog())
        ni = engine.run(c.sql, method="nested_iteration")
        tr = engine.run(c.sql, method="transform")
        assert ni.result.rows == tr.result.rows == [(1, 1), (2, 1)]


class TestHavingNodeRepertoire:
    """Both HAVING rewriters hand-copied a subset of the expression
    nodes: arithmetic, IN-lists and unary minus over an aggregate raised
    ``unsupported HAVING expression`` under transform, and those plus
    BETWEEN and IS NULL raised ``used outside aggregation context``
    under nested iteration.  They now state the nodes they change and
    leave the rest to ``map_children``.
    """

    ROWS = [(1, 1), (1, 2), (2, None), (3, 1), (3, 2), (3, 3)]

    @pytest.mark.parametrize(
        "having",
        [
            "COUNT(*) + 1 > 2",
            "COUNT(*) IN (2, 3)",
            "-COUNT(*) < -1",
            "COUNT(*) BETWEEN 2 AND 3",
            "SUM(T.B) IS NOT NULL",
        ],
    )
    def test_having_shape_agrees_with_sqlite(self, having):
        check(
            case(
                self.ROWS,
                [],
                f"SELECT T.A, COUNT(*) FROM T GROUP BY T.A HAVING {having}",
            ),
            expected=[(1, 2), (3, 3)],
        )

    def test_having_literal_through_the_plan_cache(self):
        """``execute_cached`` turns the literal into a parameter, a leaf
        the transform-side rewriter did not know either."""
        from repro import Database

        db = Database()
        db.create_table("T", ["A", "B"])
        db.insert("T", self.ROWS)
        sql = "SELECT T.A, COUNT(*) FROM T GROUP BY T.A HAVING COUNT(*) > {}"
        assert Counter(db.execute_cached(sql.format(1)).result.rows) == Counter(
            [(1, 2), (3, 3)]
        )
        assert db.execute_cached(sql.format(2)).result.rows == [(3, 3)]
        assert db.cache_stats().hits == 1


class TestTypeABlockOverASemiTable:
    """NEST-A evaluates a type-A block after NEST-G merged the block's
    own correlated ``IN`` as a ``SEMI`` table.  Nested iteration, which
    evaluated value links once, joined that table plainly, so the
    duplicate-free ``JTEMP(J1, C1)`` fanned out below COUNT: transform
    answered 10 where SQLite answers 7.  The block now runs on the
    single-level executor, whose semi-join puts out each row of the
    tables before it at most once."""

    ROWS_T = [(i, i) for i in range(20)]
    ROWS_U = [
        (6, 3), (0, 2), (8, 3), (6, 2), (7, 2), (9, 1),
        (8, 1), (4, 1), (1, 4), (4, 4), (9, 1), (4, 0),
    ]
    COUNT = (
        "(SELECT COUNT(U.C) FROM U WHERE U.C IN "
        "(SELECT U2.C FROM U U2 WHERE U2.A {op} U.A))"
    )

    @pytest.mark.parametrize(
        "op, expected", [("<", [(7,)]), ("<=>", [(12,)]), ("<=", [(12,)])]
    )
    def test_one_outer_table(self, op, expected):
        check(
            case(
                self.ROWS_T,
                self.ROWS_U,
                "SELECT T.A FROM T WHERE T.B = " + self.COUNT.format(op=op),
            ),
            expected=expected,
        )

    def test_two_outer_tables(self):
        check(
            case(
                self.ROWS_T,
                self.ROWS_U,
                "SELECT T.A, X.C FROM T, U X WHERE T.A = X.A AND T.B < "
                + self.COUNT.format(op="<"),
            ),
            expected=[(0, 2), (1, 4), (4, 0), (4, 1), (4, 4), (6, 2), (6, 3)],
        )

    @pytest.mark.parametrize("method", ["nested_iteration", "transform"])
    def test_a_user_statement_may_not_carry_semi(self, method):
        from repro.errors import ReproError

        engine = Engine(case(self.ROWS_T, self.ROWS_U, "").build_catalog())
        with pytest.raises(ReproError, match="cannot mark a table"):
            engine.run("SELECT T.A FROM T, SEMI U WHERE T.A = U.A", method=method)


class TestKnownDivergences:
    """Correctness gaps, tracked as strict xfails so tier-1 notices
    when one closes; a closed one stays as an ordinary regression.

    A type-J block reaching past its type-JA parent to the root: the
    flat NEST-N-J merge inside the aggregated block fanned out on
    duplicate inner values and inflated COUNT ("known divergences" in
    benchmarks/suite/README.md) until type-J got the duplicate-free
    inner temp type-N already had — matched on all its columns by strict
    equalities, it has at most one partner a row.
    """

    def test_type_j_block_reaching_root_inside_type_ja(self):
        # COUNT is 2 (both U rows qualify); the flat merge counted each
        # once per matching U2 row and got 4.
        check(
            case(
                [(0, 2)],
                [(0, 0), (0, 0)],
                "SELECT T.A, T.B FROM T WHERE T.B = "
                "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A AND U.C IN "
                "(SELECT U2.C FROM U U2 WHERE U2.A = T.A AND U2.C < 2))",
            ),
            expected=[(0, 2)],
        )

    @pytest.mark.xfail(
        strict=True,
        reason="still open: a type-J block theta-correlated past its "
        "type-JA parent — NEST-JA2 must project JTEMP's correlation "
        "column, so the semi mark is cleared and the plain join fans out "
        "below the COUNT",
    )
    def test_theta_type_j_block_inside_type_ja(self):
        # For T.A = 2 both U rows qualify (COUNT 2); the merge counts
        # each once per distinct (U2.A, U2.C) below 2 and gets 4.
        check(
            case(
                [(1, 2), (2, 2)],
                [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0), (2, 0)],
                "SELECT T.A, T.B FROM T WHERE T.B = "
                "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A AND U.C IN "
                "(SELECT U2.C FROM U U2 WHERE U2.A < T.A))",
            ),
            expected=[(1, 2), (2, 2)],
        )

    @pytest.mark.parametrize("join_method", ["merge", "hash", "nested"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_suite_instance(self, seed, join_method):
        """The 50 PARTS / 200 SUPPLY instances of the benchmark README
        (seeds 2-5 came out a row short before: 8 against 9, 3 against
        4): transform, nested iteration and SQLite agree."""
        import random

        from repro import Database
        from repro.difftest.oracle import SQLiteOracle
        from repro.sql.parser import parse

        # benchmarks/suite/workloads.py: workload_rng / make_instance.
        rng = random.Random(f"{seed}:div")
        parts = [(pnum, rng.randrange(0, 8)) for pnum in range(1, 51)]
        supply = []
        for _ in range(200):
            pnum = rng.randrange(1, 56)
            date = (
                f"{rng.randrange(1977, 1985)}-{rng.randrange(1, 13):02d}"
                f"-{rng.randrange(1, 29):02d}"
            )
            supply.append((pnum, rng.randrange(1, 8), date))
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) "
            "FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN IN "
            "(SELECT QUAN FROM SUPPLY S2 WHERE S2.PNUM = PARTS.PNUM "
            "AND S2.SHIPDATE < '1980-01-15'))"
        )
        db = Database(buffer_pages=32, join_method=join_method)
        db.create_table("PARTS", ["PNUM", "QOH"], rows_per_page=10)
        db.create_table(
            "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
        )
        db.insert("PARTS", parts)
        db.insert("SUPPLY", supply)
        with SQLiteOracle(db.catalog) as shadow:
            oracle = Counter(shadow.run(parse(sql)))
        transformed = db.run(sql, method="transform").result.rows
        iterated = db.run(sql, method="nested_iteration").result.rows
        assert Counter(transformed) == Counter(iterated) == oracle
