"""The differential runner, the shrinker, and the CLI."""

from repro.difftest.grammar import Case, CaseGenerator, TABLES
from repro.difftest.minimize import minimize_case
from repro.difftest.runner import main, run_case, run_difftest


def make_case(rows_t, rows_u, sql):
    return Case(rows={"T": rows_t, "U": rows_u}, sql=sql)


class TestRunCase:
    def test_agreeing_case_is_ok(self):
        outcome = run_case(
            make_case(
                [(1, 2)], [(1, 2)], "SELECT T.A, T.B FROM T WHERE T.A = 1"
            )
        )
        assert outcome.status == "ok"
        assert not outcome.failed

    def test_correlated_not_in_skips_transform_leg(self):
        outcome = run_case(
            make_case(
                [(1, 2)],
                [(1, 2)],
                "SELECT T.A, T.B FROM T WHERE T.B <> ALL "
                "(SELECT U.C FROM U WHERE U.A = T.A)",
            )
        )
        assert outcome.status == "ok"
        assert outcome.transform_skipped

    def test_result_bags_cover_every_leg(self):
        outcome = run_case(
            make_case([(1, 2)], [], "SELECT T.A, T.B FROM T")
        )
        assert set(outcome.results) == {
            "sqlite",
            "nested_iteration",
            "transform[merge]",
            "transform[nested]",
            "transform[hash]",
        }

    def test_join_methods_are_selectable(self):
        outcome = run_case(
            make_case([(1, 2)], [], "SELECT T.A, T.B FROM T"),
            join_methods=("hash",),
        )
        assert outcome.status == "ok"
        assert set(outcome.results) == {
            "sqlite",
            "nested_iteration",
            "transform[hash]",
        }


class TestGenerator:
    def test_same_seed_same_cases(self):
        first = [CaseGenerator(7).case(i).sql for i in range(20)]
        second = [CaseGenerator(7).case(i).sql for i in range(20)]
        assert first == second

    def test_case_tables_match_declared_layout(self):
        case = CaseGenerator(1).case(0)
        assert set(case.rows) == set(TABLES)
        for name, rows in case.rows.items():
            assert all(len(row) == len(TABLES[name]) for row in rows)

    def test_grammar_covers_required_classes(self):
        generator = CaseGenerator(0)
        sqls = " | ".join(generator.case(i).sql for i in range(300))
        for marker in (
            "NOT IN",
            " IN (",
            "EXISTS",
            "ANY",
            "ALL",
            "COUNT(*)",
            "DISTINCT",
            "GROUP BY",
            # type-J IN the ways a flat merge gets wrong (ROADMAP 8c) ...
            "<=> T.B",
            " OR U.A",
            "SELECT U.A + T.B FROM U",
            "SELECT T.B FROM U",
            # ... under every kind of root, over one outer table or two.
            "FROM T, U X WHERE",
            ") FROM T, U X WHERE",
            "X.A GROUP BY T.A",
            # A type-A block over an IN correlated to that block.
            "FROM U WHERE U.C IN (SELECT U2.C FROM U U2 WHERE",
        ):
            assert marker in sqls, f"grammar never produced {marker}"
        assert any(
            f"U.C {op} T.B" in sqls for op in ("<", "<=", ">", ">=", "<>")
        )
        has_null = any(
            value is None
            for i in range(20)
            for rows in CaseGenerator(i).case(0).rows.values()
            for row in rows
            for value in row
        )
        assert has_null


class TestEveryInMergeIsASemiJoin:
    def test_one_rule_over_the_corpus(self):
        """Walk ``plan.setup`` and ``plan.final_query`` of every case the
        grammar draws: outside DISTINCT definitions and the NEST-JA2
        projection case, an inner temp is a semi table — and nothing
        else ever is."""
        from repro.core.pipeline import Engine
        from repro.errors import TransformError
        from repro.sql.parser import parse
        from tests.core.helpers import assert_in_merges_are_semi

        generator = CaseGenerator(0)
        semi_tables = planned = 0
        for index in range(200):
            case = generator.case(index)
            try:
                plan = Engine(case.build_catalog()).plan(
                    parse(case.sql), "transform"
                )
            except TransformError:
                continue  # correlated NOT IN
            planned += 1
            semi_tables += len(assert_in_merges_are_semi(plan))
        assert planned > 190 and semi_tables > 30


class TestMinimize:
    def test_shrinks_rows_to_the_failing_core(self):
        # Failure predicate: table U still contains a NULL in column C.
        case = make_case(
            [(1, 2), (3, 4)],
            [(1, None), (2, 2), (3, 3)],
            "SELECT T.A, T.B FROM T",
        )

        def still_fails(candidate):
            return any(c is None for _, c in candidate.rows["U"])

        shrunk = minimize_case(case, still_fails)
        assert shrunk.rows["T"] == []
        assert shrunk.rows["U"] == [(0, None)]

    def test_fixpoint_on_already_minimal_case(self):
        case = make_case([], [(0, None)], "SELECT T.A, T.B FROM T")

        def still_fails(candidate):
            return any(c is None for _, c in candidate.rows["U"])

        assert minimize_case(case, still_fails).rows == case.rows


class TestBoundedRun:
    def test_small_run_is_clean(self):
        report = run_difftest(examples=60, seed=0)
        assert report.clean, [f.detail for f in report.failures]
        assert report.examples == 60

    def test_cli_exit_code_and_summary(self, capsys):
        code = main(["--examples", "25", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "25 examples" in out
