"""Tests for the interactive shell (python -m repro)."""

import io

import pytest

from repro.__main__ import Shell, repl


def run_session(lines):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    code = repl(stdin=stdin, stdout=stdout)
    return code, stdout.getvalue()


class TestShellCommands:
    def test_banner_and_quit(self):
        code, out = run_session(["\\quit"])
        assert code == 0
        assert "Nested SQL Queries" in out

    def test_help(self):
        _, out = run_session(["\\help", "\\quit"])
        assert "\\load kiessling" in out

    def test_unknown_command(self):
        _, out = run_session(["\\frobnicate", "\\quit"])
        assert "unknown command" in out

    def test_load_and_tables(self):
        _, out = run_session(["\\load kiessling", "\\tables", "\\quit"])
        assert "PARTS(PNUM, QOH)" in out
        assert "SUPPLY(PNUM, QUAN, SHIPDATE)" in out

    def test_load_unknown_instance(self):
        _, out = run_session(["\\load narnia", "\\quit"])
        assert "unknown instance" in out

    def test_method_switch_and_validation(self):
        _, out = run_session(["\\method cost", "\\method teleport", "\\quit"])
        assert "evaluation method: cost" in out
        assert "method must be" in out

    def test_join_switch(self):
        _, out = run_session(["\\join nested", "\\join sideways", "\\quit"])
        assert "join method: nested" in out
        assert "join method must be" in out

    def test_join_hash_reaches_the_executor_and_typo_leaves_config_alone(self):
        out = io.StringIO()
        shell = Shell(out=out)
        shell.handle("\\load kiessling")
        shell.handle("\\join hash")
        assert "join method: hash" in out.getvalue()
        configured = shell.db.engine.config
        assert configured.join_method == "hash"
        report = shell.db.run(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) "
            "FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
            method="transform",
        )
        assert report.join_method == "hash"
        assert any("hash join" in step for step in report.steps)
        shell.handle("\\join nope")
        assert "join method must be merge | nested | hash" in out.getvalue()
        assert shell.db.engine.config is configured

    def test_io_and_reset(self):
        _, out = run_session(["\\io", "\\reset", "\\quit"])
        assert "page I/Os" in out
        assert "counters zeroed" in out

    def test_analyze(self):
        _, out = run_session(["\\load kiessling", "\\analyze", "\\quit"])
        assert "statistics collected for all tables" in out

    def test_analyze_single_table(self):
        _, out = run_session(
            ["\\load kiessling", "\\analyze parts", "\\quit"]
        )
        assert "statistics collected for PARTS" in out

    def test_plan(self):
        _, out = run_session(
            [
                "\\load kiessling",
                "\\plan SELECT PNUM FROM PARTS WHERE QOH = "
                "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
                "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01');",
            ]
        )
        assert "chosen:" in out
        assert "nested_iteration" in out

    def test_plan_usage_message(self):
        _, out = run_session(["\\plan", "\\quit"])
        assert "usage: \\plan" in out


class TestShellStatements:
    def test_multiline_select(self):
        _, out = run_session(
            [
                "\\load kiessling",
                "SELECT PNUM FROM PARTS",
                "WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY",
                "             WHERE SUPPLY.PNUM = PARTS.PNUM",
                "               AND SHIPDATE < '1980-01-01');",
            ]
        )
        assert "8" in out and "10" in out
        assert "2 row(s)" in out

    def test_ddl_dml_cycle(self):
        _, out = run_session(
            [
                "CREATE TABLE T (A INT);",
                "INSERT INTO T VALUES (1), (2);",
                "SELECT A FROM T;",
                "DROP TABLE T;",
            ]
        )
        assert "created table T" in out
        assert "inserted 2 row(s)" in out
        assert "dropped table T" in out

    def test_error_is_reported_not_raised(self):
        _, out = run_session(["SELECT A FROM NOPE;"])
        assert "error:" in out

    def test_explain(self):
        _, out = run_session(
            [
                "\\load kiessling",
                "\\explain SELECT PNUM FROM PARTS WHERE QOH = "
                "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
                "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-01-01');",
            ]
        )
        assert "NEST-JA2" in out
        assert "canonical query" in out

    def test_empty_result_prints_zero_rows(self):
        _, out = run_session(
            ["\\load kiessling", "SELECT PNUM FROM PARTS WHERE QOH > 99;"]
        )
        assert "(0 row(s)" in out

    def test_trailing_statement_without_newline_flush(self):
        # A final statement lacking the ';' terminator is still executed
        # when stdin ends.
        _, out = run_session(["\\load kiessling", "SELECT PNUM FROM PARTS"])
        assert "3" in out
