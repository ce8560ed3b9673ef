"""Tests for ``python -m repro check`` (the static-analysis CLI)."""

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.check import (
    FIGURE1_WORKLOAD,
    INSTANCES,
    check_query,
    main as check_main,
)
from repro.analysis.lint import lint_transform
from repro.core.nest_ja import kim_nest_g, naive_outer_nest_g

from tests.core.helpers import transform_with


def figure1_lint_rules(algorithm) -> set[str]:
    """The lint rules firing on ``algorithm``'s plans of the paper's
    workload — a section 5 demonstrator's, which ``check`` never builds."""
    rules: set[str] = set()
    for _title, instance, sql in FIGURE1_WORKLOAD:
        catalog = INSTANCES[instance]()
        transform = transform_with(catalog, sql, algorithm)
        rules.update(lint_transform(transform, catalog).rules())
    return rules


class TestFigure1:
    def test_ja2_is_clean_and_exits_zero(self, capsys):
        assert check_main(["--figure1"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "KB0" not in out

    def test_kim_flags_the_count_and_operator_bugs(self):
        assert {"KB001", "KB002"} <= figure1_lint_rules(kim_nest_g)
        # No option picks a buggy algorithm: it is a function, not a mode.
        with pytest.raises(SystemExit):
            check_main(["--figure1", "--ja", "kim"])

    def test_kim_outer_flags_the_duplicates_bug(self):
        assert "KB003" in figure1_lint_rules(naive_outer_nest_g)


class TestSingleQueries:
    def test_bad_column_prints_span_diagnostic(self, capsys):
        assert check_main(["SELECT NOPE FROM PARTS"]) == 1
        out = capsys.readouterr().out
        assert "PV001" in out
        assert "^" in out  # caret snippet under the offending column

    def test_clean_query_exits_zero(self, capsys):
        assert check_main(["SELECT PNUM FROM PARTS"]) == 0
        out = capsys.readouterr().out
        assert "PNUM: int NOT NULL" in out

    def test_sql_file_argument(self, tmp_path, capsys):
        path = tmp_path / "q.sql"
        path.write_text("SELECT PNUM FROM PARTS\n")
        assert check_main([str(path)]) == 0
        assert "q.sql" in capsys.readouterr().out

    def test_instance_selection(self, capsys):
        code = check_main(
            ["--instance", "suppliers", "SELECT SNO FROM S"]
        )
        assert code == 0

    def test_no_queries_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            check_main([])


class TestDispatch:
    def test_module_main_routes_check(self, capsys):
        assert repro_main(["check", "SELECT PNUM FROM PARTS"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_unknown_subcommand_mentions_check(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        assert "check" in capsys.readouterr().err


class TestCheckQueryApi:
    def test_returns_findings_and_report_lines(self):
        from repro.workloads.paper_data import KIESSLING_Q2

        findings, lines = check_query(KIESSLING_Q2)
        assert not findings
        assert any("temp" in line for line in lines)

    def test_errors_short_circuit_before_transform(self):
        findings, lines = check_query("SELECT NOPE FROM PARTS")
        assert findings.errors
        assert lines == []

    def test_transform_not_applicable_is_reported_not_raised(self):
        # An uncorrelated flat query has nothing to transform; check
        # still succeeds with a note instead of failing.
        findings, lines = check_query("SELECT PNUM FROM PARTS WHERE QOH > 1")
        assert not findings.errors
