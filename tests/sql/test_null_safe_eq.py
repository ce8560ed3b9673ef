"""The null-safe equality operator ``<=>`` across the SQL front end."""

import pytest

from repro.engine.expression import EvalContext
from repro.engine.schema import RowSchema
from repro.sql.ast import Comparison
from repro.sql.parser import parse, parse_expression
from repro.sql.printer import to_sql
from tests.expression_oracle import eval_predicate, null_safe_equal


class TestParsing:
    def test_parses_to_null_safe_comparison(self):
        expr = parse_expression("A <=> B")
        assert isinstance(expr, Comparison)
        assert expr.op == "="
        assert expr.null_safe

    def test_lexes_longest_operator_first(self):
        # "<=" must not swallow the "<=>" token.
        expr = parse_expression("A <= B")
        assert expr.op == "<=" and not expr.null_safe

    def test_round_trips_through_printer(self):
        sql = "SELECT A FROM T WHERE T.A <=> T.B"
        assert to_sql(parse(sql)) == sql

    def test_null_safe_flag_survives_qualification(self):
        from repro.sql.qualify import qualify

        select = parse("SELECT A FROM T WHERE A <=> B")
        qualified = qualify(select, {"T": ("A", "B")}.get)
        assert qualified.where.null_safe

    def test_ast_rejects_null_safe_on_other_operators(self):
        from repro.sql.ast import ColumnRef

        with pytest.raises(ValueError):
            Comparison(
                ColumnRef("T", "A"), "<", ColumnRef("T", "B"), null_safe=True
            )


class TestEvaluation:
    @pytest.mark.parametrize(
        "left,right,expected",
        [
            (None, None, True),
            (None, 1, False),
            (1, None, False),
            (1, 1, True),
            (1, 2, False),
        ],
    )
    def test_null_safe_equal_truth_table(self, left, right, expected):
        assert null_safe_equal(left, right) is expected

    def test_predicate_evaluation_is_two_valued(self):
        schema = RowSchema([("T", "A"), ("T", "B")])
        expr = parse_expression("T.A <=> T.B")
        assert eval_predicate(expr, EvalContext((None, None), schema)) is True
        assert eval_predicate(expr, EvalContext((None, 1), schema)) is False
        # Contrast: plain = is unknown on NULL.
        plain = parse_expression("T.A = T.B")
        assert eval_predicate(plain, EvalContext((None, 1), schema)) is None
