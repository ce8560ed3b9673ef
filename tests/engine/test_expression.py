"""Unit tests for the expression oracle: scalar/predicate evaluation and
three-valued logic."""

import pytest

from repro.engine.expression import EvalContext
from repro.engine.schema import RowSchema
from repro.errors import BindError, ExecutionError
from repro.sql.parser import parse_expression
from tests.expression_oracle import (
    compare_values,
    eval_predicate,
    eval_scalar,
    sql_and,
    sql_not,
    sql_or,
)


def ctx(values=(), fields=(), outer=None):
    return EvalContext(tuple(values), RowSchema(fields), outer=outer)


def scalar(source, values=(), fields=()):
    return eval_scalar(parse_expression(source), ctx(values, fields))


def pred(source, values=(), fields=()):
    return eval_predicate(parse_expression(source), ctx(values, fields))


class TestThreeValuedConnectives:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (True, True, True),
            (True, False, False),
            (False, None, False),
            (True, None, None),
            (None, None, None),
        ],
    )
    def test_and(self, a, b, expected):
        assert sql_and(a, b) == expected
        assert sql_and(b, a) == expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (True, True, True),
            (True, False, True),
            (False, None, None),
            (True, None, True),
            (None, None, None),
            (False, False, False),
        ],
    )
    def test_or(self, a, b, expected):
        assert sql_or(a, b) == expected
        assert sql_or(b, a) == expected

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None


class TestCompareValues:
    def test_null_is_unknown(self):
        assert compare_values("=", None, 1) is None
        assert compare_values("<", 1, None) is None
        assert compare_values("<>", None, None) is None

    def test_numeric(self):
        assert compare_values("<", 1, 2) is True
        assert compare_values(">=", 2.5, 2) is True
        assert compare_values("=", 2, 2.0) is True

    def test_strings(self):
        assert compare_values("<", "1979-07-03", "1980-01-01") is True
        assert compare_values("=", "A", "A") is True

    def test_type_mismatch_raises(self):
        with pytest.raises(ExecutionError):
            compare_values("=", 1, "1")


class TestScalars:
    def test_literal(self):
        assert scalar("42") == 42
        assert scalar("3.5") == 3.5
        assert scalar("'x'") == "x"
        assert scalar("NULL") is None

    def test_column_resolution(self):
        assert scalar("QOH", values=(3, 6), fields=[("PARTS", "PNUM"), ("PARTS", "QOH")]) == 6

    def test_qualified_column_resolution(self):
        value = scalar(
            "PARTS.PNUM",
            values=(3, 6),
            fields=[("PARTS", "PNUM"), ("PARTS", "QOH")],
        )
        assert value == 3

    def test_unresolvable_column_raises(self):
        with pytest.raises(BindError):
            scalar("NOPE", values=(1,), fields=[("T", "A")])

    def test_ambiguous_column_raises(self):
        with pytest.raises(BindError):
            scalar("A", values=(1, 2), fields=[("T", "A"), ("U", "A")])

    def test_outer_context_resolution(self):
        outer = ctx(values=(3, 6), fields=[("PARTS", "PNUM"), ("PARTS", "QOH")])
        inner = outer.child((3, 4, "d"), RowSchema(
            [("SUPPLY", "PNUM"), ("SUPPLY", "QUAN"), ("SUPPLY", "SHIPDATE")]
        ))
        expr = parse_expression("PARTS.PNUM")
        assert eval_scalar(expr, inner) == 3

    def test_inner_shadows_outer(self):
        outer = ctx(values=(1,), fields=[("T", "A")])
        inner = outer.child((2,), RowSchema([("U", "A")]))
        assert eval_scalar(parse_expression("A"), inner) == 2

    def test_arithmetic(self):
        assert scalar("1 + 2 * 3") == 7
        assert scalar("(1 + 2) * 3") == 9
        assert scalar("-(4 - 1)") == -3
        assert scalar("7 / 2") == 3.5

    def test_arithmetic_null_propagates(self):
        assert scalar("1 + NULL") is None
        assert scalar("-NULL") is None

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            scalar("1 / 0")

    def test_arithmetic_on_string_raises(self):
        with pytest.raises(ExecutionError):
            scalar("'a' + 1")

    def test_aggregate_outside_group_raises(self):
        with pytest.raises(ExecutionError):
            scalar("MAX(1)")

    def test_subquery_without_handler_raises(self):
        with pytest.raises(ExecutionError):
            pred("1 = (SELECT MAX(A) FROM T)")


class TestPredicates:
    def test_comparisons(self):
        assert pred("1 < 2") is True
        assert pred("2 < 1") is False
        assert pred("NULL = NULL") is None

    def test_and_or_not(self):
        assert pred("1 = 1 AND 2 = 2") is True
        assert pred("1 = 2 OR 2 = 2") is True
        assert pred("NOT 1 = 2") is True
        assert pred("1 = 1 AND NULL = 1") is None
        assert pred("1 = 1 OR NULL = 1") is True
        assert pred("1 = 2 AND NULL = 1") is False

    def test_is_null(self):
        assert pred("NULL IS NULL") is True
        assert pred("1 IS NULL") is False
        assert pred("1 IS NOT NULL") is True
        assert pred("NULL IS NOT NULL") is False

    def test_between(self):
        assert pred("5 BETWEEN 1 AND 10") is True
        assert pred("0 BETWEEN 1 AND 10") is False
        assert pred("5 NOT BETWEEN 1 AND 10") is False
        assert pred("NULL BETWEEN 1 AND 10") is None

    def test_in_list(self):
        assert pred("2 IN (1, 2, 3)") is True
        assert pred("9 IN (1, 2, 3)") is False
        assert pred("9 NOT IN (1, 2, 3)") is True

    def test_in_list_null_semantics(self):
        # No match but a NULL in the list → unknown.
        assert pred("9 IN (1, NULL)") is None
        assert pred("9 NOT IN (1, NULL)") is None
        # A match wins regardless of NULLs.
        assert pred("1 IN (1, NULL)") is True
        # NULL probe over a non-empty list → unknown.
        assert pred("NULL IN (1, 2)") is None
