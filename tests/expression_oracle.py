"""The tree-walking expression interpreter: the engine's test oracle.

The engine evaluates expressions only through compiled closures
(:mod:`repro.engine.compile`) and batch kernels
(:mod:`repro.engine.vector_compile`).  This module is the reference
they are checked against: a direct recursive walk of the AST under SQL
three-valued logic, sharing no evaluation code with them — only the
runtime scope chain (:class:`~repro.engine.expression.EvalContext`) and
the subquery callback interface.

Scalar values are Python objects: int, float, str (TEXT and DATE) and
None for the SQL NULL.  Predicates evaluate to True, False, or None
(unknown); a WHERE clause keeps a tuple only when its predicate is
True, which is what makes the paper's COUNT-bug examples behave: a
comparison against ``MAX({}) = NULL`` is unknown and rejects the tuple.
"""

from __future__ import annotations

from repro.engine.expression import EvalContext, SubqueryHandler
from repro.engine.params import param_value
from repro.errors import ExecutionError
from repro.sql.ast import (
    And,
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    Quantified,
    ScalarSubquery,
    Star,
    UnaryMinus,
)


# ---------------------------------------------------------------------------
# Scalar evaluation
# ---------------------------------------------------------------------------


def eval_scalar(expr: Expr, context: EvalContext) -> object:
    """Evaluate a scalar expression for one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Parameter):
        return param_value(expr.index, expr.name)
    if isinstance(expr, ColumnRef):
        return context.resolve(expr)
    if isinstance(expr, UnaryMinus):
        value = eval_scalar(expr.operand, context)
        if value is None:
            return None
        _require_number(value)
        return -value
    if isinstance(expr, BinaryArith):
        return _eval_arith(expr, context)
    if isinstance(expr, ScalarSubquery):
        handler = _require_handler(context)
        return handler.scalar(expr.query, context)
    if isinstance(expr, FuncCall):
        raise ExecutionError(
            f"aggregate {expr.name} used outside aggregation context"
        )
    if isinstance(expr, Star):
        raise ExecutionError("* is not a scalar expression")
    # Predicates used as scalars (no BOOLEAN type in this dialect).
    raise ExecutionError(f"expected scalar expression, got {type(expr).__name__}")


def _eval_arith(expr: BinaryArith, context: EvalContext) -> object:
    left = eval_scalar(expr.left, context)
    right = eval_scalar(expr.right, context)
    if left is None or right is None:
        return None
    _require_number(left)
    _require_number(right)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    raise ExecutionError(f"unknown arithmetic operator {expr.op!r}")


def _require_number(value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"expected a number, got {value!r}")


def _require_handler(context: EvalContext) -> SubqueryHandler:
    if context.subquery_handler is None:
        raise ExecutionError(
            "subquery encountered but no executor installed "
            "(physical plans must be fully unnested)"
        )
    return context.subquery_handler


# ---------------------------------------------------------------------------
# Comparison with SQL semantics
# ---------------------------------------------------------------------------


def null_safe_equal(left: object, right: object) -> bool:
    """Two-valued null-safe equality (``<=>`` / IS NOT DISTINCT FROM).

    NULL <=> NULL is True, NULL <=> value is False; otherwise ordinary
    equality.  Never returns unknown.
    """
    if left is None or right is None:
        return left is None and right is None
    return compare_values("=", left, right) is True


def compare_values(op: str, left: object, right: object) -> bool | None:
    """Three-valued comparison of two scalar values.

    NULL on either side yields unknown (None).  Numbers compare with
    numbers, strings with strings; mixing is an execution error rather
    than silent falsehood.
    """
    if left is None or right is None:
        return None
    left_is_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_is_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_is_num != right_is_num:
        raise ExecutionError(
            f"cannot compare {left!r} with {right!r} (type mismatch)"
        )
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def sql_and(left: bool | None, right: bool | None) -> bool | None:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: bool | None, right: bool | None) -> bool | None:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: bool | None) -> bool | None:
    if value is None:
        return None
    return not value


# ---------------------------------------------------------------------------
# Predicate evaluation
# ---------------------------------------------------------------------------


def eval_predicate(expr: Expr, context: EvalContext) -> bool | None:
    """Evaluate a predicate for one row under three-valued logic."""
    if isinstance(expr, And):
        result: bool | None = True
        for operand in expr.operands:
            result = sql_and(result, eval_predicate(operand, context))
            if result is False:
                return False
        return result
    if isinstance(expr, Or):
        result = False
        for operand in expr.operands:
            result = sql_or(result, eval_predicate(operand, context))
            if result is True:
                return True
        return result
    if isinstance(expr, Not):
        return sql_not(eval_predicate(expr.operand, context))
    if isinstance(expr, Comparison):
        left = eval_scalar(expr.left, context)
        right = eval_scalar(expr.right, context)
        if expr.null_safe:
            return null_safe_equal(left, right)
        return compare_values(expr.op, left, right)
    if isinstance(expr, IsNull):
        value = eval_scalar(expr.operand, context)
        answer = value is None
        return not answer if expr.negated else answer
    if isinstance(expr, Between):
        value = eval_scalar(expr.operand, context)
        low = eval_scalar(expr.low, context)
        high = eval_scalar(expr.high, context)
        inside = sql_and(
            compare_values(">=", value, low), compare_values("<=", value, high)
        )
        return sql_not(inside) if expr.negated else inside
    if isinstance(expr, InList):
        value = eval_scalar(expr.operand, context)
        items = [eval_scalar(item, context) for item in expr.items]
        return _membership(value, items, expr.negated)
    if isinstance(expr, InSubquery):
        handler = _require_handler(context)
        value = eval_scalar(expr.operand, context)
        items = handler.column(expr.query, context)
        return _membership(value, items, expr.negated)
    if isinstance(expr, Exists):
        handler = _require_handler(context)
        answer = handler.exists(expr.query, context)
        return not answer if expr.negated else answer
    if isinstance(expr, Quantified):
        handler = _require_handler(context)
        value = eval_scalar(expr.operand, context)
        items = handler.column(expr.query, context)
        return _quantified(expr.op, expr.quantifier, value, items)
    # A bare scalar in predicate position is a dialect error.
    raise ExecutionError(f"not a predicate: {type(expr).__name__}")


def _membership(value: object, items: list[object], negated: bool) -> bool | None:
    """SQL semantics of ``value IN items`` (and NOT IN via negation)."""
    result: bool | None = False
    for item in items:
        result = sql_or(result, compare_values("=", value, item))
        if result is True:
            break
    return sql_not(result) if negated else result


def _quantified(
    op: str, quantifier: str, value: object, items: list[object]
) -> bool | None:
    """SQL semantics of ``value op ANY|ALL items``.

    ``op ANY ∅`` is false and ``op ALL ∅`` is (vacuously) true — the
    edge case that makes the paper's section 8.2 rewrites "logically
    (but not necessarily semantically) equivalent".
    """
    if quantifier == "ANY":
        result: bool | None = False
        for item in items:
            result = sql_or(result, compare_values(op, value, item))
            if result is True:
                break
        return result
    result = True
    for item in items:
        result = sql_and(result, compare_values(op, value, item))
        if result is False:
            break
    return result
