"""Compile expressions to plain Python closures — the row evaluator.

The engine evaluates an expression one of two ways, by job: the
operators run their single-scope expressions as the batch kernels of
:mod:`repro.engine.vector_compile`, and everything that runs a row at a
time — nested iteration, correlated references, subqueries, the join
residuals checked per candidate — runs the closure this module builds.

An :class:`~repro.sql.ast.Expr` is compiled against a *schema chain* —
the row's own :class:`~repro.engine.schema.RowSchema` plus the schemas
of any enclosing (correlated) contexts — into ``fn(row, outer)``:

* column indices are resolved **once**, at compile time (a reference to
  an enclosing block becomes a fixed number of ``.outer`` hops plus a
  tuple index);
* comparison and arithmetic operators are bound **once** (no per-row
  string dispatch);
* SQL three-valued logic is preserved exactly: NULL propagation,
  short-circuit AND/OR over unknown, ``<=>`` null-safe equality, the
  mixed-type comparison error.

Compilation never declines; every node the parser produces becomes a
closure.  A subquery node builds the row's
:class:`~repro.engine.expression.EvalContext` and asks the
:class:`~repro.engine.expression.SubqueryHandler` given at compile time
(nested iteration passes itself; with none, evaluating the node is an
error — physical plans are fully unnested).  A node that can only fail
— an aggregate outside aggregation, ``*``, a predicate used as a
scalar, a scalar used as a predicate, a column that does not resolve or
resolves ambiguously — raises its error when a row is evaluated, never
at compile time, so an empty input stays silent.

The **cell rules** below are the one definition of what a single value
evaluates to; the batch kernels apply them to every cell their
same-type fast paths do not cover.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

from repro.engine.expression import EvalContext, SubqueryHandler
from repro.engine.params import param_value
from repro.engine.schema import RowSchema
from repro.errors import BindError, ExecutionError
from repro.storage.locks import make_lock
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
    Select,
    Star,
    UnaryMinus,
    list_slot,
    walk,
)

#: A compiled expression: ``fn(row, outer)`` where ``row`` is the local
#: tuple and ``outer`` is the enclosing EvalContext chain (or None when
#: the expression references only local columns).
CompiledFn = Callable[[tuple, Any], Any]

#: A cell rule over two values.
Cell = Callable[[Any, Any], Any]

_F = TypeVar("_F")


# -- cell rules --------------------------------------------------------------

#: The Python operator behind each SQL operator: what a cell rule
#: applies once NULLs and types are settled, and what the batch
#: kernels' same-type fast paths apply directly.
ARITHMETIC: dict[str, Cell] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

COMPARISON: dict[str, Cell] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def is_number(value: object) -> bool:
    """SQL numbers are int and float — never bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(value: object) -> None:
    if not is_number(value):
        raise ExecutionError(f"expected a number, got {value!r}")


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


def negation(value: Any) -> Any:
    """Unary minus: NULL stays NULL; anything but a number is an error."""
    if value is None:
        return None
    _require_number(value)
    return -value


def arithmetic(op: str) -> Cell:
    """``left op right``: NULL propagates, both sides must be numbers,
    division by zero is an error."""
    apply = _divide if op == "/" else ARITHMETIC.get(op)

    def cell(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        _require_number(left)
        _require_number(right)
        if apply is None:
            raise ExecutionError(f"unknown arithmetic operator {op!r}")
        return apply(left, right)

    return cell


def comparison(op: str) -> Cell:
    """Three-valued ``left op right``: NULL on either side is unknown;
    numbers compare with numbers, strings with strings, and mixing is
    an execution error rather than a silent falsehood."""
    apply = COMPARISON[op]

    def cell(left: Any, right: Any) -> bool | None:
        if left is None or right is None:
            return None
        if is_number(left) != is_number(right):
            raise ExecutionError(
                f"cannot compare {left!r} with {right!r} (type mismatch)"
            )
        return apply(left, right)

    return cell


_equal = comparison("=")


def null_safe_equal(left: Any, right: Any) -> bool:
    """``<=>``: NULL <=> NULL is True, NULL <=> value is False,
    otherwise ``=`` (type mismatch included).  Never unknown."""
    if left is None or right is None:
        return left is None and right is None
    return _equal(left, right) is True


def between(above: bool | None, below: bool | None, negated: bool) -> bool | None:
    """``[NOT] BETWEEN`` from its two bound comparisons (both are always
    evaluated: the bounds are compared eagerly)."""
    if above is False or below is False:
        inside = False
    elif above is None or below is None:
        return None
    else:
        inside = True
    return not inside if negated else inside


def membership(value: Any, items: Sequence, negated: bool) -> bool | None:
    """``value [NOT] IN items``: True at the first equal item, unknown
    when none is equal but some comparison was unknown."""
    result: bool | None = False
    for item in items:
        matched = _equal(value, item)
        if matched is True:
            result = True
            break
        if matched is None:
            result = None
    if result is None:
        return None
    return not result if negated else result


def _family(value: Any) -> str | None:
    return "number" if is_number(value) else "text" if isinstance(value, str) else None


class ValueList(tuple):
    """What a list slot binds: the value list of an ``IN`` over a type-A
    block, hashed as the tuple it is.

    Its set form is built with it: ``lookup`` is ``(family, the non-NULL
    values, whether a NULL is among them)`` when those values are all
    numbers (no NaN) or all strings — the families :func:`comparison`
    compares — and None otherwise."""

    lookup: tuple[str | None, frozenset, bool] | None

    def __new__(cls, values: Iterable = ()) -> ValueList:
        self = super().__new__(cls, values)
        present = [item for item in self if item is not None]
        families = {_family(item) for item in present}
        single = len(families) <= 1 and None not in families
        self.lookup = (
            (next(iter(families), None), frozenset(present), len(present) < len(self))
            if single and all(item == item for item in present)
            else None
        )
        return self


def slot_membership(value: Any, values: ValueList, negated: bool) -> bool | None:
    """``value [NOT] IN`` a bound list slot: :func:`membership`'s answer,
    from the list's set form when it has one and ``value`` is of its
    family.  A miss is unknown when the list holds a NULL.  Every other
    case loops, so a mixed-type comparison raises as there."""
    lookup = values.lookup
    if value is None or lookup is None or lookup[0] not in (None, _family(value)):
        return membership(value, values, negated)
    _, found, has_null = lookup
    result = True if value in found else None if has_null else False
    return None if result is None else result != negated


def quantified(op: str, quantifier: str) -> Callable[[Any, Sequence], bool | None]:
    """``value op ANY|ALL items``.

    ``op ANY ∅`` is false and ``op ALL ∅`` is (vacuously) true — the
    edge case that makes the paper's section 8.2 rewrites "logically
    (but not necessarily semantically) equivalent".
    """
    compare = comparison(op)
    decided = quantifier == "ANY"  # the outcome one item can settle

    def cell(value: Any, items: Sequence) -> bool | None:
        result: bool | None = not decided
        for item in items:
            matched = compare(value, item)
            if matched is decided:
                return decided
            if matched is None:
                result = None
        return result

    return cell


# -- column resolution and raising nodes -------------------------------------


def _raiser(error: type[Exception], message: str) -> CompiledFn:
    """A node that can only fail: it raises when a row is evaluated."""

    def fail(row: tuple, outer: Any) -> Any:
        raise error(message)

    return fail


_NO_HANDLER = _raiser(
    ExecutionError,
    "subquery encountered but no executor installed "
    "(physical plans must be fully unnested)",
)


def _column(ref: ColumnRef, chain: tuple[RowSchema, ...]) -> CompiledFn:
    """A getter for ``ref``, innermost schema first — the order
    :meth:`EvalContext.resolve` searches at runtime."""
    for depth, schema in enumerate(chain):
        try:
            index = schema.try_index_of(ref)
        except BindError as error:  # ambiguous within one schema
            return _raiser(BindError, str(error))
        if index is not None:
            return _column_getter(depth, index)
    return _raiser(BindError, f"cannot resolve column {ref.qualified()}")


def _column_getter(depth: int, index: int) -> CompiledFn:
    if depth == 0:
        return lambda row, outer: row[index]
    hops = depth - 1

    def get(row, outer):
        context = outer
        for _ in range(hops):
            context = context.outer
        return context.row[index]

    return get


# -- scalar compilation ------------------------------------------------------


def _scalar(
    expr: Expr, chain: tuple[RowSchema, ...], handler: SubqueryHandler | None
) -> CompiledFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, outer: value
    if isinstance(expr, Parameter):
        index, name = expr.index, expr.name
        return lambda row, outer: param_value(index, name)
    if isinstance(expr, ColumnRef):
        return _column(expr, chain)
    if isinstance(expr, UnaryMinus):
        operand = _scalar(expr.operand, chain, handler)
        return lambda row, outer: negation(operand(row, outer))
    if isinstance(expr, BinaryArith):
        left = _scalar(expr.left, chain, handler)
        right = _scalar(expr.right, chain, handler)
        cell = arithmetic(expr.op)
        return lambda row, outer: cell(left(row, outer), right(row, outer))
    if isinstance(expr, ScalarSubquery):
        if handler is None:
            return _NO_HANDLER
        query, schema, scalar = expr.query, chain[0], handler.scalar
        return lambda row, outer: scalar(
            query, EvalContext(row, schema, outer, handler)
        )
    if isinstance(expr, FuncCall):
        return _raiser(
            ExecutionError,
            f"aggregate {expr.name} used outside aggregation context",
        )
    if isinstance(expr, Star):
        return _raiser(ExecutionError, "* is not a scalar expression")
    # Predicates used as scalars (no BOOLEAN type in this dialect).
    return _raiser(
        ExecutionError, f"expected scalar expression, got {type(expr).__name__}"
    )


# -- predicate compilation ---------------------------------------------------


def _predicate(
    expr: Expr, chain: tuple[RowSchema, ...], handler: SubqueryHandler | None
) -> CompiledFn:
    if isinstance(expr, And):
        parts = [_predicate(operand, chain, handler) for operand in expr.operands]

        def conj(row, outer):
            result: bool | None = True
            for part in parts:
                value = part(row, outer)
                if value is False:
                    return False
                if value is None:
                    result = None
            return result

        return conj
    if isinstance(expr, Or):
        parts = [_predicate(operand, chain, handler) for operand in expr.operands]

        def disj(row, outer):
            result: bool | None = False
            for part in parts:
                value = part(row, outer)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result

        return disj
    if isinstance(expr, Not):
        operand = _predicate(expr.operand, chain, handler)

        def negate(row, outer):
            value = operand(row, outer)
            if value is None:
                return None
            return not value

        return negate
    if isinstance(expr, Comparison):
        left = _scalar(expr.left, chain, handler)
        right = _scalar(expr.right, chain, handler)
        compare = null_safe_equal if expr.null_safe else comparison(expr.op)
        return lambda row, outer: compare(left(row, outer), right(row, outer))
    if isinstance(expr, IsNull):
        operand = _scalar(expr.operand, chain, handler)
        if expr.negated:
            return lambda row, outer: operand(row, outer) is not None
        return lambda row, outer: operand(row, outer) is None
    if isinstance(expr, Between):
        value_fn = _scalar(expr.operand, chain, handler)
        low_fn = _scalar(expr.low, chain, handler)
        high_fn = _scalar(expr.high, chain, handler)
        ge, le = comparison(">="), comparison("<=")
        negated = expr.negated

        def within(row, outer):
            value = value_fn(row, outer)
            low = low_fn(row, outer)
            high = high_fn(row, outer)
            return between(ge(value, low), le(value, high), negated)

        return within
    if isinstance(expr, InList) and (slot := list_slot(expr)) is not None:
        value_fn = _scalar(expr.operand, chain, handler)
        index, name, negated = slot.index, slot.name, expr.negated
        return lambda row, outer: slot_membership(
            value_fn(row, outer), param_value(index, name), negated
        )
    if isinstance(expr, InList):
        value_fn = _scalar(expr.operand, chain, handler)
        item_fns = [_scalar(item, chain, handler) for item in expr.items]
        negated = expr.negated

        def in_list(row, outer):
            value = value_fn(row, outer)
            return membership(value, [fn(row, outer) for fn in item_fns], negated)

        return in_list
    if isinstance(expr, (InSubquery, Exists, Quantified)):
        return _subquery_predicate(expr, chain, handler)
    # A bare scalar in predicate position is a dialect error.
    return _raiser(ExecutionError, f"not a predicate: {type(expr).__name__}")


def _subquery_predicate(
    expr: InSubquery | Exists | Quantified,
    chain: tuple[RowSchema, ...],
    handler: SubqueryHandler | None,
) -> CompiledFn:
    """IN / EXISTS / ANY / ALL over a subquery: the operand first, then
    the handler's rows for this row's context."""
    if handler is None:
        return _NO_HANDLER
    query, schema = expr.query, chain[0]
    if isinstance(expr, Exists):
        exists, negated = handler.exists, expr.negated

        def exists_fn(row, outer):
            answer = exists(query, EvalContext(row, schema, outer, handler))
            return not answer if negated else answer

        return exists_fn
    operand = _scalar(expr.operand, chain, handler)
    column = handler.column
    if isinstance(expr, InSubquery):
        negated = expr.negated

        def in_subquery(row, outer):
            value = operand(row, outer)
            items = column(query, EvalContext(row, schema, outer, handler))
            return membership(value, items, negated)

        return in_subquery
    cell = quantified(expr.op, expr.quantifier)

    def quantified_fn(row, outer):
        value = operand(row, outer)
        return cell(value, column(query, EvalContext(row, schema, outer, handler)))

    return quantified_fn


# -- closure memo ------------------------------------------------------------
#
# Expr nodes are frozen dataclasses and RowSchema hashes over its field
# tuple, so ``(expr, chain)`` is a usable cache key.  Compiled closures
# are pure (all per-row state flows through ``(row, outer)`` and the
# parameter contextvar), so one closure can serve every thread.  The
# memo is what lets a cached plan skip recompilation on replay.  A
# closure bound to a subquery handler stays out of it: nested iteration
# keeps its own plans per block.

_MEMO_CAPACITY = 4096
_memo_lock = make_lock("engine.compile_memo")
_memo: dict[tuple, Any] = {}


def memoized(key: tuple, build: Callable[[], _F]) -> _F:
    """``build()``, memoized process-wide under ``key`` (bounded LRU); a
    key that does not hash (an unhashable literal) compiles fresh."""
    try:
        with _memo_lock:
            cached = _memo.pop(key, None)
            if cached is not None:
                _memo[key] = cached  # most recently used last
    except TypeError:
        return build()
    if cached is not None:
        return cached
    compiled = build()
    with _memo_lock:
        while len(_memo) >= _MEMO_CAPACITY:
            _memo.pop(next(iter(_memo)))
        _memo[key] = compiled
    return compiled


def _compiled(
    kind: str,
    compiler: Callable[
        [Expr, tuple[RowSchema, ...], SubqueryHandler | None], CompiledFn
    ],
    expr: Expr,
    schemas: RowSchema | Sequence[RowSchema],
    handler: SubqueryHandler | None,
) -> CompiledFn:
    chain = (schemas,) if isinstance(schemas, RowSchema) else tuple(schemas)
    if handler is not None and any(
        isinstance(node, Select) for node in walk(expr, into_subqueries=False)
    ):
        return compiler(expr, chain, handler)
    return memoized((kind, expr, chain), lambda: compiler(expr, chain, handler))


def compile_scalar(
    expr: Expr,
    schemas: RowSchema | Sequence[RowSchema],
    handler: SubqueryHandler | None = None,
) -> CompiledFn:
    """Compile a scalar expression against a (non-empty) schema chain."""
    return _compiled("s", _scalar, expr, schemas, handler)


def compile_predicate(
    expr: Expr,
    schemas: RowSchema | Sequence[RowSchema],
    handler: SubqueryHandler | None = None,
) -> CompiledFn:
    """Compile a predicate to a three-valued closure."""
    return _compiled("p", _predicate, expr, schemas, handler)
