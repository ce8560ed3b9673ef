"""Compile expressions to plain Python closures (the per-row hot path).

:mod:`repro.engine.expression` interprets the AST recursively for every
row: each :class:`ColumnRef` walks schemas, each node costs an
``isinstance`` ladder, and every row allocates an ``EvalContext``.
That is fine for the oracle but dominates wall-clock time on the
transformed plans' restrict/project/join loops and on nested
iteration's inner rescans.

This module compiles an :class:`~repro.sql.ast.Expr` against a *schema
chain* — the row's own :class:`~repro.engine.schema.RowSchema` plus the
schemas of any enclosing (correlated) contexts — into a closure of the
form ``fn(row, outer)``:

* column indices are resolved **once**, at compile time (a reference to
  an enclosing block becomes a fixed number of ``.outer`` hops plus a
  tuple index);
* comparison and arithmetic operators are bound **once** (no per-row
  string dispatch);
* SQL three-valued logic is preserved exactly: NULL propagation,
  short-circuit AND/OR over unknown, ``<=>`` null-safe equality, the
  type-mismatch errors of :func:`~repro.engine.expression.compare_values`.

Anything the compiler cannot express — subqueries, aggregates used as
scalars, references that do not bind in the chain — raises
:class:`CannotCompile`; callers fall back to the interpreter, which
reproduces the documented runtime error (or evaluates the subquery).
The ``try_compile_*`` helpers return None in that case, and also when
compilation is globally disabled (:func:`interpreted_only`, which the
differential tester uses to run its interpreted legs).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from contextlib import contextmanager


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
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    UnaryMinus,
)

#: A compiled expression: ``fn(row, outer)`` where ``row`` is the local
#: tuple and ``outer`` is the enclosing EvalContext chain (or None when
#: the expression references only local columns).
CompiledFn = Callable[[tuple, object], object]


class CannotCompile(Exception):
    """The expression needs the interpreter (subquery, unbound ref, ...)."""


# -- global toggle (benchmark harness) --------------------------------------

_COMPILE_ENABLED = True


def compile_enabled() -> bool:
    return _COMPILE_ENABLED


def set_compile_enabled(enabled: bool) -> None:
    """Globally enable/disable compilation (``try_compile_*`` → None)."""
    global _COMPILE_ENABLED
    _COMPILE_ENABLED = bool(enabled)


@contextmanager
def interpreted_only():
    """Context manager: force the interpreted path (for benchmarks)."""
    previous = _COMPILE_ENABLED
    set_compile_enabled(False)
    try:
        yield
    finally:
        set_compile_enabled(previous)


# -- column resolution -------------------------------------------------------


def _normalize_chain(schemas: RowSchema | Sequence[RowSchema]) -> tuple[RowSchema, ...]:
    if isinstance(schemas, RowSchema):
        return (schemas,)
    chain = tuple(schemas)
    if not chain:
        raise CannotCompile("empty schema chain")
    return chain


def _resolve(ref: ColumnRef, chain: tuple[RowSchema, ...]) -> tuple[int, int]:
    """Resolve a reference to ``(depth, index)``; innermost schema first."""
    for depth, schema in enumerate(chain):
        try:
            index = schema.try_index_of(ref)
        except BindError as error:  # ambiguous within one schema
            raise CannotCompile(str(error)) from error
        if index is not None:
            return depth, index
    raise CannotCompile(f"cannot resolve column {ref.qualified()}")


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

_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(value: object) -> None:
    if not _is_number(value):
        raise ExecutionError(f"expected a number, got {value!r}")


def compile_scalar(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> CompiledFn:
    """Compile a scalar expression; raises :class:`CannotCompile`."""
    return _scalar(expr, _normalize_chain(schemas))


def _scalar(expr: Expr, chain: tuple[RowSchema, ...]) -> CompiledFn:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, outer: value
    if isinstance(expr, Parameter):
        index, name = expr.index, expr.name
        return lambda row, outer: param_value(index, name)
    if isinstance(expr, ColumnRef):
        depth, index = _resolve(expr, chain)
        return _column_getter(depth, index)
    if isinstance(expr, UnaryMinus):
        operand = _scalar(expr.operand, chain)

        def negate(row, outer):
            value = operand(row, outer)
            if value is None:
                return None
            _require_number(value)
            return -value

        return negate
    if isinstance(expr, BinaryArith):
        left = _scalar(expr.left, chain)
        right = _scalar(expr.right, chain)
        if expr.op == "/":

            def divide(row, outer):
                l = left(row, outer)
                r = right(row, outer)
                if l is None or r is None:
                    return None
                _require_number(l)
                _require_number(r)
                if r == 0:
                    raise ExecutionError("division by zero")
                return l / r

            return divide
        py_op = _ARITH_OPS.get(expr.op)
        if py_op is None:
            raise CannotCompile(f"unknown arithmetic operator {expr.op!r}")

        def arith(row, outer):
            l = left(row, outer)
            r = right(row, outer)
            if l is None or r is None:
                return None
            _require_number(l)
            _require_number(r)
            return py_op(l, r)

        return arith
    # ScalarSubquery, FuncCall, Star, predicates-as-scalars: interpreter.
    raise CannotCompile(f"cannot compile scalar {type(expr).__name__}")


# -- predicate compilation ---------------------------------------------------


def _compare_maker(op: str) -> Callable[[object, object], object]:
    """Three-valued comparison with the op bound once.

    Mirrors :func:`repro.engine.expression.compare_values` exactly,
    including the mixed-type :class:`ExecutionError`.
    """
    py_op = _CMP_OPS[op]

    def compare(left: object, right: object) -> bool | None:
        if left is None or right is None:
            return None
        if _is_number(left) != _is_number(right):
            raise ExecutionError(
                f"cannot compare {left!r} with {right!r} (type mismatch)"
            )
        return py_op(left, right)

    return compare


def compile_predicate(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> CompiledFn:
    """Compile a predicate to a three-valued closure; raises
    :class:`CannotCompile` for subquery predicates and friends."""
    return _predicate(expr, _normalize_chain(schemas))


def _predicate(expr: Expr, chain: tuple[RowSchema, ...]) -> CompiledFn:
    if isinstance(expr, And):
        parts = [_predicate(operand, chain) for operand in expr.operands]

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
        parts = [_predicate(operand, chain) for operand in expr.operands]

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
        operand = _predicate(expr.operand, chain)

        def negate(row, outer):
            value = operand(row, outer)
            if value is None:
                return None
            return not value

        return negate
    if isinstance(expr, Comparison):
        left = _scalar(expr.left, chain)
        right = _scalar(expr.right, chain)
        if expr.null_safe:
            equal = _compare_maker("=")

            def null_safe(row, outer):
                l = left(row, outer)
                r = right(row, outer)
                if l is None or r is None:
                    return l is None and r is None
                return equal(l, r) is True

            return null_safe
        compare = _compare_maker(expr.op)
        return lambda row, outer: compare(left(row, outer), right(row, outer))
    if isinstance(expr, IsNull):
        operand = _scalar(expr.operand, chain)
        if expr.negated:
            return lambda row, outer: operand(row, outer) is not None
        return lambda row, outer: operand(row, outer) is None
    if isinstance(expr, Between):
        value_fn = _scalar(expr.operand, chain)
        low_fn = _scalar(expr.low, chain)
        high_fn = _scalar(expr.high, chain)
        ge = _compare_maker(">=")
        le = _compare_maker("<=")
        negated = expr.negated

        def between(row, outer):
            value = value_fn(row, outer)
            low = low_fn(row, outer)
            high = high_fn(row, outer)
            # Both bounds compared eagerly, like the interpreter.
            above = ge(value, low)
            below = le(value, high)
            if above is False or below is False:
                inside: bool | None = False
            elif above is None or below is None:
                inside = None
            else:
                inside = True
            if inside is None:
                return None
            return (not inside) if negated else inside

        return between
    if isinstance(expr, InList):
        value_fn = _scalar(expr.operand, chain)
        item_fns = [_scalar(item, chain) for item in expr.items]
        equal = _compare_maker("=")
        negated = expr.negated

        def membership(row, outer):
            value = value_fn(row, outer)
            items = [fn(row, outer) for fn in item_fns]
            result: bool | None = False
            for item in items:
                matched = equal(value, item)
                if matched is True:
                    result = True
                    break
                if matched is None:
                    result = None
            if result is None:
                return None
            return (not result) if negated else result

        return membership
    # InSubquery, Exists, Quantified, bare scalars: interpreter.
    raise CannotCompile(f"cannot compile predicate {type(expr).__name__}")


# -- closure memo ------------------------------------------------------------
#
# Expr nodes are frozen dataclasses and RowSchema hashes over its field
# tuple, so ``(expr, chain)`` is a usable cache key.  Compiled closures
# are pure (all per-row state flows through ``(row, outer)`` and the
# parameter contextvar), so one closure can serve every thread.  The
# memo is what lets a cached plan skip recompilation on replay.

_MEMO_CAPACITY = 4096
_memo_lock = make_lock("engine.compile_memo")
#: key → CompiledFn, or the CannotCompile sentinel below.
_memo: dict[tuple, object] = {}
_CANNOT = object()


def _memoized(
    kind: str,
    compiler: Callable[[Expr, tuple[RowSchema, ...]], CompiledFn],
    expr: Expr,
    schemas: RowSchema | Sequence[RowSchema],
) -> CompiledFn | None:
    try:
        chain = _normalize_chain(schemas)
    except CannotCompile:
        return None
    key = (kind, expr, chain)
    try:
        with _memo_lock:
            cached = _memo.get(key)
            if cached is not None:
                # Reinsert for LRU recency (dicts preserve order).
                _memo.pop(key, None)
                _memo[key] = cached
    except TypeError:
        # Unhashable literal embedded in the expression; compile fresh.
        try:
            return compiler(expr, chain)
        except CannotCompile:
            return None
    if cached is _CANNOT:
        return None
    if cached is not None:
        return cached  # type: ignore[return-value]
    try:
        compiled: object = compiler(expr, chain)
    except CannotCompile:
        compiled = _CANNOT
    with _memo_lock:
        while len(_memo) >= _MEMO_CAPACITY:
            _memo.pop(next(iter(_memo)))
        _memo[key] = compiled
    return None if compiled is _CANNOT else compiled  # type: ignore[return-value]


# -- fallible front door -----------------------------------------------------


def try_compile_scalar(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> CompiledFn | None:
    """Compiled scalar, or None (fall back to the interpreter)."""
    if not _COMPILE_ENABLED:
        return None
    return _memoized("s", _scalar, expr, schemas)


def try_compile_predicate(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> CompiledFn | None:
    """Compiled predicate, or None (fall back to the interpreter)."""
    if not _COMPILE_ENABLED:
        return None
    return _memoized("p", _predicate, expr, schemas)
