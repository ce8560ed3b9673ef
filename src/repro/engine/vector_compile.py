"""Compile expressions to columnar batch kernels (what the operators run).

:mod:`repro.engine.compile` turns an expression into a per-row closure;
this module turns the same expression into a **batch kernel**::

    fn(cols, n, sel) -> list

where ``cols`` is the batch's column list (one sequence per schema
field), ``n`` is the batch's row count, and ``sel`` is either None
(evaluate every row) or a list of row indices to evaluate.  The result
is dense over the selection: ``len(result) == n`` when ``sel`` is None,
``len(sel)`` otherwise.  Kernels never mutate their input columns.

Three-valued logic is carried in the value domain: NULL is ``None`` in
a value column, unknown is ``None`` in a predicate mask — the validity
information rides with the data, and :func:`null_mask` recovers an
explicit validity vector when a kernel needs one (``IS NULL``).

Semantics match the row evaluators (:mod:`repro.engine.compile`, the
interpreter) cell for cell:

* AND/OR gate their later operands through **selection vectors** — the
  second conjunct is evaluated only at rows where the first is not
  already False (not True for OR), exactly the set of cells a
  row-at-a-time short-circuit evaluates, so data-dependent errors are
  raised iff row-at-a-time evaluation would raise them.  (Within one
  kernel, cells are visited in row order; *across* operands a batch
  evaluates column-at-a-time, so which of several erroneous cells
  reports first is unspecified — the operators' error-surfacing
  contract, :mod:`repro.engine.operators`.)
* comparisons reproduce :func:`repro.engine.expression.compare_values`
  exactly, including the mixed-type :class:`ExecutionError`;
* NULL propagation, ``<=>``, BETWEEN's eager bounds, and IN's
  membership scan all mirror the row compiler in
  :mod:`repro.engine.compile`.

Anything outside the batch repertoire — subqueries, references into an
enclosing (correlated) scope, aggregates as scalars — raises
:class:`~repro.engine.compile.CannotCompile`; the operators fall back
**per expression** to the scalar closure path (or the interpreter), so
one stubborn expression never forces a whole plan off the kernels.  The ``try_compile_batch_*`` helpers honour the same
global toggle as the row compiler: under
:func:`~repro.engine.compile.interpreted_only` they return None and the
operators run every expression through the interpreter.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

from repro.engine.compile import (
    CannotCompile,
    _memoized,
    compile_enabled,
)
from repro.engine.params import param_value
from repro.engine.schema import RowSchema
from repro.errors import ExecutionError
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

#: A batch kernel: ``fn(cols, n, sel) -> column`` (dense over ``sel``).
BatchFn = Callable[[list, int, "list[int] | None"], list]

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


def null_mask(column: Sequence) -> list[bool]:
    """Explicit validity vector for a value column (True = NULL)."""
    return [value is None for value in column]


# Type-domain fast paths.  ``set(map(type, column))`` runs at C speed;
# when both operand columns are homogeneous (all numbers, or all
# strings, optionally with NULLs) the kernel can dispatch to a
# ``map``/comprehension with no per-element type checking, because the
# row evaluators' mixed-type :class:`ExecutionError` is impossible within
# the domain.  Note ``bool`` is deliberately NOT numeric (it falls to
# the general path, which raises on bool-vs-number like
# ``compare_values``).
_NONE = type(None)
_NUM = frozenset((int, float))
_NUM_N = frozenset((int, float, _NONE))
_STR = frozenset((str,))
_STR_N = frozenset((str, _NONE))


# -- helpers -----------------------------------------------------------------


def _out_length(n: int, sel: list[int] | None) -> int:
    return n if sel is None else len(sel)


def _single_schema(chain: tuple[RowSchema, ...]) -> RowSchema:
    """Batch kernels evaluate one row scope; deeper chains are the
    correlated case and take the row-at-a-time path."""
    if len(chain) != 1:
        raise CannotCompile("batch kernels support a single row scope")
    return chain[0]


# -- scalar kernels ----------------------------------------------------------


def _scalar(expr: Expr, chain: tuple[RowSchema, ...]) -> BatchFn:
    schema = _single_schema(chain)
    if isinstance(expr, Literal):
        value = expr.value

        def constant(cols, n, sel):
            return [value] * _out_length(n, sel)

        return constant
    if isinstance(expr, Parameter):
        index, name = expr.index, expr.name

        def parameter(cols, n, sel):
            return [param_value(index, name)] * _out_length(n, sel)

        return parameter
    if isinstance(expr, ColumnRef):
        position = _resolve(expr, schema)

        def column(cols, n, sel):
            source = cols[position]
            if sel is None:
                return source
            return [source[i] for i in sel]

        return column
    if isinstance(expr, UnaryMinus):
        operand = _scalar(expr.operand, chain)

        def negate(cols, n, sel):
            values = operand(cols, n, sel)
            kinds = set(map(type, values))
            if kinds <= _NUM:
                return list(map(operator.neg, values))
            if kinds <= _NUM_N:
                return [None if v is None else -v for v in values]
            out = []
            append = out.append
            for value in values:
                if value is None:
                    append(None)
                elif not _is_number(value):
                    raise ExecutionError(f"expected a number, got {value!r}")
                else:
                    append(-value)
            return out

        return negate
    if isinstance(expr, BinaryArith):
        left = _scalar(expr.left, chain)
        right = _scalar(expr.right, chain)
        if expr.op == "/":

            def divide(cols, n, sel):
                lv = left(cols, n, sel)
                rv = right(cols, n, sel)
                lk = set(map(type, lv))
                rk = set(map(type, rv))
                if lk <= _NUM_N and rk <= _NUM_N:
                    try:
                        if lk <= _NUM and rk <= _NUM:
                            return list(map(operator.truediv, lv, rv))
                        return [
                            None if a is None or b is None else a / b
                            for a, b in zip(lv, rv)
                        ]
                    except ZeroDivisionError:
                        raise ExecutionError("division by zero") from None
                out = []
                append = out.append
                for l, r in zip(lv, rv):
                    if l is None or r is None:
                        append(None)
                        continue
                    if not _is_number(l):
                        raise ExecutionError(f"expected a number, got {l!r}")
                    if not _is_number(r):
                        raise ExecutionError(f"expected a number, got {r!r}")
                    if r == 0:
                        raise ExecutionError("division by zero")
                    append(l / r)
                return out

            return divide
        py_op = _ARITH_OPS.get(expr.op)
        if py_op is None:
            raise CannotCompile(f"unknown arithmetic operator {expr.op!r}")

        def arith(cols, n, sel):
            lv = left(cols, n, sel)
            rv = right(cols, n, sel)
            lk = set(map(type, lv))
            rk = set(map(type, rv))
            if lk <= _NUM and rk <= _NUM:
                return list(map(py_op, lv, rv))
            if lk <= _NUM_N and rk <= _NUM_N:
                return [
                    None if a is None or b is None else py_op(a, b)
                    for a, b in zip(lv, rv)
                ]
            out = []
            append = out.append
            for l, r in zip(lv, rv):
                if l is None or r is None:
                    append(None)
                    continue
                if not _is_number(l):
                    raise ExecutionError(f"expected a number, got {l!r}")
                if not _is_number(r):
                    raise ExecutionError(f"expected a number, got {r!r}")
                append(py_op(l, r))
            return out

        return arith
    # ScalarSubquery, FuncCall, Star, predicates-as-scalars: row path.
    raise CannotCompile(f"cannot batch-compile scalar {type(expr).__name__}")


def _resolve(ref: ColumnRef, schema: RowSchema) -> int:
    from repro.errors import BindError

    try:
        index = schema.try_index_of(ref)
    except BindError as error:
        raise CannotCompile(str(error)) from error
    if index is None:
        raise CannotCompile(f"cannot resolve column {ref.qualified()}")
    return index


# -- predicate kernels -------------------------------------------------------


def _compare_kernel(op: str, left: BatchFn, right: BatchFn) -> BatchFn:
    py_op = _CMP_OPS[op]

    def compare(cols, n, sel):
        lv = left(cols, n, sel)
        rv = right(cols, n, sel)
        lk = set(map(type, lv))
        rk = set(map(type, rv))
        if (lk <= _NUM and rk <= _NUM) or (lk <= _STR and rk <= _STR):
            return list(map(py_op, lv, rv))
        if (lk <= _NUM_N and rk <= _NUM_N) or (lk <= _STR_N and rk <= _STR_N):
            return [
                None if a is None or b is None else py_op(a, b)
                for a, b in zip(lv, rv)
            ]
        out = []
        append = out.append
        for l, r in zip(lv, rv):
            if l is None or r is None:
                append(None)
            elif _is_number(l) != _is_number(r):
                raise ExecutionError(
                    f"cannot compare {l!r} with {r!r} (type mismatch)"
                )
            else:
                append(py_op(l, r))
        return out

    return compare


def _predicate(expr: Expr, chain: tuple[RowSchema, ...]) -> BatchFn:
    _single_schema(chain)
    if isinstance(expr, And):
        parts = [_predicate(operand, chain) for operand in expr.operands]
        return _gated_connective(parts, short_circuit=False)
    if isinstance(expr, Or):
        parts = [_predicate(operand, chain) for operand in expr.operands]
        return _gated_connective(parts, short_circuit=True)
    if isinstance(expr, Not):
        operand = _predicate(expr.operand, chain)

        def negate(cols, n, sel):
            return [
                None if value is None else not value
                for value in operand(cols, n, sel)
            ]

        return negate
    if isinstance(expr, Comparison):
        left = _scalar(expr.left, chain)
        right = _scalar(expr.right, chain)
        if expr.null_safe:

            def null_safe(cols, n, sel):
                lv = left(cols, n, sel)
                rv = right(cols, n, sel)
                lk = set(map(type, lv))
                rk = set(map(type, rv))
                if (lk <= _NUM and rk <= _NUM) or (lk <= _STR and rk <= _STR):
                    return list(map(operator.eq, lv, rv))
                if (lk <= _NUM_N and rk <= _NUM_N) or (
                    lk <= _STR_N and rk <= _STR_N
                ):
                    return [
                        (a is None and b is None)
                        if (a is None or b is None)
                        else a == b
                        for a, b in zip(lv, rv)
                    ]
                out = []
                append = out.append
                for l, r in zip(lv, rv):
                    if l is None or r is None:
                        append(l is None and r is None)
                    elif _is_number(l) != _is_number(r):
                        raise ExecutionError(
                            f"cannot compare {l!r} with {r!r} (type mismatch)"
                        )
                    else:
                        append(l == r)
                return out

            return null_safe
        return _compare_kernel(expr.op, left, right)
    if isinstance(expr, IsNull):
        operand = _scalar(expr.operand, chain)
        negated = expr.negated

        def is_null(cols, n, sel):
            mask = null_mask(operand(cols, n, sel))
            if negated:
                return [not value for value in mask]
            return mask

        return is_null
    if isinstance(expr, Between):
        value_fn = _scalar(expr.operand, chain)
        low_fn = _scalar(expr.low, chain)
        high_fn = _scalar(expr.high, chain)
        ge = _compare_kernel(">=", value_fn, low_fn)
        le = _compare_kernel("<=", value_fn, high_fn)
        negated = expr.negated

        def between(cols, n, sel):
            # Both bounds compared eagerly, like the row evaluators.
            above = ge(cols, n, sel)
            below = le(cols, n, sel)
            out = []
            append = out.append
            for a, b in zip(above, below):
                if a is False or b is False:
                    inside: bool | None = False
                elif a is None or b is None:
                    inside = None
                else:
                    inside = True
                if inside is None:
                    append(None)
                else:
                    append((not inside) if negated else inside)
            return out

        return between
    if isinstance(expr, InList):
        value_fn = _scalar(expr.operand, chain)
        item_fns = [_scalar(item, chain) for item in expr.items]
        negated = expr.negated

        def membership(cols, n, sel):
            values = value_fn(cols, n, sel)
            items = [fn(cols, n, sel) for fn in item_fns]
            out = []
            append = out.append
            for position, value in enumerate(values):
                result: bool | None = False
                for item_column in items:
                    item = item_column[position]
                    if value is None or item is None:
                        matched: bool | None = None
                    elif _is_number(value) != _is_number(item):
                        raise ExecutionError(
                            f"cannot compare {value!r} with {item!r} "
                            "(type mismatch)"
                        )
                    else:
                        matched = value == item
                    if matched is True:
                        result = True
                        break
                    if matched is None:
                        result = None
                if result is None:
                    append(None)
                else:
                    append((not result) if negated else result)
            return out

        return membership
    # InSubquery, Exists, Quantified, bare scalars: row path.
    raise CannotCompile(f"cannot batch-compile predicate {type(expr).__name__}")


def _gated_connective(parts: list[BatchFn], short_circuit: bool) -> BatchFn:
    """AND (``short_circuit=False``) / OR (``True``) over mask kernels.

    Later operands are evaluated only at rows the earlier ones left
    undecided — the batch equivalent of a row-at-a-time short-circuit,
    preserving exactly which cells get evaluated (and hence which
    data-dependent errors can occur).
    """
    first, rest = parts[0], parts[1:]
    # For AND a row is decided once False; for OR once True.
    decided = short_circuit  # True for OR, False for AND

    def connective(cols, n, sel):
        result = list(first(cols, n, sel))
        for part in rest:
            live = [i for i, value in enumerate(result) if value is not decided]
            if not live:
                break
            sub_sel = live if sel is None else [sel[i] for i in live]
            sub = part(cols, n, sub_sel)
            for offset, i in enumerate(live):
                value = sub[offset]
                if value is decided:
                    result[i] = decided
                elif value is None and result[i] is not None:
                    result[i] = None
        return result

    return connective


# -- reference analysis ------------------------------------------------------


def referenced_indexes(
    expr: Expr, schema: RowSchema
) -> frozenset[int] | None:
    """Schema positions a batch-compilable expression reads.

    Returns None when the expression contains anything outside the
    batch repertoire (subquery, unresolvable reference, unsupported
    node) — callers must then draw no sidedness conclusions.  Used by
    the hash join to push a one-sided residual to the side it reads
    (see :func:`repro.engine.operators.hash_probe_body`).
    """
    found: set[int] = set()

    def walk(node: Expr) -> bool:
        if isinstance(node, (Literal, Parameter)):
            return True
        if isinstance(node, ColumnRef):
            try:
                found.add(_resolve(node, schema))
            except CannotCompile:
                return False
            return True
        if isinstance(node, (UnaryMinus, Not, IsNull)):
            return walk(node.operand)
        if isinstance(node, (BinaryArith, Comparison)):
            return walk(node.left) and walk(node.right)
        if isinstance(node, (And, Or)):
            return all(walk(operand) for operand in node.operands)
        if isinstance(node, Between):
            return walk(node.operand) and walk(node.low) and walk(node.high)
        if isinstance(node, InList):
            return walk(node.operand) and all(
                walk(item) for item in node.items
            )
        return False

    return frozenset(found) if walk(expr) else None


# -- fallible front door -----------------------------------------------------


def try_compile_batch_scalar(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> BatchFn | None:
    """Batch scalar kernel, or None (fall back to the row path)."""
    if not compile_enabled():
        return None
    return _memoized("vs", _scalar, expr, schemas)


def try_compile_batch_predicate(
    expr: Expr, schemas: RowSchema | Sequence[RowSchema]
) -> BatchFn | None:
    """Batch predicate kernel, or None (fall back to the row path)."""
    if not compile_enabled():
        return None
    return _memoized("vp", _predicate, expr, schemas)
