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

Semantics are the row closures' cell for cell:

* AND/OR gate their later operands through **selection vectors** — the
  second conjunct is evaluated only at rows where the first is not
  already False (not True for OR), exactly the set of cells a
  row-at-a-time short-circuit evaluates, so data-dependent errors are
  raised iff row-at-a-time evaluation would raise them.  (Within one
  kernel, cells are visited in row order; *across* operands a batch
  evaluates column-at-a-time, so which of several erroneous cells
  reports first is unspecified — the operators' error-surfacing
  contract, :mod:`repro.engine.operators`.)
* every value is computed by the cell rules of :mod:`repro.engine.compile`
  (comparison with its mixed-type error, ``<=>``, arithmetic, BETWEEN,
  IN-list membership); what a kernel adds is only its **same-type fast
  paths**, where those rules' errors are impossible.

Compilation never declines.  A kernel evaluates one row scope; a node
outside the batch repertoire — a subquery, an aggregate or ``*`` as a
scalar, a predicate used as a scalar, a column that does not resolve in
that scope — runs as its row closure over the selected rows, so it
raises exactly when a selected row is evaluated and an empty selection
stays silent.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

from repro.engine.compile import (
    ARITHMETIC,
    COMPARISON,
    CompiledFn,
    arithmetic,
    between,
    comparison,
    compile_predicate,
    compile_scalar,
    membership,
    memoized,
    negation,
    null_safe_equal,
    slot_membership,
)
from repro.engine.params import param_value
from repro.engine.schema import RowSchema
from repro.errors import BindError, ExecutionError
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
    list_slot,
)

#: A batch kernel: ``fn(cols, n, sel) -> column`` (dense over ``sel``).
BatchFn = Callable[[list, int, "list[int] | None"], list]


def null_mask(column: Sequence) -> list[bool]:
    """Explicit validity vector for a value column (True = NULL)."""
    return [value is None for value in column]


# Type-domain fast paths.  ``set(map(type, column))`` runs at C speed;
# when both operand columns are homogeneous (all numbers, or all
# strings, optionally with NULLs) the kernel can dispatch to a
# ``map``/comprehension with no per-element type checking, because the
# cell rules' mixed-type :class:`ExecutionError` is impossible within
# the domain.  Note ``bool`` is deliberately NOT numeric (it falls to
# the cell rule, which raises on bool-vs-number).
_NONE = type(None)
_NUM = frozenset((int, float))
_NUM_N = frozenset((int, float, _NONE))
_STR = frozenset((str,))
_STR_N = frozenset((str, _NONE))


def _same_domain(lk: set, rk: set, nulls: bool) -> bool:
    """Both columns numbers, or both strings (NULLs admitted when asked)."""
    num, text = (_NUM_N, _STR_N) if nulls else (_NUM, _STR)
    return (lk <= num and rk <= num) or (lk <= text and rk <= text)


# -- helpers -----------------------------------------------------------------


def _out_length(n: int, sel: list[int] | None) -> int:
    return n if sel is None else len(sel)


def _lifted(fn: CompiledFn) -> BatchFn:
    """A row closure evaluated at each selected row of the batch."""

    def lifted(cols, n, sel):
        rows = list(zip(*cols)) if cols else [()] * n
        if sel is None:
            return [fn(row, None) for row in rows]
        return [fn(rows[i], None) for i in sel]

    return lifted


def _position(ref: ColumnRef, schema: RowSchema) -> int | None:
    """The column's index, or None when it does not resolve uniquely."""
    try:
        return schema.try_index_of(ref)
    except BindError:
        return None


# -- scalar kernels ----------------------------------------------------------


def _scalar(expr: Expr, schema: RowSchema) -> BatchFn:
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
    position = _position(expr, schema) if isinstance(expr, ColumnRef) else None
    if position is not None:

        def column(cols, n, sel):
            source = cols[position]
            if sel is None:
                return source
            return [source[i] for i in sel]

        return column
    if isinstance(expr, UnaryMinus):
        operand = _scalar(expr.operand, schema)

        def negate(cols, n, sel):
            values = operand(cols, n, sel)
            kinds = set(map(type, values))
            if kinds <= _NUM:
                return list(map(operator.neg, values))
            if kinds <= _NUM_N:
                return [None if v is None else -v for v in values]
            return list(map(negation, values))

        return negate
    if isinstance(expr, BinaryArith) and expr.op in ARITHMETIC:
        left = _scalar(expr.left, schema)
        right = _scalar(expr.right, schema)
        py_op, cell = ARITHMETIC[expr.op], arithmetic(expr.op)

        def arith(cols, n, sel):
            lv = left(cols, n, sel)
            rv = right(cols, n, sel)
            lk = set(map(type, lv))
            rk = set(map(type, rv))
            if lk <= _NUM_N and rk <= _NUM_N:
                try:
                    if lk <= _NUM and rk <= _NUM:
                        return list(map(py_op, lv, rv))
                    return [
                        None if a is None or b is None else py_op(a, b)
                        for a, b in zip(lv, rv)
                    ]
                except ZeroDivisionError:
                    raise ExecutionError("division by zero") from None
            return list(map(cell, lv, rv))

        return arith
    return _lifted(compile_scalar(expr, schema))


# -- predicate kernels -------------------------------------------------------


def _compare_kernel(
    op: str, left: BatchFn, right: BatchFn, null_safe: bool = False
) -> BatchFn:
    py_op = COMPARISON[op]
    cell = null_safe_equal if null_safe else comparison(op)

    def compare(cols, n, sel):
        lv = left(cols, n, sel)
        rv = right(cols, n, sel)
        lk = set(map(type, lv))
        rk = set(map(type, rv))
        if _same_domain(lk, rk, nulls=False):
            return list(map(py_op, lv, rv))
        if _same_domain(lk, rk, nulls=True):
            return [
                (a is None and b is None if null_safe else None)
                if a is None or b is None
                else py_op(a, b)
                for a, b in zip(lv, rv)
            ]
        return list(map(cell, lv, rv))

    return compare


def _predicate(expr: Expr, schema: RowSchema) -> BatchFn:
    if isinstance(expr, And):
        parts = [_predicate(operand, schema) for operand in expr.operands]
        return _gated_connective(parts, short_circuit=False)
    if isinstance(expr, Or):
        parts = [_predicate(operand, schema) for operand in expr.operands]
        return _gated_connective(parts, short_circuit=True)
    if isinstance(expr, Not):
        operand = _predicate(expr.operand, schema)

        def negate(cols, n, sel):
            return [
                None if value is None else not value
                for value in operand(cols, n, sel)
            ]

        return negate
    if isinstance(expr, Comparison):
        return _compare_kernel(
            expr.op,
            _scalar(expr.left, schema),
            _scalar(expr.right, schema),
            null_safe=expr.null_safe,
        )
    if isinstance(expr, IsNull):
        operand = _scalar(expr.operand, schema)
        negated = expr.negated

        def is_null(cols, n, sel):
            mask = null_mask(operand(cols, n, sel))
            if negated:
                return [not value for value in mask]
            return mask

        return is_null
    if isinstance(expr, Between):
        value_fn = _scalar(expr.operand, schema)
        ge = _compare_kernel(">=", value_fn, _scalar(expr.low, schema))
        le = _compare_kernel("<=", value_fn, _scalar(expr.high, schema))
        negated = expr.negated

        def within(cols, n, sel):
            # Both bounds compared eagerly, like the row closures.
            above = ge(cols, n, sel)
            below = le(cols, n, sel)
            return [between(a, b, negated) for a, b in zip(above, below)]

        return within
    if isinstance(expr, InList) and (slot := list_slot(expr)) is not None:
        value_fn = _scalar(expr.operand, schema)
        index, name, negated = slot.index, slot.name, expr.negated

        def in_slot(cols, n, sel):
            items = param_value(index, name)
            return [
                slot_membership(value, items, negated)
                for value in value_fn(cols, n, sel)
            ]

        return in_slot
    if isinstance(expr, InList):
        value_fn = _scalar(expr.operand, schema)
        item_fns = [_scalar(item, schema) for item in expr.items]
        negated = expr.negated

        def in_list(cols, n, sel):
            values = value_fn(cols, n, sel)
            items = [fn(cols, n, sel) for fn in item_fns]
            return [
                membership(value, row_items, negated)
                for value, *row_items in zip(values, *items)
            ]

        return in_list
    return _lifted(compile_predicate(expr, schema))


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
    """Schema positions an expression of the batch repertoire reads.

    Returns None when the expression contains anything outside that
    repertoire (subquery, unresolvable reference, unsupported node) —
    callers must then draw no sidedness conclusions.  Used by the hash
    join to push a one-sided residual to the side it reads (see
    :func:`repro.engine.operators.hash_probe_body`).
    """
    found: set[int] = set()

    def walk(node: Expr) -> bool:
        if isinstance(node, (Literal, Parameter)):
            return True
        if isinstance(node, ColumnRef):
            position = _position(node, schema)
            if position is None:
                return False
            found.add(position)
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


# -- front door ----------------------------------------------------------------


def compile_batch_scalar(expr: Expr, schema: RowSchema) -> BatchFn:
    """Batch scalar kernel over one row scope."""
    return memoized(("vs", expr, schema), lambda: _scalar(expr, schema))


def compile_batch_predicate(expr: Expr, schema: RowSchema) -> BatchFn:
    """Batch predicate kernel over one row scope."""
    return memoized(("vp", expr, schema), lambda: _predicate(expr, schema))
