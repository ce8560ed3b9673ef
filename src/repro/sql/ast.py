"""Typed abstract syntax tree for the paper's SQL dialect.

All nodes are frozen dataclasses.  Transformations (NEST-N-J, NEST-JA2,
NEST-G, ...) never mutate a tree in place; they build rewritten copies
with :func:`dataclasses.replace` or the helpers at the bottom of this
module.  Frozen nodes give structural equality for free, which the test
suite leans on heavily when comparing transformed queries against the
paper's expected rewrites.

Naming follows the paper: a :class:`Select` is a *query block*; a
nested predicate is a :class:`Comparison`/:class:`InSubquery`/... whose
right-hand side is an inner query block.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

#: Comparison operators after normalization (``!=`` → ``<>``,
#: ``!>`` → ``<=``, ``!<`` → ``>=``).
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Mapping from the paper's archaic operator spellings to normal forms.
NORMALIZED_OPS = {"!=": "<>", "!>": "<=", "!<": ">="}

#: Negation of each comparison operator, used by NOT-pushdown and by the
#: ANY/ALL rewrites of section 8.
NEGATED_OPS = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Mirror image of each operator (``a op b``  ≡  ``b mirror(op) a``).
MIRRORED_OPS = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Aggregate function names recognized by the dialect.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Node:
    """Marker base class for all AST nodes."""

    __slots__ = ()


class Expr(Node):
    """Marker base class for scalar expressions and predicates."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference such as ``SP.ORIGIN``.

    Attributes:
        table: the qualifying table name or alias, or None when the
            reference is unqualified and must be bound by context.
        column: the column name.
    """

    table: str | None
    column: str

    def qualified(self) -> str:
        """Return the display form, e.g. ``"SP.ORIGIN"`` or ``"QOH"``."""
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant: int, float, string, or None (the SQL NULL).

    Two literals are equal only when their values have the same type:
    ``1``, ``1.0`` and ``TRUE`` are different constants, so a memo keyed
    on an expression tree never hands one's closure to another.
    """

    value: object

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Literal)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        # Not hash(type(value)): a type hashes by address, which would
        # make set orders, and with them plans, differ between processes.
        return hash((self.value,))


@dataclass(frozen=True)
class Parameter(Expr):
    """A bind-parameter placeholder: ``?`` (positional) or ``:name``.

    Parameters carry no value at plan time; the serving layer binds a
    concrete literal per execution.  ``index`` is the zero-based slot in
    the statement's parameter vector (positional markers are numbered in
    parse order; every occurrence of the same ``:name`` shares one slot).

    NEST-A adds hidden slots after the statement's own: a type-A block
    becomes a value link whose result binds one at replay
    (:class:`~repro.core.transform.TempTableDef`).  A *list slot* binds
    the value list of an ``IN`` and is only ever an ``IN`` list's one
    item, printed ``x [NOT] IN ?``.

    Attributes:
        index: zero-based position in the bound parameter vector.
        name: the name for ``:name`` markers, or None for ``?``.
        is_list: a list slot.
    """

    index: int
    name: str | None = None
    is_list: bool = False


@dataclass(frozen=True)
class Star(Expr):
    """The ``*`` in ``SELECT *`` or ``COUNT(*)`` (optionally qualified)."""

    table: str | None = None


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function application, e.g. ``MAX(PNO)`` or ``COUNT(*)``.

    Only the five SQL aggregates are meaningful to the engine; other
    names parse but fail at bind time.

    Attributes:
        name: upper-case function name.
        arg: the argument expression (a :class:`Star` for ``COUNT(*)``).
        distinct: True for ``COUNT(DISTINCT c)`` and friends.
    """

    name: str
    arg: Expr
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class UnaryMinus(Expr):
    """Arithmetic negation ``-x``."""

    operand: Expr


@dataclass(frozen=True)
class BinaryArith(Expr):
    """Arithmetic expression with op in ``+ - * /``."""

    left: Expr
    op: str
    right: Expr


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesized query block used as a scalar value.

    The inner block is expected to yield exactly one column and at most
    one row (zero rows evaluate to NULL, the behaviour the paper assumes
    in section 5.3: ``MAX({}) = NULL``).
    """

    query: "Select"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison(Expr):
    """A comparison predicate ``left op right``.

    Either side may be a :class:`ScalarSubquery`, which is how the
    paper's scalar nested predicates (``Ri.Ch op Q``) are represented.

    Attributes:
        outer: None for an ordinary comparison; ``"left"``, ``"right"``
            or ``"full"`` for the outer-join comparison of section 5.2
            (the paper writes it ``R.X =+ S.Y``).  Only meaningful when
            the comparison is used as a join predicate.
        null_safe: True for the null-safe equality ``a <=> b`` (SQL's
            IS NOT DISTINCT FROM): NULL <=> NULL is *true* and never
            unknown.  NEST-JA2 emits it for the final COUNT-case join so
            the zero-count groups preserved by the outer join are not
            dropped again when the outer join column itself is NULL.
    """

    left: Expr
    op: str
    right: Expr
    outer: str | None = None
    null_safe: bool = False

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"invalid comparison operator {self.op!r}")
        if self.outer not in (None, "left", "right", "full"):
            raise ValueError(f"invalid outer-join marker {self.outer!r}")
        if self.null_safe and self.op != "=":
            raise ValueError("null_safe is only valid for the = operator")


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal values — or, as its
    one item, a list slot (:class:`Parameter`) bound to a whole list."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


def list_slot(expr: InList) -> Parameter | None:
    """The list slot ``expr`` reads its items from, or None."""
    if len(expr.items) != 1:
        return None
    item = expr.items[0]
    return item if isinstance(item, Parameter) and item.is_list else None


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — the paper also writes ``IS IN``."""

    operand: Expr
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)`` (section 8.1)."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Quantified(Expr):
    """``expr op ANY|ALL (SELECT ...)`` (section 8.2; SOME ≡ ANY)."""

    operand: Expr
    op: str
    quantifier: str
    query: "Select"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"invalid comparison operator {self.op!r}")
        if self.quantifier not in ("ANY", "ALL"):
            raise ValueError(f"invalid quantifier {self.quantifier!r}")


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""

    operands: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    operands: tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr


# ---------------------------------------------------------------------------
# Query blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef(Node):
    """An entry in a FROM clause.

    Attributes:
        name: the catalog table name.
        alias: optional alias; when present, column references use it.
        semi: plan syntax (``FROM PARTS, SEMI JTEMP_3``), never a user's:
            the table is semi-joined — a row of the tables before it
            survives once when some row of this one satisfies every
            conjunct that reads it, and none of its columns come out.
            NEST-G marks the inner temp of an ``IN`` so.
    """

    name: str
    alias: str | None = None
    semi: bool = False

    @property
    def binding(self) -> str:
        """The name columns are qualified with inside the block."""
        return self.alias or self.name


@dataclass(frozen=True)
class SelectItem(Node):
    """One item of a SELECT clause, with an optional output alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One item of an ORDER BY clause."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Node):
    """A SQL query block (the paper's unit of nesting).

    Attributes:
        items: the SELECT clause.
        from_tables: the FROM clause.
        where: the WHERE predicate, or None.
        group_by: GROUP BY expressions.
        having: HAVING predicate, or None.
        order_by: ORDER BY items.
        distinct: True for ``SELECT DISTINCT``.
    """

    items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False

    @property
    def table_bindings(self) -> tuple[str, ...]:
        """Names that qualify columns of this block's own FROM clause."""
        return tuple(ref.binding for ref in self.from_tables)

    def has_aggregate_select(self) -> bool:
        """True when any SELECT item contains an aggregate function call.

        This is the test Kim's classification applies to the inner
        query block to separate type-A/JA from type-N/J nesting.
        """
        return any(contains_aggregate(item.expr) for item in self.items)


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


#: The fields of each node type that hold child nodes (a node, a tuple
#: of nodes, or None), in source order.  ``children`` and
#: ``map_children`` both read it, so a traversal and a rebuild can never
#: disagree about what a node contains.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    ColumnRef: (),
    Literal: (),
    Star: (),
    Parameter: (),
    TableRef: (),
    FuncCall: ("arg",),
    UnaryMinus: ("operand",),
    BinaryArith: ("left", "right"),
    ScalarSubquery: ("query",),
    Comparison: ("left", "right"),
    IsNull: ("operand",),
    InList: ("operand", "items"),
    InSubquery: ("operand", "query"),
    Exists: ("query",),
    Quantified: ("operand", "query"),
    Between: ("operand", "low", "high"),
    And: ("operands",),
    Or: ("operands",),
    Not: ("operand",),
    SelectItem: ("expr",),
    OrderItem: ("expr",),
    Select: ("items", "from_tables", "where", "group_by", "having", "order_by"),
}


def _child_fields(node: Node) -> tuple[str, ...]:
    try:
        return _CHILD_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"not an AST node: {node!r}") from None


def children(node: Node) -> list[Node]:
    """The direct AST children of ``node`` (excluding None), in order."""
    found: list[Node] = []
    for name in _child_fields(node):
        value = getattr(node, name)
        if isinstance(value, tuple):
            found.extend(value)
        elif value is not None:
            found.append(value)
    return found


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """Rebuild ``node`` from ``fn`` of each direct child.

    The same object comes back when ``fn`` changed nothing, so untouched
    subtrees keep their identity.  A rewriter states the nodes it changes
    and hands every other node here.
    """
    changed: dict[str, object] = {}
    for name in _child_fields(node):
        value = getattr(node, name)
        if isinstance(value, tuple):
            mapped = tuple(fn(child) for child in value)
            if any(new is not old for new, old in zip(mapped, value)):
                changed[name] = mapped
        elif value is not None:
            mapped = fn(value)
            if mapped is not value:
                changed[name] = mapped
    return replace(node, **changed) if changed else node


def rewrite_leaves(node: Node, leaf: Callable[[Expr], Expr]) -> Node:
    """Rebuild a tree bottom-up, applying ``leaf`` to every leaf expression.

    ``leaf`` receives each :class:`Literal`/:class:`Parameter`/
    :class:`ColumnRef`/:class:`Star` and returns a replacement (or the
    node unchanged); FROM-clause entries are not expressions and stay.
    """

    def rewrite(node: Node) -> Node:
        if isinstance(node, (Literal, Parameter, ColumnRef, Star)):
            return leaf(node)
        if isinstance(node, TableRef):
            return node
        return map_children(node, rewrite)

    return rewrite(node)


def walk(node: Node, *, into_subqueries: bool = True) -> Iterator[Node]:
    """Yield ``node`` and all its descendants in preorder.

    Args:
        into_subqueries: when False, do not descend into nested
            :class:`Select` blocks (their node is still yielded).  The
            classification code uses this to examine one block at a time.
    """
    # An explicit stack: a recursive generator pays one frame per level
    # for every node it yields, and planning walks each tree many times.
    root = node
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if not into_subqueries and node is not root and isinstance(node, Select):
            continue
        below = children(node)
        below.reverse()
        stack.extend(below)


def binding_tables(select: Select) -> dict[str, str]:
    """Binding (alias or name) → table name, across every block of a
    bound statement, where one binding names one table
    (:func:`~repro.core.pipeline.bind_columns`)."""
    return {
        node.binding: node.name for node in walk(select) if isinstance(node, TableRef)
    }


def user_param_count(select: Select) -> int:
    """Number of parameter slots the user's SQL declares (0 if none):
    the highest ``?`` index + 1."""
    return 1 + max(
        (node.index for node in walk(select) if isinstance(node, Parameter)),
        default=-1,
    )


def column_refs(node: Node, *, into_subqueries: bool = False) -> Iterator[ColumnRef]:
    """Yield every :class:`ColumnRef` under ``node``.

    By default nested query blocks are *not* entered, so the result is
    the set of columns referenced by the current block itself.
    """
    for item in walk(node, into_subqueries=into_subqueries):
        if isinstance(item, ColumnRef):
            yield item


def contains_aggregate(expr: Expr) -> bool:
    """True when ``expr`` contains an aggregate call outside subqueries."""
    return any(
        isinstance(node, FuncCall) and node.is_aggregate
        for node in walk(expr, into_subqueries=False)
    )


def conjuncts(predicate: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts.

    ``None`` (no WHERE clause) flattens to the empty list.
    """
    if predicate is None:
        return []
    if isinstance(predicate, And):
        result: list[Expr] = []
        for operand in predicate.operands:
            result.extend(conjuncts(operand))
        return result
    return [predicate]


def make_and(predicates: Iterable[Expr | None]) -> Expr | None:
    """AND together predicates, flattening and dropping Nones.

    Returns None for an empty input, the single predicate for a
    singleton, and a flattened :class:`And` otherwise.
    """
    flat: list[Expr] = []
    for predicate in predicates:
        if predicate is not None:
            flat.extend(conjuncts(predicate))
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))
