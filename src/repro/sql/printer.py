"""Render AST nodes back to SQL text.

The printer produces canonical, re-parseable SQL: normalized operators,
upper-case keywords, explicit parentheses around subqueries, and
``TEMP1.PNUM =+ TEMP2.PNUM`` for the outer-join comparison of section
5.2, ``FROM PARTS, SEMI JTEMP_3`` for a semi-joined table.  ``parse(to_sql(q))`` round-trips to an equal AST (tested by a
Hypothesis property in the test suite).
"""

from __future__ import annotations

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
    Node,
    Not,
    Or,
    OrderItem,
    Parameter,
    Quantified,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryMinus,
    list_slot,
)


def to_sql(node: Node) -> str:
    """Render any AST node as SQL text."""
    if isinstance(node, Select):
        return _select(node)
    return _expr(node)


def to_sql_pretty(node: Node, indent: int = 0) -> str:
    """Render a query block as indented, multi-line SQL.

    Clauses start on their own lines and nested query blocks are
    indented under the predicate that embeds them — the layout the
    paper's listings use.  The output re-parses to the same AST.
    """
    if not isinstance(node, Select):
        return _expr(node)
    pad = "    " * indent
    lines: list[str] = []

    select = "SELECT DISTINCT" if node.distinct else "SELECT"
    lines.append(
        f"{pad}{select} " + ", ".join(_select_item(item) for item in node.items)
    )
    lines.append(
        f"{pad}FROM " + ", ".join(_table_ref(ref) for ref in node.from_tables)
    )
    if node.where is not None:
        from repro.sql.ast import And

        # Split only the *immediate* operands: recursively flattening
        # (``conjuncts``) would erase parenthesized nested ANDs and the
        # output would no longer re-parse to the same AST.  A nested
        # And operand is rendered parenthesized by ``_boolean_operand``.
        parts = (
            list(node.where.operands)
            if isinstance(node.where, And)
            else [node.where]
        )
        rendered = [_pretty_predicate(part, indent) for part in parts]
        lines.append(f"{pad}WHERE " + f"\n{pad}  AND ".join(rendered))
    if node.group_by:
        lines.append(
            f"{pad}GROUP BY " + ", ".join(_expr(e) for e in node.group_by)
        )
    if node.having is not None:
        lines.append(f"{pad}HAVING {_expr(node.having)}")
    if node.order_by:
        lines.append(
            f"{pad}ORDER BY " + ", ".join(_order_item(i) for i in node.order_by)
        )
    return "\n".join(lines)


def _pretty_predicate(expr: Expr, indent: int) -> str:
    """One WHERE conjunct, with any embedded block broken out."""
    from repro.sql.ast import InSubquery, ScalarSubquery

    inner: Select | None = None
    prefix: str | None = None
    if isinstance(expr, InSubquery):
        inner = expr.query
        keyword = "NOT IN" if expr.negated else "IN"
        prefix = f"{_operand(expr.operand)} {keyword}"
    elif isinstance(expr, Comparison) and isinstance(expr.right, ScalarSubquery):
        inner = expr.right.query
        op = expr.op if expr.outer is None else f"{expr.op}+"
        prefix = f"{_operand(expr.left)} {op}"
    if inner is None or prefix is None:
        # A disjunction on the conjunct line must keep its parentheses,
        # or joining with AND would change precedence on re-parse.
        return _boolean_operand(expr)
    block = to_sql_pretty(inner, indent + 1)
    pad = "    " * indent
    return f"{prefix} (\n{block}\n{pad})"


def _select(block: Select) -> str:
    parts = ["SELECT"]
    if block.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in block.items))
    parts.append("FROM")
    parts.append(", ".join(_table_ref(ref) for ref in block.from_tables))
    if block.where is not None:
        parts.append("WHERE")
        parts.append(_expr(block.where))
    if block.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(_expr(expr) for expr in block.group_by))
    if block.having is not None:
        parts.append("HAVING")
        parts.append(_expr(block.having))
    if block.order_by:
        parts.append("ORDER BY")
        parts.append(", ".join(_order_item(item) for item in block.order_by))
    return " ".join(parts)


def _select_item(item: SelectItem) -> str:
    text = _expr(item.expr)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _table_ref(ref: TableRef) -> str:
    text = f"{ref.name} {ref.alias}" if ref.alias else ref.name
    return f"SEMI {text}" if ref.semi else text


def _order_item(item: OrderItem) -> str:
    text = _expr(item.expr)
    if item.descending:
        return f"{text} DESC"
    return text


def _expr(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.qualified()
    if isinstance(expr, Literal):
        return _literal(expr.value)
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, Parameter):
        return f":{expr.name}" if expr.name else "?"
    if isinstance(expr, FuncCall):
        inner = _expr(expr.arg)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})"
    if isinstance(expr, UnaryMinus):
        return f"-{_operand(expr.operand)}"
    if isinstance(expr, BinaryArith):
        return f"{_operand(expr.left)} {expr.op} {_operand(expr.right)}"
    if isinstance(expr, ScalarSubquery):
        return f"({_select(expr.query)})"
    if isinstance(expr, Comparison):
        op = expr.op
        if expr.outer is not None:
            op = f"{op}+"
        elif expr.null_safe:
            op = "<=>"
        return f"{_operand(expr.left)} {op} {_operand(expr.right)}"
    if isinstance(expr, IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_operand(expr.operand)} {middle}"
    if isinstance(expr, InList):
        items = ", ".join(_expr(item) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        if list_slot(expr):
            return f"{_operand(expr.operand)} {keyword} {items}"
        return f"{_operand(expr.operand)} {keyword} ({items})"
    if isinstance(expr, InSubquery):
        keyword = "NOT IN" if expr.negated else "IN"
        return f"{_operand(expr.operand)} {keyword} ({_select(expr.query)})"
    if isinstance(expr, Exists):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} ({_select(expr.query)})"
    if isinstance(expr, Quantified):
        return (
            f"{_operand(expr.operand)} {expr.op} {expr.quantifier} "
            f"({_select(expr.query)})"
        )
    if isinstance(expr, Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{_operand(expr.operand)} {keyword} "
            f"{_operand(expr.low)} AND {_operand(expr.high)}"
        )
    if isinstance(expr, And):
        return " AND ".join(_boolean_operand(op) for op in expr.operands)
    if isinstance(expr, Or):
        return " OR ".join(_boolean_operand(op) for op in expr.operands)
    if isinstance(expr, Not):
        return f"NOT {_boolean_operand(expr.operand)}"
    raise TypeError(f"cannot print {expr!r}")


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _operand(expr: Expr) -> str:
    """Print a comparison/arithmetic operand, parenthesizing compounds."""
    text = _expr(expr)
    if isinstance(expr, (BinaryArith, And, Or, Not, Comparison)):
        return f"({text})"
    return text


def _boolean_operand(expr: Expr) -> str:
    """Print an AND/OR operand, parenthesizing nested boolean operators."""
    text = _expr(expr)
    if isinstance(expr, (And, Or)):
        return f"({text})"
    return text
