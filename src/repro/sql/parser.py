"""Recursive-descent parser for the paper's SQL dialect.

Grammar (roughly, in precedence order)::

    select      := SELECT [DISTINCT] items FROM tables [WHERE pred]
                   [GROUP BY exprs] [HAVING pred] [ORDER BY order_items]
    pred        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := EXISTS '(' select ')'
                 | addition (comparison | in | between | is-null)?
    comparison  := op (ANY|ALL|SOME)? (subquery | addition)
    in          := [IS] [NOT] IN '(' (select | literal-list) ')'
    addition    := multiplication (('+'|'-') multiplication)*
    multiplication := unary (('*'|'/') unary)*
    unary       := '-' unary | primary
    primary     := literal | funcall | column | '(' select ')' | '(' pred ')'

The paper's archaic spellings are normalized while parsing:

* ``IS IN`` / ``IS NOT IN`` → ``IN`` / ``NOT IN``;
* ``!=`` → ``<>``, ``!>`` → ``<=``, ``!<`` → ``>=``;
* ``= ANY`` → ``IN`` and ``<> ALL`` → ``NOT IN`` (section 8.2's
  "more simply" rules);
* ``SOME`` → ``ANY``;
* ``=+`` (the section 5.2 outer-join comparison) → an equality
  comparison with ``outer="left"`` (the left operand's relation is
  preserved, which is how algorithm NEST-JA2 uses it);
* ``SEMI <table>`` in a FROM clause (how the printer marks a
  semi-joined table of a plan) → ``TableRef.semi``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    NORMALIZED_OPS,
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
    OrderItem,
    Parameter,
    Quantified,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryMinus,
)
from repro.sql.lexer import Token, TokenType, tokenize


class Parser:
    """Parses one SQL statement from a token stream."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._index = 0
        # Bind-parameter bookkeeping: positional ``?`` markers take the
        # next free slot in parse order; every occurrence of the same
        # ``:name`` shares one slot.
        self._param_count = 0
        self._named_params: dict[str, int] = {}

    # -- token-stream helpers ------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _accept(self, type_: TokenType, value: str | None = None) -> Token | None:
        if self._current.matches(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: str | None = None) -> Token:
        token = self._accept(type_, value)
        if token is None:
            wanted = value or type_.value
            raise ParseError(
                f"expected {wanted}, found {self._current.value!r}",
                self._current.position,
            )
        return token

    def _accept_keyword(self, word: str) -> bool:
        return self._accept(TokenType.KEYWORD, word) is not None

    # -- entry points --------------------------------------------------------

    def parse_select(self) -> Select:
        """Parse a full SELECT statement (with optional trailing ``;``)."""
        select = self._select_block()
        self._accept(TokenType.PUNCT, ";")
        self._expect(TokenType.EOF)
        return select

    def parse_standalone_expression(self) -> Expr:
        """Parse a bare predicate/expression (used by tests and tools)."""
        expr = self._or_expr()
        self._expect(TokenType.EOF)
        return expr

    # -- query blocks --------------------------------------------------------

    def _select_block(self) -> Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = self._select_items()
        self._expect(TokenType.KEYWORD, "FROM")
        from_tables = self._table_refs()

        where = None
        if self._accept_keyword("WHERE"):
            where = self._or_expr()

        group_by: tuple[Expr, ...] = ()
        if self._current.matches(TokenType.KEYWORD, "GROUP"):
            self._advance()
            self._expect(TokenType.KEYWORD, "BY")
            group_by = tuple(self._expression_list())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._or_expr()

        order_by: tuple[OrderItem, ...] = ()
        if self._current.matches(TokenType.KEYWORD, "ORDER"):
            self._advance()
            self._expect(TokenType.KEYWORD, "BY")
            order_by = tuple(self._order_items())

        return Select(
            items=items,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            distinct=distinct,
        )

    def _select_items(self) -> tuple[SelectItem, ...]:
        items = [self._select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> SelectItem:
        if self._current.matches(TokenType.OPERATOR, "*"):
            self._advance()
            return SelectItem(Star())
        # Qualified star: IDENT '.' '*'
        if (
            self._current.type is TokenType.IDENT
            and self._peek().matches(TokenType.PUNCT, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self._advance().value
            self._advance()
            self._advance()
            return SelectItem(Star(table))
        expr = self._addition()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _table_refs(self) -> tuple[TableRef, ...]:
        refs = [self._table_ref()]
        while self._accept(TokenType.PUNCT, ","):
            refs.append(self._table_ref())
        return tuple(refs)

    def _table_ref(self) -> TableRef:
        semi = self._accept_keyword("SEMI")
        name = self._expect(TokenType.IDENT).value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return TableRef(name, alias, semi)

    def _order_items(self) -> list[OrderItem]:
        items = [self._order_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> OrderItem:
        expr = self._addition()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr, descending)

    def _expression_list(self) -> list[Expr]:
        exprs = [self._addition()]
        while self._accept(TokenType.PUNCT, ","):
            exprs.append(self._addition())
        return exprs

    # -- predicates ----------------------------------------------------------

    def _or_expr(self) -> Expr:
        operands = [self._and_expr()]
        while self._accept_keyword("OR"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _and_expr(self) -> Expr:
        operands = [self._not_expr()]
        while self._accept_keyword("AND"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _not_expr(self) -> Expr:
        if self._accept_keyword("NOT"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        if self._current.matches(TokenType.KEYWORD, "EXISTS"):
            self._advance()
            query = self._parenthesized_select()
            return Exists(query)

        left = self._addition()
        return self._predicate_tail(left)

    def _predicate_tail(self, left: Expr) -> Expr:
        # IS NULL / IS NOT NULL / the paper's "IS [NOT] IN".
        if self._current.matches(TokenType.KEYWORD, "IS"):
            saved = self._index
            self._advance()
            negated = self._accept_keyword("NOT")
            if self._accept_keyword("NULL"):
                return IsNull(left, negated)
            if self._current.matches(TokenType.KEYWORD, "IN"):
                return self._in_predicate(left, negated)
            # Not an IS-form we know; rewind and treat `left` as value.
            self._index = saved
            return left

        if self._current.matches(TokenType.KEYWORD, "IN"):
            return self._in_predicate(left, negated=False)

        # Infix NOT: ``x NOT IN (...)`` / ``x NOT BETWEEN a AND b``.
        if self._current.matches(TokenType.KEYWORD, "NOT"):
            if self._peek().matches(TokenType.KEYWORD, "IN"):
                self._advance()
                return self._in_predicate(left, negated=True)
            if self._peek().matches(TokenType.KEYWORD, "BETWEEN"):
                self._advance()
                self._advance()
                low = self._addition()
                self._expect(TokenType.KEYWORD, "AND")
                high = self._addition()
                return Between(left, low, high, negated=True)

        if self._current.matches(TokenType.KEYWORD, "BETWEEN"):
            self._advance()
            low = self._addition()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._addition()
            return Between(left, low, high)

        if self._current.type is TokenType.OPERATOR:
            op_token = self._current.value
            if op_token == "=+":
                self._advance()
                right = self._addition()
                return Comparison(left, "=", right, outer="left")
            if op_token == "<=>":
                self._advance()
                right = self._addition()
                return Comparison(left, "=", right, null_safe=True)
            op = NORMALIZED_OPS.get(op_token, op_token)
            if op in COMPARISON_OPS:
                self._advance()
                return self._comparison_tail(left, op)

        return left

    def _comparison_tail(self, left: Expr, op: str) -> Expr:
        # Outer-join marker spelled with a space: ``= +`` is *not*
        # treated as outer join (it is unary plus, which we don't
        # support); only the fused ``=+`` token is.
        quantifier = None
        for word in ("ANY", "SOME", "ALL"):
            if self._current.matches(TokenType.KEYWORD, word):
                self._advance()
                quantifier = "ANY" if word == "SOME" else word
                break

        if quantifier is not None:
            query = self._parenthesized_select()
            # Section 8.2's direct simplifications.
            if op == "=" and quantifier == "ANY":
                return InSubquery(left, query, negated=False)
            if op == "<>" and quantifier == "ALL":
                return InSubquery(left, query, negated=True)
            return Quantified(left, op, quantifier, query)

        if self._is_select_ahead():
            query = self._parenthesized_select()
            return Comparison(left, op, ScalarSubquery(query))

        right = self._addition()
        return Comparison(left, op, right)

    def _in_predicate(self, left: Expr, negated: bool) -> Expr:
        self._expect(TokenType.KEYWORD, "IN")
        if not negated and self._accept_keyword("NOT"):
            # Tolerate "IN NOT" never; but accept "NOT IN" handled above.
            raise ParseError("misplaced NOT after IN", self._current.position)
        if self._is_select_ahead():
            query = self._parenthesized_select()
            return InSubquery(left, query, negated)
        self._expect(TokenType.PUNCT, "(")
        items = [self._addition()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._addition())
        self._expect(TokenType.PUNCT, ")")
        return InList(left, tuple(items), negated)

    def _is_select_ahead(self) -> bool:
        return self._current.matches(TokenType.PUNCT, "(") and self._peek().matches(
            TokenType.KEYWORD, "SELECT"
        )

    def _parenthesized_select(self) -> Select:
        self._expect(TokenType.PUNCT, "(")
        query = self._select_block()
        self._expect(TokenType.PUNCT, ")")
        return query

    # -- scalar expressions --------------------------------------------------

    def _addition(self) -> Expr:
        left = self._multiplication()
        while self._current.type is TokenType.OPERATOR and self._current.value in (
            "+",
            "-",
        ):
            op = self._advance().value
            right = self._multiplication()
            left = BinaryArith(left, op, right)
        return left

    def _multiplication(self) -> Expr:
        left = self._unary()
        while self._current.type is TokenType.OPERATOR and self._current.value in (
            "*",
            "/",
        ):
            op = self._advance().value
            right = self._unary()
            left = BinaryArith(left, op, right)
        return left

    def _unary(self) -> Expr:
        if self._current.matches(TokenType.OPERATOR, "-"):
            self._advance()
            return UnaryMinus(self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._current

        if token.type is TokenType.NUMBER:
            self._advance()
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))

        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)

        if token.matches(TokenType.KEYWORD, "NULL"):
            self._advance()
            return Literal(None)

        if token.type is TokenType.PARAM:
            self._advance()
            if token.value:
                index = self._named_params.get(token.value)
                if index is None:
                    index = self._param_count
                    self._param_count += 1
                    self._named_params[token.value] = index
                return Parameter(index, token.value)
            index = self._param_count
            self._param_count += 1
            return Parameter(index)

        if token.matches(TokenType.PUNCT, "("):
            if self._is_select_ahead():
                return ScalarSubquery(self._parenthesized_select())
            self._advance()
            expr = self._or_expr()
            self._expect(TokenType.PUNCT, ")")
            return expr

        if token.type is TokenType.IDENT:
            return self._identifier_expr()

        raise ParseError(
            f"unexpected token {token.value!r}", token.position
        )

    def _identifier_expr(self) -> Expr:
        name = self._advance().value

        # Function call (aggregates and, syntactically, anything else).
        if self._current.matches(TokenType.PUNCT, "("):
            self._advance()
            distinct = self._accept_keyword("DISTINCT")
            if self._accept(TokenType.OPERATOR, "*"):
                arg: Expr = Star()
            else:
                arg = self._addition()
            self._expect(TokenType.PUNCT, ")")
            if name not in AGGREGATE_FUNCTIONS:
                raise ParseError(f"unknown function {name!r}")
            return FuncCall(name, arg, distinct)

        # Qualified column: IDENT '.' IDENT
        if self._current.matches(TokenType.PUNCT, "."):
            self._advance()
            column = self._expect(TokenType.IDENT).value
            return ColumnRef(name, column)

        return ColumnRef(None, name)


def parse(source: str) -> Select:
    """Parse a SELECT statement and return its AST."""
    return Parser(source).parse_select()


def parse_expression(source: str) -> Expr:
    """Parse a standalone predicate or scalar expression."""
    return Parser(source).parse_standalone_expression()
