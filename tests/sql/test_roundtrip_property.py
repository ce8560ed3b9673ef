"""Property test: parse(to_sql(ast)) round-trips for generated ASTs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.ast import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Exists,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    Quantified,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.parser import parse
from repro.sql.printer import to_sql

identifiers = st.sampled_from(["PNUM", "QOH", "QUAN", "SHIPDATE", "CITY"])
tables = st.sampled_from(["PARTS", "SUPPLY", "S", "SP", "P"])
operators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])

column_refs = st.builds(
    ColumnRef, st.one_of(st.none(), tables), identifiers
)
literals = st.one_of(
    st.integers(-1000, 1000).map(Literal),
    st.text(
        alphabet="abcXYZ0123456789' -", min_size=0, max_size=8
    ).map(Literal),
    st.just(Literal(None)),
)
scalars = st.one_of(column_refs, literals)

aggregates = st.builds(
    FuncCall,
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    column_refs,
    st.booleans(),
) | st.just(FuncCall("COUNT", Star()))


def predicates(select_strategy):
    base = st.one_of(
        st.builds(Comparison, scalars, operators, scalars),
        st.builds(IsNull, column_refs, st.booleans()),
        st.builds(
            InList,
            column_refs,
            st.lists(literals, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(Between, column_refs, scalars, scalars, st.booleans()),
        st.builds(InSubquery, column_refs, select_strategy, st.booleans()),
        st.builds(Exists, select_strategy, st.booleans()),
        st.builds(
            Quantified,
            column_refs,
            st.sampled_from(["<", "<=", ">", ">="]),
            st.sampled_from(["ANY", "ALL"]),
            select_strategy,
        ),
        st.builds(
            Comparison,
            column_refs,
            operators,
            select_strategy.map(ScalarSubquery),
        ),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3)
            .map(tuple)
            .map(And),
            st.lists(children, min_size=2, max_size=3).map(tuple).map(Or),
            children.map(Not),
        ),
        max_leaves=6,
    )


def selects(depth=2):
    if depth == 0:
        where = st.none()
    else:
        where = st.one_of(st.none(), predicates(selects(depth - 1)))
    items = st.one_of(
        st.lists(
            st.builds(SelectItem, st.one_of(scalars, aggregates), st.none()),
            min_size=1,
            max_size=3,
        ).map(tuple),
        st.just((SelectItem(Star()),)),
    )
    return st.builds(
        Select,
        items=items,
        from_tables=st.lists(
            st.builds(TableRef, tables, st.none(), st.booleans()),
            min_size=1,
            max_size=2,
        ).map(tuple),
        where=where,
        group_by=st.just(()),
        having=st.none(),
        order_by=st.just(()),
        distinct=st.booleans(),
    )


@given(selects())
@settings(max_examples=150, deadline=None)
def test_parse_print_roundtrip(block):
    """Printing then re-parsing yields a structurally equal AST."""
    printed = to_sql(block)
    reparsed = parse(printed)
    # Printing is a fixed point even when the original AST contains
    # forms the parser normalizes away.
    assert to_sql(reparsed) == printed
    assert parse(to_sql(reparsed)) == reparsed
