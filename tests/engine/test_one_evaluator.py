"""One evaluator per job, checked against the tree-walking oracle.

A small expression grammar — NULL, int, float, str and bool literals
and parameters, columns; unary minus, ``+ - * /``, every comparison,
``<=>``, AND / OR / NOT nesting, BETWEEN, IN-list — is evaluated over
random rows three ways: the compiled row closure, the batch kernel
(whole batch and random selection vectors), and the oracle under
``tests/``.  A closure gives the oracle's value, or the oracle's
exception type and message.  A kernel gives the oracle's values when no
selected row raises, and otherwise raises the exception type of one of
the rows that do — which cell reports first is unspecified (DESIGN
§4b).

Beyond the grammar: the nodes that can only fail raise only when a row
is evaluated (an empty input stays silent, through the operators and
through nested iteration), and subquery closures agree with the oracle
through :class:`NestedIterationExecutor`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.difftest.grammar import Case
from repro.engine.compile import compile_predicate, compile_scalar
from repro.engine.expression import EvalContext
from repro.engine.nested_iteration import NestedIterationExecutor
from repro.engine.operators import restrict_project
from repro.engine.params import bound_params
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.vector_compile import compile_batch_predicate, compile_batch_scalar
from repro.errors import BindError, ExecutionError
from repro.sql.ast import (
    And,
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Parameter,
    UnaryMinus,
)
from repro.sql.parser import parse, parse_expression
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from tests.expression_oracle import eval_predicate, eval_scalar

FIELDS = [("T", "A"), ("T", "B"), ("T", "C")]
SCHEMA = RowSchema(FIELDS)

VALUES = st.one_of(
    st.none(),
    st.integers(-2, 3),
    st.sampled_from([0.0, 0.5, -1.5, 2.0]),
    st.sampled_from(["a", "b", ""]),
    st.booleans(),
)
LEAVES = st.one_of(
    VALUES.map(Literal),
    st.integers(0, 1).map(Parameter),
    st.sampled_from(FIELDS).map(lambda field: ColumnRef(*field)),
)
SCALARS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(UnaryMinus),
        st.builds(BinaryArith, inner, st.sampled_from("+-*/"), inner),
    ),
    max_leaves=4,
)
ATOMS = st.one_of(
    st.builds(
        Comparison, SCALARS, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        SCALARS,
    ),
    st.builds(lambda l, r: Comparison(l, "=", r, null_safe=True), SCALARS, SCALARS),
    st.builds(Between, SCALARS, SCALARS, SCALARS, st.booleans()),
    st.builds(
        lambda value, items, negated: InList(value, tuple(items), negated),
        SCALARS, st.lists(SCALARS, min_size=1, max_size=3), st.booleans(),
    ),
    st.builds(IsNull, SCALARS, st.booleans()),
)
PREDICATES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        inner.map(Not),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
    ),
    max_leaves=4,
)
ROWS = st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=6)
PARAMS = st.tuples(VALUES, VALUES)


def outcome(evaluate):
    """``("ok", repr(value))`` or ``("error", type, message)``."""
    try:
        return ("ok", repr(evaluate()))
    except Exception as error:
        return ("error", type(error), str(error))


def check(expr, rows, params, selection, predicate):
    closure = (compile_predicate if predicate else compile_scalar)(expr, SCHEMA)
    kernel = (compile_batch_predicate if predicate else compile_batch_scalar)(
        expr, SCHEMA
    )
    oracle = eval_predicate if predicate else eval_scalar
    cols = list(zip(*rows))
    with bound_params(params):
        expected = [
            outcome(lambda row=row: oracle(expr, EvalContext(row, SCHEMA)))
            for row in rows
        ]
        for row, want in zip(rows, expected):
            assert outcome(lambda: closure(row, None)) == want, row
        for sel in (None, selection):
            chosen = expected if sel is None else [expected[i] for i in sel]
            raised = {want[1] for want in chosen if want[0] == "error"}
            got = outcome(lambda: list(kernel(cols, len(rows), sel)))
            if raised:
                assert got[0] == "error" and got[1] in raised, (sel, got)
            else:
                values = "[" + ", ".join(want[1] for want in chosen) + "]"
                assert got == ("ok", values), sel


def selections(rows):
    return st.lists(st.sampled_from(range(len(rows))), unique=True).map(sorted)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), expr=PREDICATES, rows=ROWS, params=PARAMS)
def test_predicate_closure_kernel_and_oracle_agree(data, expr, rows, params):
    check(expr, rows, params, data.draw(selections(rows)), predicate=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), expr=SCALARS, rows=ROWS, params=PARAMS)
def test_scalar_closure_kernel_and_oracle_agree(data, expr, rows, params):
    check(expr, rows, params, data.draw(selections(rows)), predicate=False)


def test_equal_values_of_different_types_are_different_literals():
    # 1, 1.0 and TRUE hash alike; the compile memo must still keep them
    # apart (``A + TRUE`` is an error, ``A + 1.0`` a float).
    for value in (1, 1.0, True):
        expr = BinaryArith(ColumnRef("T", "A"), "+", Literal(value))
        assert outcome(lambda: compile_scalar(expr, SCHEMA)((1, 0, 0), None)) == (
            outcome(lambda: eval_scalar(expr, EvalContext((1, 0, 0), SCHEMA)))
        )


def test_literal_hash_repeats_across_processes():
    # Under a fixed PYTHONHASHSEED, set orders (and the plans built from
    # them) must repeat from one process to the next: a literal's hash
    # may not depend on where an object sits in memory.
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    code = (
        "from repro.sql.ast import Literal;"
        "print([hash(Literal(v)) for v in (1, 2.5, 'x', True)])"
    )
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    runs = {
        subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        for _ in range(2)
    }
    assert len(runs) == 1, runs


# -- nodes that can only fail ----------------------------------------------------

#: (WHERE predicate, the error evaluating it raises).
RAISING = [
    ("COUNT(T.A) = 1", ExecutionError),  # an aggregate outside aggregation
    ("T.A", ExecutionError),  # a scalar as a predicate
    ("(T.A = 1) + 1 = 2", ExecutionError),  # a predicate as a scalar
    ("T.MISSING = 1", BindError),  # an unresolvable column
    ("T.A IN (SELECT U.C FROM U)", ExecutionError),  # no subquery handler
]


def make_catalog(rows):
    """``T(A, B)`` holding ``rows`` beside a small ``U(A, C)``."""
    return Case(
        rows={"T": rows, "U": [(1, 1), (2, None), (3, 5)]}, sql=""
    ).build_catalog()


@pytest.mark.parametrize("predicate, error", RAISING)
def test_raising_nodes_raise_only_when_a_row_is_evaluated(predicate, error):
    where = parse_expression(predicate)
    buffer = BufferPool(DiskManager(), capacity=8)
    schema = RowSchema([("T", "A"), ("T", "B")])

    def restrict(rows):
        source = Relation.materialize(schema, rows, buffer)
        return restrict_project(source, predicate=where).to_list()

    assert restrict([]) == []
    with pytest.raises(error):
        restrict([(1, 2)])

    if "SELECT" in predicate:
        return  # nested iteration is the subquery handler
    select = parse(f"SELECT T.A FROM T WHERE {predicate}")
    empty = NestedIterationExecutor(make_catalog([]))
    assert empty.execute(select).rows == []
    with pytest.raises(error):
        NestedIterationExecutor(make_catalog([(1, 2)])).execute(select)


# -- subquery closures through nested iteration ------------------------------------

SUBQUERY_PREDICATES = [
    "T.B IN (SELECT U.C FROM U WHERE U.A <= T.A)",
    "T.B NOT IN (SELECT U.C FROM U)",
    "EXISTS (SELECT U.A FROM U WHERE U.A = T.A)",
    "NOT EXISTS (SELECT U.A FROM U WHERE U.C = T.B)",
    "T.B > ALL (SELECT U.C FROM U WHERE U.A < T.A)",
    "T.B = ANY (SELECT U.C FROM U WHERE U.A >= T.A)",
    "T.B = (SELECT MAX(U.C) FROM U WHERE U.A = T.A)",
    "T.A = 1 OR T.B < (SELECT COUNT(U.C) FROM U WHERE U.A < T.A)",
]


@pytest.mark.parametrize("predicate", SUBQUERY_PREDICATES)
def test_subquery_closures_agree_with_the_oracle(predicate):
    rng = random.Random(predicate)
    rows = [
        (rng.choice([None, 1, 2, 3]), rng.choice([None, 0, 1, 5]))
        for _ in range(12)
    ]
    executor = NestedIterationExecutor(make_catalog(rows))
    select = parse(f"SELECT T.A, T.B FROM T WHERE {predicate}")
    got = executor.execute(select).rows

    expr = parse_expression(predicate)
    schema = RowSchema([("T", "A"), ("T", "B")])
    expected = [
        row
        for row in rows
        if eval_predicate(expr, EvalContext(row, schema, subquery_handler=executor))
        is True
    ]
    assert got == expected
