"""The compiled expression layer must be indistinguishable from the
tree-walking oracle: same values, same three-valued logic, same errors
— and it compiles every expression the parser can produce."""

import pytest

from repro.engine.compile import compile_predicate, compile_scalar
from repro.engine.expression import EvalContext, SubqueryHandler
from repro.engine.schema import RowSchema
from repro.errors import BindError, ExecutionError
from repro.sql import ast
from repro.sql.parser import parse_expression
from tests.expression_oracle import eval_predicate, eval_scalar


SCHEMA = RowSchema([("T", "A"), ("T", "B"), ("T", "C")])

SCALAR_SOURCES = [
    "A",
    "T.B",
    "7",
    "-A",
    "A + B",
    "A - B * C",
    "A / B",
    "'x'",
]

PREDICATE_SOURCES = [
    "A = B",
    "A <> B",
    "A < 3",
    "A >= B",
    "A <=> B",
    "A = 1 AND B = 2",
    "A = 1 OR B = 2",
    "NOT A = 1",
    "A IS NULL",
    "A IS NOT NULL",
    "A BETWEEN 1 AND 3",
    "A NOT BETWEEN B AND C",
    "A IN (1, 2, 3)",
    "A NOT IN (1, B)",
]

ROWS = [
    (1, 2, 3),
    (2, 2, 2),
    (None, 2, 3),
    (1, None, 3),
    (None, None, None),
    (0, -1, 5),
]


def outcomes(*evaluations):
    """Each evaluation's value, or its error's type name and message."""
    results = []
    for evaluate in evaluations:
        try:
            results.append(("ok", evaluate()))
        except Exception as error:
            results.append(("error", type(error).__name__, str(error)))
    return results


def both_scalar(source, row):
    """(compiled value/error, oracle value/error) for one row."""
    expr = parse_expression(source)
    return outcomes(
        lambda: compile_scalar(expr, SCHEMA)(row, None),
        lambda: eval_scalar(expr, EvalContext(row, SCHEMA)),
    )


def both_predicate(source, row):
    expr = parse_expression(source)
    return outcomes(
        lambda: compile_predicate(expr, SCHEMA)(row, None),
        lambda: eval_predicate(expr, EvalContext(row, SCHEMA)),
    )


class TestScalarAgreement:
    @pytest.mark.parametrize("source", SCALAR_SOURCES)
    @pytest.mark.parametrize("row", ROWS)
    def test_matches_interpreter(self, source, row):
        compiled, interpreted = both_scalar(source, row)
        assert compiled == interpreted

    def test_division_by_zero_matches(self):
        compiled, interpreted = both_scalar("A / B", (1, 0, 0))
        assert compiled == interpreted
        assert compiled[0] == "error"

    def test_arith_type_error_matches(self):
        compiled, interpreted = both_scalar("A + B", (1, "x", 0))
        assert compiled == interpreted
        assert compiled[0] == "error"


class TestPredicateAgreement:
    @pytest.mark.parametrize("source", PREDICATE_SOURCES)
    @pytest.mark.parametrize("row", ROWS)
    def test_matches_interpreter(self, source, row):
        compiled, interpreted = both_predicate(source, row)
        assert compiled == interpreted

    def test_type_mismatch_error_is_identical(self):
        compiled, interpreted = both_predicate("A = B", (1, "x", 0))
        assert compiled == interpreted
        assert compiled[1] == "ExecutionError"
        assert "type mismatch" in compiled[2]

    def test_null_safe_equality_on_nulls(self):
        fn = compile_predicate(parse_expression("A <=> B"), SCHEMA)
        assert fn((None, None, 0), None) is True
        assert fn((None, 1, 0), None) is False
        assert fn((1, 1, 0), None) is True

    def test_in_list_with_null_item_is_unknown(self):
        fn = compile_predicate(parse_expression("A IN (1, B)"), SCHEMA)
        assert fn((5, None, 0), None) is None  # no match, NULL item
        assert fn((1, None, 0), None) is True  # match wins over NULL


class TestCorrelatedReferences:
    def test_outer_reference_resolves_through_context_chain(self):
        inner_schema = RowSchema([("S", "X")])
        outer_schema = RowSchema([("P", "PNUM")])
        expr = parse_expression("S.X = P.PNUM")
        fn = compile_predicate(expr, [inner_schema, outer_schema])
        outer = EvalContext((42,), outer_schema)
        assert fn((42,), outer) is True
        assert fn((7,), outer) is False

    def test_two_level_chain(self):
        inner = RowSchema([("A", "X")])
        mid = RowSchema([("B", "Y")])
        top = RowSchema([("C", "Z")])
        expr = parse_expression("A.X + B.Y + C.Z")
        fn = compile_scalar(expr, [inner, mid, top])
        chain = EvalContext((10,), mid, outer=EvalContext((100,), top))
        assert fn((1,), chain) == 111

    def test_unresolvable_reference_raises_when_evaluated(self):
        fn = compile_scalar(parse_expression("Q.MISSING"), SCHEMA)
        with pytest.raises(BindError, match="cannot resolve column Q.MISSING"):
            fn((1, 2, 3), None)

    def test_ambiguous_reference_raises_when_evaluated(self):
        doubled = RowSchema([("T", "A"), ("U", "A")])
        fn = compile_scalar(parse_expression("A"), doubled)
        compiled, oracle = outcomes(
            lambda: fn((1, 2), None),
            lambda: eval_scalar(parse_expression("A"), EvalContext((1, 2), doubled)),
        )
        assert compiled == oracle and compiled[1] == "BindError"


#: One source per AST expression class the parser produces.
EVERY_NODE = [
    "1", "?", "A", "COUNT(*)", "MAX(A)", "-A", "A + 1",
    "(SELECT X FROM T2)", "A = 1", "A IS NULL", "A IN (1, 2)",
    "A IN (SELECT X FROM T2)", "EXISTS (SELECT X FROM T2)",
    "A > ALL (SELECT X FROM T2)", "A BETWEEN 1 AND 2",
    "A = 1 AND B = 2", "A = 1 OR B = 2", "NOT A = 1",
]


class TestNeverDeclines:
    def test_every_parser_node_compiles_both_ways(self):
        seen = set()
        for source in EVERY_NODE:
            for node in ast.walk(parse_expression(source), into_subqueries=False):
                if isinstance(node, ast.Expr):
                    seen.add(type(node))
                    assert callable(compile_scalar(node, SCHEMA))
                    assert callable(compile_predicate(node, SCHEMA))
        assert seen == set(_expression_classes())

    def test_subquery_predicate_compiles_to_a_handler_call(self):
        class Values(SubqueryHandler):
            def column(self, query, context):
                assert context.row == (1, 2, 3) and context.schema == SCHEMA
                return [2, None]

        expr = parse_expression("A IN (SELECT X FROM T2)")
        fn = compile_predicate(expr, SCHEMA, Values())
        compiled, oracle = outcomes(
            lambda: fn((1, 2, 3), None),
            lambda: eval_predicate(
                expr, EvalContext((1, 2, 3), SCHEMA, subquery_handler=Values())
            ),
        )
        assert compiled == oracle == ("ok", None)  # no match, a NULL item

    @pytest.mark.parametrize(
        "source, kind",
        [
            ("COUNT(A)", "scalar"),
            ("(SELECT X FROM T2)", "scalar"),
            ("A = 1", "scalar"),
            ("A", "predicate"),
            ("EXISTS (SELECT X FROM T2)", "predicate"),
        ],
    )
    def test_raising_nodes_raise_the_oracles_error_per_row(self, source, kind):
        expr = parse_expression(source)
        compile_fn, oracle = (
            (compile_scalar, eval_scalar)
            if kind == "scalar"
            else (compile_predicate, eval_predicate)
        )
        fn = compile_fn(expr, SCHEMA)  # compiling never raises
        compiled, expected = outcomes(
            lambda: fn((1, 2, 3), None),
            lambda: oracle(expr, EvalContext((1, 2, 3), SCHEMA)),
        )
        assert compiled == expected and compiled[0] == "error"

    def test_star_raises_as_a_scalar(self):
        fn = compile_scalar(ast.Star(), SCHEMA)
        with pytest.raises(ExecutionError, match=r"\* is not a scalar"):
            fn((1, 2, 3), None)


def _expression_classes():
    pending, found = [ast.Expr], []
    while pending:
        cls = pending.pop()
        subclasses = cls.__subclasses__()
        if cls is not ast.Expr and not subclasses:
            found.append(cls)
        pending.extend(subclasses)
    return found
