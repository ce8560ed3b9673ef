"""``mode="semi"`` of the three join operators.

``semi(L, R)`` is ``[l for l in L if any(cond(l, r) for r in R)]``: the
left rows that have a match, each once, in ``L``'s order — whatever the
join method, the NULL regime of the key columns, the residual, or how
many clients run it at once.  The output is a subsequence of the left input, so it has the
left schema (no right column is written) and the left order claim,
uniqueness included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import schema
from repro.config import ExecConfig
from repro.engine.compile import compile_predicate
from repro.engine.operators import hash_join, merge_join, nested_loop_join
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.analysis.verifier import verify_single_level
from repro.errors import VerificationError
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.ast import ColumnRef, Comparison, make_and
from repro.sql.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from tests.clients import run_clients

# A tiny domain forces duplicates and key collisions; NULL everywhere.
values = st.one_of(st.none(), st.integers(0, 2))
rows = st.lists(st.tuples(values, values, values), max_size=7)

#: The NULL regime of the two key columns: ``=`` never matches a NULL,
#: ``<=>`` matches NULL to NULL.
REGIMES = {"eq": (False, False), "null_safe": (True, True), "mixed": (False, True)}

#: The three operators; ``hash_width_4`` is the hash join run by four
#: clients at once over the same inputs (the id is the one the
#: four-thread exchange had), each of which must get the filter.
OPERATORS = ("merge", "hash", "hash_width_4", "nested")

LEFT = RowSchema([("L", "K1"), ("L", "K2"), ("L", "V")])
RIGHT = RowSchema([("R", "K1"), ("R", "K2"), ("R", "V")])
RESIDUAL = Comparison(ColumnRef("L", "V"), "<", ColumnRef("R", "V"))


def key_matches(left_row, right_row, regimes):
    for column, null_safe in enumerate(regimes):
        a, b = left_row[column], right_row[column]
        if a is None or b is None:
            if not (null_safe and a is None and b is None):
                return False
        elif a != b:
            return False
    return True


def residual_holds(left_row, right_row):
    return None not in (left_row[2], right_row[2]) and left_row[2] < right_row[2]


def in_join_callable(expr):
    """What the executor hands a join: a combined-row callable that
    carries its expression (the hash join decomposes it)."""
    compiled = compile_predicate(expr, LEFT + RIGHT)

    def check(combined):
        return compiled(combined, None)

    check.expr, check.schema = expr, LEFT + RIGHT
    return check


def run_semi(operator, left, right, buffer, regimes, residual):
    keys = [0, 1]
    if operator == "nested":
        predicate = make_and(
            [
                Comparison(
                    ColumnRef("L", f"K{i + 1}"), "=", ColumnRef("R", f"K{i + 1}"),
                    null_safe=safe,
                )
                for i, safe in enumerate(regimes)
            ]
            + ([RESIDUAL] if residual else [])
        )
        return nested_loop_join(left, right, predicate, mode="semi")
    in_join = in_join_callable(RESIDUAL) if residual else None
    if operator == "merge":
        return merge_join(
            left, external_sort(right, keys, buffer), keys, keys,
            mode="semi", null_safe=regimes, residual=in_join,
        )
    def join():
        return hash_join(
            left, right, keys, keys,
            mode="semi", null_safe=regimes, residual=in_join,
        )

    if operator == "hash":
        return join()
    outputs = run_clients(4, lambda: join().store(buffer))
    assert [out.to_list() for out in outputs[1:]] == [outputs[0].to_list()] * 3
    return outputs[0]


@pytest.mark.parametrize("residual", [False, True], ids=["keys_only", "residual"])
@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("operator", OPERATORS)
@settings(max_examples=25, deadline=None)
@given(left_rows=rows, right_rows=rows, unique=st.booleans())
def test_semi_join_is_the_filter_it_means(
    operator, regime, residual, left_rows, right_rows, unique
):
    regimes = REGIMES[regime]
    buffer = BufferPool(DiskManager(), capacity=8)
    # Sorted on the keys (the merge join's precondition); under
    # ``unique`` the order is a key of the left input.
    left = external_sort(
        Relation.materialize(LEFT, left_rows, buffer, rows_per_page=2),
        [0, 1], buffer, unique=unique,
    )
    right = Relation.materialize(RIGHT, right_rows, buffer, rows_per_page=2)
    out = run_semi(operator, left, right, buffer, regimes, residual)

    expected = [
        l
        for l in left.to_list()
        if any(
            key_matches(l, r, regimes) and (not residual or residual_holds(l, r))
            for r in right_rows
        )
    ]
    assert out.to_list() == expected  # the bag, in L's order
    assert out.schema == left.schema  # no right column is written
    assert out.order == left.order and out.order[1] == unique


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "<>"])
@pytest.mark.parametrize("residual", [False, True], ids=["key_only", "residual"])
@settings(max_examples=25, deadline=None)
@given(left_rows=rows, right_rows=rows)
def test_theta_semi_merge_join(op, residual, left_rows, right_rows):
    """``right.key op left.key`` (the merge join's direction), no NULL."""
    compare = {
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        "<>": lambda a, b: a != b,
    }[op]
    buffer = BufferPool(DiskManager(), capacity=8)
    left = external_sort(
        Relation.materialize(LEFT, left_rows, buffer, rows_per_page=2), [0], buffer
    )
    right = external_sort(
        Relation.materialize(RIGHT, right_rows, buffer, rows_per_page=2), [0], buffer
    )
    out = merge_join(
        left, right, [0], [0], op=op, mode="semi",
        residual=in_join_callable(RESIDUAL) if residual else None,
    )
    expected = [
        l
        for l in left.to_list()
        if any(
            None not in (l[0], r[0])
            and compare(r[0], l[0])
            and (not residual or residual_holds(l, r))
            for r in right_rows
        )
    ]
    assert out.to_list() == expected
    assert out.schema == left.schema and out.order == left.order


class TestExecutorPicksTheMode:
    """The executor's planning (``plan_block``) reads the mode off the
    FROM clause (``SEMI R``), under every join method, for one client
    and for four at once."""

    @staticmethod
    def catalog():
        catalog = Catalog(BufferPool(DiskManager(), capacity=8))
        catalog.create_table(schema("L", "K", "V"), rows_per_page=2)
        catalog.create_table(schema("R", "K", "V"), rows_per_page=2)
        catalog.insert("L", [(1, 0), (1, 0), (2, 5), (None, 1), (3, 1)])
        catalog.insert("R", [(1, 1), (1, 2), (2, 0), (None, 9), (3, 9), (3, 9)])
        return catalog

    @pytest.mark.parametrize("clients", [1, 4])
    @pytest.mark.parametrize("join_method", ["merge", "hash", "nested"])
    @pytest.mark.parametrize(
        "condition,expected",
        [
            ("L.K = R.K", [(1, 0), (1, 0), (2, 5), (3, 1)]),
            ("L.K <=> R.K", [(1, 0), (1, 0), (2, 5), (None, 1), (3, 1)]),
            ("L.K = R.K AND L.V < R.V", [(1, 0), (1, 0), (3, 1)]),
            ("R.K < L.K", [(2, 5), (3, 1)]),
            ("L.K + 0 = R.K AND R.V > 1", [(1, 0), (1, 0), (3, 1)]),
        ],
    )
    def test_semi_table(self, condition, expected, join_method, clients):
        catalog = self.catalog()
        block = parse(f"SELECT L.K, L.V FROM L, SEMI R WHERE {condition}")

        def client():
            executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
            return sorted(executor.execute(block, Relation.to_list), key=repr)

        assert run_clients(clients, client) == [sorted(expected, key=repr)] * clients

    @pytest.mark.parametrize(
        "join_method,text",
        [
            ("merge", "merge semi-join on L.K = R.K"),
            ("hash", "hash semi-join on L.K = R.K"),
            ("nested", "nested-loop semi-join (L.K = R.K)"),
        ],
    )
    def test_step_text_says_semi_join(self, join_method, text):
        executor = SingleLevelExecutor(self.catalog(), ExecConfig(join_method))
        executor.execute(
            parse("SELECT L.K FROM L, SEMI R WHERE L.K = R.K"), Relation.to_list
        )
        assert any(step.startswith(text) for step in executor.steps), executor.steps

    def test_semi_table_columns_do_not_come_out(self):
        """PV012 when the block is planned, on every route: the
        verifier reports what the executor's planning raises."""
        catalog = self.catalog()
        block = parse("SELECT R.V FROM L, SEMI R WHERE L.K = R.K")
        assert verify_single_level(block, catalog).rules() == {"PV012"}
        with pytest.raises(VerificationError, match="R.V") as excinfo:
            SingleLevelExecutor(catalog).execute(block, Relation.to_list)
        assert [d.rule for d in excinfo.value.diagnostics] == ["PV012"]

    def test_every_conjunct_on_a_semi_table_belongs_to_its_join(self):
        """``R.V = X.V`` reads the semi table and a table joined after
        it: no join could apply it."""
        executor = SingleLevelExecutor(self.catalog())
        block = parse(
            "SELECT L.K FROM L, SEMI R, L X WHERE L.K = R.K AND R.V = X.V"
        )
        with pytest.raises(VerificationError, match=r"\[PV012\] semi table R"):
            executor.execute(block, Relation.to_list)
        with pytest.raises(VerificationError, match=r"\[PV012\] semi table L"):
            executor.execute(parse("SELECT R.K FROM SEMI L, R"), Relation.to_list)
