"""The batch operators: equivalence with independent oracles, residual
decomposition, 3VL edge cases, and the batch-width seam.

Nothing here compares an operator with a copy of itself.  The oracles
share no code with the operator under test: ``nested_loop_join`` with
key equality AND the full residual (same rows in the same order),
``merge_join`` over sorted inputs, the sorted aggregate against the
hash aggregate, the hash join with a plain callable residual (checked
per candidate, no decomposition), the tree-walking expression oracle
under ``tests/``, literal expected rows, and SQLite for whole queries.
"""

from collections import Counter

import pytest

from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    _row_predicate,
    group_aggregate,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    merge_join,
    nested_loop_join,
    restrict_project,
)
from repro.engine.expression import EvalContext
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.sql.ast import And, ColumnRef, Comparison, Literal, make_and
from repro.sql.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.workloads.paper_data import fresh_catalog
from tests.evaluation import MODES, evaluation
from tests.expression_oracle import eval_predicate


def make_buffer(capacity=16):
    return BufferPool(DiskManager(), capacity=capacity)


def rel(buffer, qualifier, columns, rows, rows_per_page=4):
    sch = RowSchema([(qualifier, c) for c in columns])
    return Relation.materialize(sch, rows, buffer, rows_per_page=rows_per_page)


LEFT_ROWS = [(1, 10), (2, None), (None, 30), (2, 21), (5, None), (None, None)]
RIGHT_ROWS = [(2, 20), (None, 99), (2, 21), (7, None), (1, 10), (None, None)]


def same_relation(got: Relation, oracle: Relation) -> None:
    """Bag-equal rows and identical page geometry."""
    assert Counter(got.to_list()) == Counter(oracle.to_list())
    assert got.num_pages == oracle.num_pages


def column(schema: RowSchema, index: int) -> ColumnRef:
    qualifier, name = schema.fields[index]
    return ColumnRef(qualifier, name)


def loop_join_oracle(left, right, buffer, mode, null_safe, residual_expr=None):
    """The nested-loop join evaluating ``key equality AND residual`` on
    every pair: no hash table, no decomposition, no batch kernels."""
    combined = left.schema + right.schema
    key = Comparison(
        column(combined, 0), "=", column(combined, len(left.schema)),
        null_safe=null_safe,
    )
    return nested_loop_join(
        left, right,
        predicate=make_and([key] + ([residual_expr] if residual_expr else [])),
        mode=mode,
    )


def oracle_restrict(predicate, rows):
    """The rows of ``T(A, B)`` the tree-walking oracle keeps."""
    schema = RowSchema([("T", "A"), ("T", "B")])
    return [
        row for row in rows
        if eval_predicate(predicate, EvalContext(row, schema)) is True
    ]


class TestOperatorEquivalence:
    """Each batch operator against an independent oracle, NULLs included."""

    def test_restrict_project(self):
        buffer = make_buffer()
        predicate = parse("SELECT T.A FROM T WHERE T.A < 5").where
        projections = [
            (ColumnRef("T", "B"), "T", "B"),
            (ColumnRef("T", "A"), "T", "A"),
        ]
        got = restrict_project(
            rel(buffer, "T", ["A", "B"], LEFT_ROWS),
            predicate=predicate, projections=projections,
        )
        rows = got.to_list()
        # NULL < 5 is unknown: the NULL-keyed rows are filtered out.
        assert rows == [(10, 1), (None, 2), (21, 2)]
        assert list(got.schema.fields) == [("T", "B"), ("T", "A")]
        kept = oracle_restrict(predicate, LEFT_ROWS)
        assert rows == [(b, a) for a, b in kept]

    def test_restrict_project_matches_the_oracle(self):
        """The kernels keep exactly the rows the oracle keeps, in order."""
        buffer = make_buffer()
        predicate = parse("SELECT T.A FROM T WHERE T.B >= 10").where
        kernels = restrict_project(
            rel(buffer, "T", ["A", "B"], LEFT_ROWS),
            predicate=predicate,
        )
        rows = kernels.to_list()
        assert rows == oracle_restrict(predicate, LEFT_ROWS)
        assert rows == [(1, 10), (None, 30), (2, 21)]

    @pytest.mark.parametrize("mode", ["inner", "left"])
    @pytest.mark.parametrize("null_safe", [False, True])
    def test_hash_join_modes(self, mode, null_safe):
        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], LEFT_ROWS)
        right = rel(buffer, "R", ["K", "W"], RIGHT_ROWS)
        got = hash_join(
            left, right, [0], [0], mode=mode, null_safe=null_safe
        ).store(buffer)
        loop = loop_join_oracle(left, right, buffer, mode, null_safe).store(buffer)
        assert got.to_list() == loop.to_list()  # same rows, same order
        assert got.num_pages == loop.num_pages
        merged = merge_join(
            external_sort(left, [0], buffer), external_sort(right, [0], buffer),
            [0], [0], mode=mode, null_safe=null_safe,
        ).store(buffer)
        same_relation(got, merged)

    def test_hash_join_null_key_matches_only_null_safe(self):
        """NULL keys: invisible under ``=``, one group under ``<=>``."""
        buffer = make_buffer()
        left = rel(buffer, "L", ["K"], [(None,), (1,)])
        right = rel(buffer, "R", ["K"], [(None,), (1,)])
        plain = hash_join(left, right, [0], [0])
        assert plain.to_list() == [(1, 1)]
        safe = hash_join(left, right, [0], [0], null_safe=True)
        assert Counter(safe.to_list()) == Counter([(None, None), (1, 1)])

    def test_distinct(self):
        buffer = make_buffer()
        rows = [(1, 1), (2, 2), (1, 1), (None, None), (2, 2), (None, None)]
        got = hash_distinct(rel(buffer, "T", ["A", "B"], rows)).store(buffer)
        # First occurrence kept, input order preserved.
        assert got.to_list() == [(1, 1), (2, 2), (None, None)]
        sort_unique = external_sort(
            rel(buffer, "T", ["A", "B"], rows), [0, 1], buffer, unique=True
        )
        same_relation(got, sort_unique)

    @pytest.mark.parametrize("distinct", [False, True])
    def test_group_aggregate(self, distinct):
        buffer = make_buffer()
        rows = [(1, 5), (2, None), (1, 5), (None, 7), (2, 3), (None, None)]
        specs = [
            AggSpec("COUNT", None),
            AggSpec("COUNT", 1, distinct=distinct),
            AggSpec("SUM", 1, distinct=distinct),
            AggSpec("MIN", 1),
            AggSpec("AVG", 1),
        ]
        names = [(None, c) for c in ["K", "C", "CD", "S", "M", "A"]]
        hashed = hash_group_aggregate(
            rel(buffer, "T", ["K", "V"], rows), [0], specs, names
        ).store(buffer)
        # Emission order is first appearance; NULL keys form one group.
        assert [r[0] for r in hashed.to_list()] == [1, 2, None]
        assert hashed.to_list()[0] == (
            (1, 2, 1, 5, 5, 5.0) if distinct else (1, 2, 2, 10, 5, 5.0)
        )
        # The streaming aggregate over sorted input is the oracle: a
        # different algorithm (no hash table) sharing only apply_specs.
        streamed = group_aggregate(
            external_sort(rel(buffer, "T", ["K", "V"], rows), [0], buffer),
            [0], specs, names,
        ).store(buffer)
        same_relation(hashed, streamed)

    def test_ungrouped_aggregate_of_empty_input(self):
        """SQL scalar-aggregate row: COUNT is 0, SUM/MIN/AVG are NULL."""
        buffer = make_buffer()
        specs = [AggSpec("COUNT", 0), AggSpec("SUM", 0), AggSpec("MIN", 0)]
        names = [(None, c) for c in ["C", "S", "M"]]
        for aggregate in (hash_group_aggregate, group_aggregate):
            got = aggregate(
                rel(buffer, "T", ["V"], []), [], specs, names, always_emit=True
            )
            assert got.to_list() == [(0, None, None)]


class _Residual:
    """A combined-row callable carrying its source expression — the
    shape :meth:`SingleLevelExecutor._residual_callable` produces."""

    def __init__(self, expr, schema):
        self.expr = expr
        self.schema = schema
        self._check = _row_predicate(expr, schema)

    def __call__(self, combined):
        return self._check(combined)


def plain(residual):
    """The residual as a bare callable: no ``expr`` to decompose."""
    return lambda combined: residual(combined)


class TestResidualDecomposition:
    """The hash join's conjunct classification: every decomposed form
    must match the nested-loop join evaluating key equality AND the
    full residual on every pair — same rows, same order — and the hash
    join itself with decomposition off (a plain callable residual,
    checked per candidate exactly as written)."""

    def setup_method(self):
        self.buffer = make_buffer()
        self.left = rel(self.buffer, "L", ["K", "V"], LEFT_ROWS)
        self.right = rel(self.buffer, "R", ["K", "W"], RIGHT_ROWS)
        self.schema = self.left.schema + self.right.schema

    def _check(self, expr, mode="inner", null_safe=False, left=None, right=None):
        left = left or self.left
        right = right or self.right
        residual = _Residual(expr, self.schema)
        got = hash_join(
            left, right, [0], [0],
            mode=mode, null_safe=null_safe, residual=residual,
        ).store(self.buffer)
        loop = loop_join_oracle(
            left, right, self.buffer, mode, null_safe, expr
        ).store(self.buffer)
        assert got.to_list() == loop.to_list()
        assert got.num_pages == loop.num_pages
        undecomposed = hash_join(
            left, right, [0], [0],
            mode=mode, null_safe=null_safe, residual=plain(residual),
        )
        assert got.to_list() == undecomposed.to_list()
        return got

    def test_cross_side_equality_folds_into_key(self):
        # L.V = R.W: rows with NULL on either side never match.
        expr = Comparison(column(self.schema, 1), "=", column(self.schema, 3))
        self._check(expr)

    def test_null_safe_equality_fold_matches_nulls(self):
        # L.V <=> R.W: NULL pairs *do* match; mixed NULL/value do not.
        expr = Comparison(
            column(self.schema, 1), "=", column(self.schema, 3),
            null_safe=True,
        )
        self._check(expr)
        # On data where a key-matching pair is NULL/NULL in V/W, the
        # <=> fold must admit it into the composite hash key.
        left = rel(self.buffer, "L", ["K", "V"], [(2, None), (2, 7)])
        right = rel(self.buffer, "R", ["K", "W"], [(2, None), (2, 8)])
        got = self._check(expr, left=left, right=right)
        assert got.to_list() == [(2, None, 2, None)]

    def test_one_sided_conjuncts_push_to_build_and_probe(self):
        expr = And((
            Comparison(column(self.schema, 1), ">", Literal(5)),   # left-only
            Comparison(column(self.schema, 3), "<", Literal(50)),  # right-only
        ))
        self._check(expr)

    def test_mixed_decomposition_with_leftover(self):
        # Fold + pushdown + a non-foldable cross-side comparison.
        expr = And((
            Comparison(column(self.schema, 1), "=", column(self.schema, 3)),
            Comparison(column(self.schema, 0), ">=", Literal(0)),
            Comparison(column(self.schema, 0), "<=", column(self.schema, 3)),
        ))
        self._check(expr)

    @pytest.mark.parametrize("mode", ["inner", "left"])
    def test_pushed_probe_conjunct_keeps_the_leftover_check(self, mode):
        # Regression: with a left-only conjunct pushed to the probe
        # side, the remaining cross-side conjunct was silently dropped.
        left = rel(self.buffer, "L", ["K", "V"], [(1, 1), (1, 9), (2, 5)])
        right = rel(self.buffer, "R", ["K", "W"], [(1, 5), (2, 1)])
        expr = And((
            Comparison(column(self.schema, 1), ">=", Literal(0)),
            Comparison(column(self.schema, 1), "<=", column(self.schema, 3)),
        ))
        got = self._check(expr, mode=mode, left=left, right=right)
        matched = [row for row in got.to_list() if row[2] is not None]
        assert matched == [(1, 1, 1, 5)]

    @pytest.mark.parametrize("null_safe", [False, True])
    def test_left_outer_pads_when_residual_fails(self, null_safe):
        # A left row whose matches all flunk the residual is padded.
        expr = Comparison(column(self.schema, 3), ">", Literal(98))
        got = self._check(expr, mode="left", null_safe=null_safe)
        padded = [r for r in got.to_list() if r[2] is None and r[3] is None]
        assert padded  # unmatched lefts survive with NULL right side

    def test_plain_callable_residual_skips_decomposition(self):
        # A residual without its expression is checked per candidate:
        # nothing folds into the key, nothing is pushed to a side.
        expr = And((
            Comparison(column(self.schema, 1), "=", column(self.schema, 3)),
            Comparison(column(self.schema, 1), ">", Literal(0)),
        ))
        got = hash_join(
            self.left, self.right, [0], [0],
            residual=plain(_Residual(expr, self.schema)),
        )
        loop = loop_join_oracle(
            self.left, self.right, self.buffer, "inner", False, expr
        )
        assert got.to_list() == loop.to_list()


def _catalog_with_nulls():
    catalog = fresh_catalog()
    catalog.create_table(schema("T", "A", "B"))
    catalog.create_table(schema("U", "A", "C"))
    catalog.insert(
        "T", [(0, 1), (1, None), (None, 2), (2, 2), (3, None), (None, None)]
    )
    catalog.insert(
        "U", [(0, 0), (1, None), (None, 1), (2, 0), (2, None), (None, None)]
    )
    return catalog


#: NULL-heavy probes for the three-valued-logic edges the batch kernels
#: must reproduce exactly (satellite: 3VL edge-case coverage).
THREE_VL_QUERIES = [
    # NULL join keys under = (never match) vs <=> (match each other).
    "SELECT T.A, U.C FROM T, U WHERE T.A = U.A",
    "SELECT T.A, U.C FROM T, U WHERE T.A <=> U.A",
    # SUM over an empty/all-NULL group is NULL (equals nothing);
    # COUNT over the same group is 0 (a perfectly matchable value).
    "SELECT T.A FROM T WHERE "
    "T.B = (SELECT SUM(U.C) FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE "
    "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A) = 0",
    # Quantifiers under exact counting: empty sets satisfy ALL,
    # NULL comparisons poison ANY/ALL the SQL way.
    "SELECT T.A FROM T WHERE T.B > ALL (SELECT U.C FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE T.B = ANY (SELECT U.C FROM U WHERE U.A = T.A)",
    "SELECT T.A FROM T WHERE T.B <> ALL (SELECT U.C FROM U)",
]


class TestThreeValuedLogic:
    """Both batch widths and SQLite must agree on every 3VL edge, at
    the same page I/O."""

    @pytest.mark.parametrize("sql", THREE_VL_QUERIES)
    def test_engines_agree_with_sqlite(self, sql):
        select = parse(sql)
        catalog = _catalog_with_nulls()
        with SQLiteOracle(catalog) as oracle:
            expected = normalize_rows(oracle.run(select))

        runner = Engine(catalog, join_method="hash")
        pages = set()
        for mode in MODES:
            catalog.buffer.evict_all()  # cold cache per leg
            with evaluation(mode):
                report = runner.run(select, method="transform")
            assert normalize_rows(report.result.rows) == expected, (
                f"{mode} evaluation disagrees with sqlite: {sql}"
            )
            pages.add(report.io.page_ios)
        # How many rows a batch holds is not part of the plan.
        assert len(pages) == 1

    def test_sum_empty_group_is_null_count_is_zero(self):
        catalog = _catalog_with_nulls()
        engine = Engine(catalog, join_method="hash")
        report = engine.run(
            "SELECT T.A FROM T WHERE "
            "(SELECT COUNT(U.C) FROM U WHERE U.A = T.A) = 0",
            method="transform",
        )
        # COUNT(U.C) skips NULL C: T.A=1 pairs only with U(1, NULL), so
        # its count is 0, same as T.A=3 (no partner) and the NULL T.A
        # rows (NULL = U.A matches nothing).  T.A=0 and T.A=2 each have
        # a non-NULL C partner.
        assert Counter(report.result.rows) == Counter(
            [(1,), (3,), (None,), (None,)]
        )


class TestEngineToggle:
    """The batch-width seam reaches every surface — Engine, the plan
    cache, prepared statements — and changes neither rows nor page
    I/O."""

    @pytest.mark.parametrize("mode", MODES)
    def test_database_facade_and_prepared_statements(self, mode):
        from repro.api import Database

        db = Database()
        db.create_table("T", ["A", "B"])
        db.insert("T", [(1, 10), (2, None), (None, 3), (2, 20)])
        expected = Counter([(1,), (2,), (2,)])

        with evaluation(mode):
            result = db.query("SELECT T.A FROM T WHERE T.A >= 1")
            assert Counter(result.rows) == expected

            stmt = db.prepare("SELECT T.A FROM T WHERE T.A >= ?")
            assert Counter(stmt.execute((1,)).result.rows) == expected

            cached = db.execute_cached("SELECT T.A FROM T WHERE T.A >= 1")
            assert Counter(cached.result.rows) == expected

    def test_row_and_vectorized_same_rows_and_page_ios(self):
        from repro.bench.harness import measure
        from repro.workloads.generators import (
            GENERATED_JA_QUERY,
            PartsSupplySpec,
            build_parts_supply,
        )

        catalog = build_parts_supply(
            PartsSupplySpec(
                num_parts=40, num_supply=300, rows_per_page=8,
                buffer_pages=6, seed=3,
            )
        )
        runs = {}
        for mode in MODES:
            with evaluation(mode):
                runs[mode] = measure(
                    catalog, GENERATED_JA_QUERY, "transform", join_method="hash"
                )
        assert Counter(runs["row"].rows) == Counter(runs["vectorized"].rows)
        assert runs["row"].page_ios == runs["vectorized"].page_ios


class TestErrorSurfacingContract:
    """DESIGN §4b, pinned: data-dependent errors surface iff a cell that
    raises is evaluated, and the hash join's residual decomposition is
    the one place where the evaluated cells differ from a
    candidate-by-candidate check."""

    def test_division_by_zero_in_a_restrict_predicate_raises(self):
        from repro.errors import ExecutionError

        buffer = make_buffer()
        predicate = parse("SELECT T.A FROM T WHERE 10 / T.A > 1").where
        for mode in MODES:
            with evaluation(mode), pytest.raises(ExecutionError):
                restrict_project(
                    rel(buffer, "T", ["A"], [(5,), (0,), (2,)]),
                    predicate=predicate,
                ).to_list()

    def test_and_gates_the_cells_its_first_operand_rejects(self):
        buffer = make_buffer()
        predicate = parse(
            "SELECT T.A FROM T WHERE T.A <> 0 AND 10 / T.A > 1"
        ).where
        for mode in MODES:
            with evaluation(mode):
                got = restrict_project(
                    rel(buffer, "T", ["A"], [(5,), (0,), (20,), (None,)]),
                    predicate=predicate,
                )
            assert got.to_list() == [(5,)]

    def test_pushed_residual_conjunct_sees_non_candidate_rows(self):
        from repro.errors import ExecutionError

        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, 1)])
        # (9, 0) joins nothing, but 10 / R.W reads only the build side.
        right = rel(buffer, "R", ["K", "W"], [(1, 2), (9, 0)])
        combined = left.schema + right.schema
        expr = parse("SELECT L.K FROM L, R WHERE 10 / R.W > 1").where
        residual = _Residual(expr, combined)
        # Chosen behaviour: the conjunct is pushed to the build, where it
        # is evaluated on every build row — the non-candidate raises.
        with pytest.raises(ExecutionError):
            hash_join(left, right, [0], [0], residual=residual).to_list()
        # Without decomposition only candidates are checked: no error.
        got = hash_join(left, right, [0], [0], residual=plain(residual))
        assert got.to_list() == [(1, 1, 1, 2)]

    def test_folded_equality_cannot_raise_the_mixed_type_error(self):
        from repro.errors import ExecutionError

        buffer = make_buffer()
        left = rel(buffer, "L", ["K", "V"], [(1, 7)])
        right = rel(buffer, "R", ["K", "W"], [(1, "seven")])
        combined = left.schema + right.schema
        expr = Comparison(column(combined, 1), "=", column(combined, 3))
        residual = _Residual(expr, combined)
        # Folded into the hash key: 7 and "seven" simply do not collide.
        got = hash_join(left, right, [0], [0], residual=residual)
        assert got.to_list() == []
        # Evaluated as a comparison, int = text is an error.
        with pytest.raises(ExecutionError):
            hash_join(left, right, [0], [0], residual=plain(residual)).to_list()
