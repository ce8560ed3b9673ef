"""The order contract (DESIGN §4b-1), pinned three ways.

``repro.engine.sort.order_key`` picks, per run, the cheapest key that
induces the engine's one total order (NULL, then numbers, then text;
key columns first, whole row as tiebreak).  These tests hold it to the
every-value-wrapped reference:

1. ``external_sort`` returns exactly ``sorted(rows, key=sort_key)`` —
   over homogeneous, mixed and one-mixed-among-raw columns, every key
   choice, ``unique`` on and off, and buffers small enough to force at
   least three runs and a second merge pass;
2. it does so with exactly the page reads and writes of the parent's
   row-at-a-time sort (kept below as the reference) and inside the
   paper's ``2·P·(passes + 1)`` envelope;
3. ``merge_join`` returns exactly ``nested_loop_join``'s rows, in the
   same order, for the equi, null-safe, residual and theta forms — and,
   over two-column keys with a NULL regime per column, ``hash_join``
   returns them too.

Rows are compared through ``repr`` so that ``1``, ``1.0`` and ``True``
(equal to Python, and tied in the order) cannot stand in for each other.
"""

import enum
import heapq
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.expression import EvalContext
from repro.engine.operators import hash_join, merge_join, nested_loop_join
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import (
    column_profile,
    compares_raw,
    external_sort,
    order_key,
    orderable,
    sort_key,
)
from repro.sql.parser import parse_expression
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from tests.expression_oracle import eval_predicate


def make_env(buffer_pages):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=buffer_pages)


def exact(rows):
    return [tuple(map(repr, row)) for row in rows]


def reference_key(row, key_columns):
    """The parent's key, verbatim: every value wrapped, key columns
    first, then the whole row."""
    return tuple(orderable(row[i]) for i in key_columns) + tuple(
        orderable(v) for v in row
    )


def reference_sort(rows, key_columns, unique, key=reference_key):
    ordered = sorted(rows, key=lambda row: key(row, key_columns))
    if unique:
        ordered = [
            row for i, row in enumerate(ordered) if i == 0 or row != ordered[i - 1]
        ]
    return ordered


def reference_external_sort(source, key_columns, buffer, unique):
    """The parent commit's external sort: one row at a time, every value
    wrapped.  Kept as the page-schedule reference."""
    rows_per_page = source.heap.rows_per_page
    run_rows = buffer.capacity * rows_per_page

    def key(row):
        return reference_key(row, key_columns)

    def dedup(rows):
        previous = None
        for row in rows:
            if row != previous:
                yield row
            previous = row

    def write_run(rows):
        run = HeapFile(buffer, rows_per_page=rows_per_page)
        run.extend(rows)
        run.flush()
        return run

    runs, chunk = [], []

    def emit():
        if chunk:
            chunk.sort(key=key)
            runs.append(write_run(dedup(iter(chunk)) if unique else chunk))
            chunk.clear()

    for row in source:
        chunk.append(row)
        if len(chunk) >= run_rows:
            emit()
    emit()
    fan_in = max(2, buffer.capacity - 1)
    while len(runs) > 1:
        next_runs = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            rows = heapq.merge(*(run.scan() for run in group), key=key)
            next_runs.append(write_run(dedup(rows) if unique else rows))
            for run in group:
                run.truncate()
        runs = next_runs
    return runs[0]


# -- the value domain ----------------------------------------------------

INTS = st.integers(-3, 3)
FLOATS = st.sampled_from([-1.5, 0.0, 1.0, 2.5])
TEXT = st.sampled_from(["", "a", "b", "10", "9"])
ANY_VALUE = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)

#: Column kinds: the first three compare raw, the rest are wrapped.
COLUMN_KINDS = {
    "int": INTS,
    "number": st.one_of(INTS, FLOATS),
    "text": TEXT,
    "nullable_int": st.one_of(st.none(), INTS),
    "bool": st.booleans(),
    "mixed": ANY_VALUE,
}


@st.composite
def sort_cases(draw):
    """(rows, key_columns, unique, buffer_pages, rows_per_page) with at
    least three runs, so the merge needs a second pass."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=3)
    )
    buffer_pages = draw(st.integers(2, 3))
    rows_per_page = draw(st.integers(1, 3))
    run_rows = buffer_pages * rows_per_page
    rows = draw(
        st.lists(
            st.tuples(*(COLUMN_KINDS[kind] for kind in kinds)),
            min_size=2 * run_rows + 1,
            max_size=6 * run_rows,
        )
    )
    key_columns = draw(
        st.lists(st.integers(0, len(kinds) - 1), unique=True, max_size=len(kinds))
    )
    return rows, key_columns, draw(st.booleans()), buffer_pages, rows_per_page


def stored(rows, buffer, rows_per_page, width):
    schema = RowSchema([(None, f"C{i}") for i in range(width)])
    return Relation.materialize(schema, rows, buffer, rows_per_page=rows_per_page)


class TestExternalSortHoldsTheOrder:
    @given(case=sort_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_page_schedule_equal_the_reference(self, case):
        rows, key_columns, unique, buffer_pages, rows_per_page = case
        width = len(rows[0])

        disk, buffer = make_env(buffer_pages)
        source = stored(rows, buffer, rows_per_page, width)
        pages = source.num_pages
        assert math.ceil(pages / buffer_pages) >= 3  # a second merge pass
        buffer.evict_all()
        disk.reset_stats()
        result = external_sort(source, key_columns, buffer, unique=unique)
        stats = disk.stats()
        got = result.to_list()

        assert exact(got) == exact(reference_sort(rows, key_columns, unique))
        assert exact(got) == exact(reference_sort(rows, key_columns, unique, sort_key))

        # Same page schedule as the row-at-a-time, all-wrapped sort ...
        ref_disk, ref_buffer = make_env(buffer_pages)
        ref_source = stored(rows, ref_buffer, rows_per_page, width)
        ref_buffer.evict_all()
        ref_disk.reset_stats()
        expected = reference_external_sort(ref_source, key_columns, ref_buffer, unique)
        ref_stats = ref_disk.stats()
        assert exact(got) == exact(expected.scan())
        assert (stats.page_reads, stats.page_writes) == (
            ref_stats.page_reads,
            ref_stats.page_writes,
        )

        # ... and inside the paper's envelope (tests/engine/test_sort.py).
        runs0 = math.ceil(pages / buffer_pages)
        passes = math.ceil(math.log(runs0, max(2, buffer_pages - 1)))
        assert stats.page_ios <= 2 * pages * (passes + 1) + 2 * pages
        assert stats.page_reads >= pages
        if not unique:
            assert stats.page_writes >= pages

    @given(
        rows=st.lists(st.tuples(ANY_VALUE, ANY_VALUE), max_size=30),
        key_columns=st.lists(st.integers(0, 1), unique=True, max_size=2),
        tiebreak=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_order_key_sorts_like_the_wrapped_key(self, rows, key_columns, tiebreak):
        assume(tiebreak or key_columns)  # an ORDER BY names at least one column
        def wrapped(row):
            key = tuple(orderable(row[c]) for c in key_columns)
            return key + tuple(map(orderable, row)) if tiebreak else key

        key = order_key(column_profile(rows), key_columns, tiebreak=tiebreak)
        assert exact(sorted(rows, key=key)) == exact(sorted(rows, key=wrapped))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


class TestKeySelectionFallbacks:
    def profile_of(self, *values):
        (types,) = column_profile([(v,) for v in values])
        return types

    def test_homogeneous_columns_compare_raw(self):
        assert compares_raw(self.profile_of(3, 1, 2))
        assert compares_raw(self.profile_of(3, 1.5, 2))
        assert compares_raw(self.profile_of("b", "a"))
        assert compares_raw(self.profile_of(10**30, 0.5))

    @pytest.mark.parametrize(
        "values",
        [
            (1, None),
            (True, False),
            (1, True),
            (1, "a"),
            (1.0, float("nan")),
            (Level.LOW, Level.HIGH),
            (Tag("a"), "b"),
            (b"a", b"b"),
        ],
        ids=["null", "bool", "bool-among-ints", "mixed", "nan", "intenum", "str-subclass", "bytes"],
    )
    def test_other_columns_are_wrapped(self, values):
        assert not compares_raw(self.profile_of(*values))

    def test_no_key_when_raw_and_a_leading_prefix(self):
        profile = column_profile([(1, "a", 2.0)])
        assert order_key(profile, []) is None
        assert order_key(profile, [0]) is None
        assert order_key(profile, [0, 1]) is None
        assert order_key(profile, [1]) is not None
        assert order_key(profile, [0], tiebreak=False) is not None

    def test_only_the_odd_column_is_wrapped(self):
        rows = [(2, None, "b"), (1, 5, "a")]
        key = order_key(column_profile(rows), [2])
        assert key((2, None, "b")) == ("b", 2, orderable(None))

    def test_nan_column_sorts_without_raising(self):
        _, buffer = make_env(4)
        rows = [(2.0,), (float("nan"),), (1.0,), (None,)]
        out = external_sort(stored(rows, buffer, 2, 1), [0], buffer).to_list()
        assert out[0] == (None,) and len(out) == 4

    def test_bool_column_orders_as_ints(self):
        _, buffer = make_env(4)
        rows = [(True,), (False,), (True,)]
        out = external_sort(stored(rows, buffer, 2, 1), [0], buffer).to_list()
        assert exact(out) == exact([(False,), (True,), (True,)])

    def test_subclass_values_order_with_their_base(self):
        _, buffer = make_env(4)
        rows = [(Level.HIGH, Tag("z")), (1, "b"), (Level.LOW, Tag("a"))]
        out = external_sort(stored(rows, buffer, 2, 2), [0], buffer).to_list()
        assert out == sorted(rows, key=lambda row: sort_key(row, [0]))
        assert out == [(1, "a"), (1, "b"), (2, "z")]

    def test_empty_input(self):
        _, buffer = make_env(4)
        assert column_profile([]) == []
        assert order_key([], [0]) is None
        out = external_sort(stored([], buffer, 2, 2), [1], buffer, unique=True)
        assert out.to_list() == [] and out.num_pages == 0

    def test_zero_column_relation(self):
        _, buffer = make_env(2)
        rows = [()] * 7
        assert external_sort(stored(rows, buffer, 2, 0), [], buffer).to_list() == rows
        unique = external_sort(stored(rows, buffer, 2, 0), [], buffer, unique=True)
        assert unique.to_list() == [()]

    def test_runs_under_different_profiles_still_merge(self):
        # B=2, one row a page: the first runs are all-int and key-less,
        # the last holds a NULL and a str and is wrapped; the merge keys
        # on the union.
        _, buffer = make_env(2)
        rows = [(5,), (3,), (4,), (1,), ("a",), (None,)]
        out = external_sort(stored(rows, buffer, 1, 1), [0], buffer).to_list()
        assert out == [(None,), (1,), (3,), (4,), (5,), ("a",)]


# -- merge join against nested loops -------------------------------------

NUMBER_KEYS = st.one_of(st.none(), st.integers(0, 3), st.sampled_from([1.0, 2.0, 2.5]))
TEXT_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
PAYLOAD = st.one_of(st.none(), st.integers(0, 4))


def sorted_input(buffer, qualifier, columns, rows, key):
    schema = RowSchema([(qualifier, c) for c in columns])
    source = Relation.materialize(schema, rows, buffer, rows_per_page=3)
    return external_sort(source, key, buffer)


def residual_callable(text, schema):
    expr = parse_expression(text)
    return lambda row: eval_predicate(expr, EvalContext(row, schema))


class TestMergeJoinEqualsNestedLoop:
    @given(
        keys=st.sampled_from([NUMBER_KEYS, TEXT_KEYS]).flatmap(
            lambda key: st.tuples(
                st.lists(st.tuples(key, PAYLOAD), max_size=20),
                st.lists(st.tuples(key, PAYLOAD), max_size=20),
            )
        ),
        mode=st.sampled_from(["inner", "left"]),
        null_safe=st.booleans(),
        with_residual=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equi(self, keys, mode, null_safe, with_residual):
        lrows, rrows = keys
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K", "V"], lrows, [0])
        right = sorted_input(buffer, "R", ["K", "W"], rrows, [0])
        residual_text = "L.V <= R.W" if with_residual else None
        merged = merge_join(
            left, right, [0], [0], mode=mode, null_safe=null_safe,
            residual=residual_callable(residual_text, left.schema + right.schema)
            if with_residual
            else None,
        )
        predicate = "L.K <=> R.K" if null_safe else "L.K = R.K"
        if with_residual:
            predicate += f" AND {residual_text}"
        loop = nested_loop_join(
            left, right, predicate=parse_expression(predicate), mode=mode
        )
        assert exact(merged.to_list()) == exact(loop.to_list())

    @given(
        lrows=st.lists(st.tuples(NUMBER_KEYS, TEXT_KEYS, PAYLOAD), max_size=20),
        rrows=st.lists(st.tuples(NUMBER_KEYS, TEXT_KEYS, PAYLOAD), max_size=20),
        mode=st.sampled_from(["inner", "left"]),
        null_safe=st.tuples(st.booleans(), st.booleans()),
        with_residual=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equi_two_column_key(self, lrows, rrows, mode, null_safe, with_residual):
        """Each key column under its own NULL regime — ``=,=`` / ``=,<=>``
        / ``<=>,=`` / ``<=>,<=>`` — with NULLs in both columns on both
        sides: merge ≡ nested loops ≡ hash, row for row."""
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K", "T", "V"], lrows, [0, 1])
        right = sorted_input(buffer, "R", ["K", "T", "W"], rrows, [0, 1])
        residual_text = "L.V <= R.W" if with_residual else None
        residual = (
            residual_callable(residual_text, left.schema + right.schema)
            if with_residual
            else None
        )
        merged = merge_join(
            left, right, [0, 1], [0, 1], mode=mode,
            null_safe=null_safe, residual=residual,
        )
        k_eq, t_eq = ("<=>" if safe else "=" for safe in null_safe)
        predicate = f"L.K {k_eq} R.K AND L.T {t_eq} R.T"
        if with_residual:
            predicate += f" AND {residual_text}"
        loop = nested_loop_join(
            left, right, mode=mode, predicate=parse_expression(predicate)
        )
        merged_rows = merged.to_list()
        assert exact(merged_rows) == exact(loop.to_list())
        hashed = hash_join(
            left, right, [0, 1], [0, 1], mode=mode,
            null_safe=null_safe, residual=residual,
        )
        assert exact(hashed.to_list()) == exact(merged_rows)

    @given(
        keys=st.sampled_from([NUMBER_KEYS, TEXT_KEYS]).flatmap(
            lambda key: st.tuples(
                st.lists(st.tuples(key, PAYLOAD), max_size=15),
                st.lists(st.tuples(key, PAYLOAD), max_size=15),
            )
        ),
        op=st.sampled_from(["<", "<=", ">", ">=", "<>"]),
        mode=st.sampled_from(["inner", "left"]),
        with_residual=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_theta(self, keys, op, mode, with_residual):
        lrows, rrows = keys
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K", "V"], lrows, [0])
        right = sorted_input(buffer, "R", ["K", "W"], rrows, [0])
        residual_text = "L.V <= R.W" if with_residual else None
        merged = merge_join(
            left, right, [0], [0], op=op, mode=mode,
            residual=residual_callable(residual_text, left.schema + right.schema)
            if with_residual
            else None,
        )
        predicate = f"R.K {op} L.K"
        if with_residual:
            predicate += f" AND {residual_text}"
        loop = nested_loop_join(
            left, right, predicate=parse_expression(predicate), mode=mode
        )
        assert exact(merged.to_list()) == exact(loop.to_list())


class TestMergeJoinFallbacks:
    """Keys the SQL comparison refuses (bool against number, number
    against text) still merge: they are ordered and matched as the sort
    ordered them."""

    def test_one_and_one_point_zero_and_true_collide(self):
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K"], [(1,), (True,), (2.0,), (None,)], [0])
        right = sorted_input(buffer, "R", ["K"], [(1.0,), (2,), (None,), (0,)], [0])
        out = merge_join(left, right, [0], [0]).to_list()
        assert exact(out) == exact([(1, 1.0), (True, 1.0), (2.0, 2)])
        safe = merge_join(left, right, [0], [0], null_safe=True).to_list()
        assert exact(safe) == exact([(None, None), (1, 1.0), (True, 1.0), (2.0, 2)])

    def test_mixed_type_keys_step_over_each_other(self):
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K"], [("a",), (2,), (None,), ("b",)], [0])
        right = sorted_input(buffer, "R", ["K"], [(1,), ("b",), (None,), (2,), ("a",)], [0])
        out = merge_join(left, right, [0], [0], mode="left").to_list()
        assert out == [(None, None), (2, 2), ("a", "a"), ("b", "b")]

    def test_null_in_a_two_column_key(self):
        _, buffer = make_env(8)
        lrows = [(1, None), (1, 2), (None, 2)]
        rrows = [(1, 2), (None, 2), (1, None)]
        left = sorted_input(buffer, "L", ["A", "B"], lrows, [0, 1])
        right = sorted_input(buffer, "R", ["A", "B"], rrows, [0, 1])
        plain = merge_join(left, right, [0, 1], [0, 1]).to_list()
        assert plain == [(1, 2, 1, 2)]
        safe = merge_join(left, right, [0, 1], [0, 1], null_safe=True)
        assert safe.to_list() == [
            (None, 2, None, 2), (1, None, 1, None), (1, 2, 1, 2)
        ]
        # One regime per column: a NULL joins only where its column says so.
        a_safe = merge_join(left, right, [0, 1], [0, 1], null_safe=[True, False])
        assert a_safe.to_list() == [(None, 2, None, 2), (1, 2, 1, 2)]
        b_safe = merge_join(left, right, [0, 1], [0, 1], null_safe=[False, True])
        assert b_safe.to_list() == [(1, None, 1, None), (1, 2, 1, 2)]

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "<>"])
    def test_theta_probe_of_another_type_falls_back(self, op):
        """Raw int keys, then a text probe: numbers sort before text."""
        _, buffer = make_env(8)
        left = sorted_input(buffer, "L", ["K"], [(2,), ("x",), (True,)], [0])
        right = sorted_input(buffer, "R", ["K"], [(1,), (2,), (3,)], [0])
        out = merge_join(left, right, [0], [0], op=op).to_list()

        def holds(right_key, left_key):
            a, b = orderable(right_key), orderable(left_key)
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "<>": a != b}[op]

        assert exact(out) == exact(
            [l + r for l in left.to_list() for r in right.to_list() if holds(r[0], l[0])]
        )

    def test_empty_sides(self):
        _, buffer = make_env(8)
        some = sorted_input(buffer, "L", ["K"], [(1,), (2,)], [0])
        none = sorted_input(buffer, "R", ["K"], [], [0])
        assert merge_join(some, none, [0], [0]).to_list() == []
        assert merge_join(some, none, [0], [0], mode="left").to_list() == [
            (1, None), (2, None)
        ]
        assert merge_join(none, some, [0], [0], mode="left").to_list() == []
        assert merge_join(some, none, [0], [0], op="<", mode="left").to_list() == [
            (1, None), (2, None)
        ]
