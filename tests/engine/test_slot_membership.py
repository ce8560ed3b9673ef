"""The set rule for a bound list slot equals the membership loop.

``x [NOT] IN ?k`` reads the value list a type-A block bound into slot
``k``.  When the list's non-NULL values share one type family the
comparison rule accepts, membership is answered from a set built once
per bound list; every other case runs :func:`membership`, so a
mixed-type comparison raises exactly as it does there.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compile import (
    ValueList,
    compile_predicate,
    membership,
    slot_membership,
)
from repro.engine.params import bound_params
from repro.engine.schema import RowSchema
from repro.engine.vector_compile import compile_batch_predicate
from repro.errors import ExecutionError
from repro.sql.ast import ColumnRef, InList, Parameter

#: NULLs, ints, floats equal to some ints, strings and dates (which
#: are strings): small domains, so lists repeat values.
VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, 2.5, -1.0]),
    st.sampled_from(["a", "b", "1979-01-01", "1980-06-15"]),
)
LISTS = st.lists(VALUES, max_size=8)


def outcome(evaluate):
    try:
        return ("value", evaluate())
    except ExecutionError as error:
        return ("error", str(error))


@settings(max_examples=400, deadline=None)
@given(probes=st.lists(VALUES, min_size=1, max_size=6), items=LISTS, negated=st.booleans())
def test_the_set_rule_equals_the_loop(probes, items, negated):
    bound = ValueList(items)  # one list, probed many times: one set
    for value in probes:
        assert outcome(lambda: slot_membership(value, bound, negated)) == outcome(
            lambda: membership(value, items, negated)
        ), (value, items)


@settings(max_examples=200, deadline=None)
@given(column=st.lists(VALUES, max_size=8), items=LISTS, negated=st.booleans())
def test_row_closure_and_batch_kernel_read_the_slot(column, items, negated):
    schema = RowSchema.for_table("T", ["X"])
    predicate = InList(
        ColumnRef("T", "X"), (Parameter(1, is_list=True),), negated
    )
    rows = [(value,) for value in column]
    with bound_params((None, ValueList(items))):
        expected = [outcome(lambda v=v: membership(v, items, negated)) for v in column]
        closure = compile_predicate(predicate, schema)
        assert [outcome(lambda r=r: closure(r, None)) for r in rows] == expected
        if all(kind == "value" for kind, _ in expected):
            kernel = compile_batch_predicate(predicate, schema)
            assert kernel([list(column)], len(column), None) == [
                value for _kind, value in expected
            ]


def test_the_set_is_built_with_the_bound_list():
    bound = ValueList([1, 2, None, 2])
    assert bound.lookup == ("number", frozenset({1, 2}), True)
    assert slot_membership(3, bound, True) is None  # a miss, and a NULL
    assert slot_membership(2.0, bound, False) is True
    assert ValueList([]).lookup == (None, frozenset(), False)


def test_mixed_lists_keep_the_loop():
    for items in ([1, "a"], [1.0, float("nan")], [True, 1]):
        assert ValueList(items).lookup is None
    bound = ValueList([1, "a"])
    assert slot_membership(1, bound, False) is True
    assert outcome(lambda: slot_membership("b", bound, False))[0] == "error"
