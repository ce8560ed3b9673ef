"""Type-J ``IN``: the duplicate-free inner temp and its semi-join,
against nested iteration and SQLite.

A correlated ``x IN (SELECT item FROM inner WHERE ...)`` becomes
``JTEMP = SELECT DISTINCT <correlation columns>, item`` plus a merge of
``SELECT C1 FROM SEMI JTEMP WHERE <correlated conjuncts>``: the temp is
a semi table of the merged block, so an outer row comes out once
whatever the correlation — no derivation of whether the merge could fan
out, no fix-up after it.  The mark is cleared in two places only: in a
block that becomes the DISTINCT inner temp of an enclosing ``IN``, and
where an enclosing NEST-JA2 step must project the temp's column.

Every shape below runs through the difftest harness (nested iteration ≡
SQLite ≡ transform under merge / nested / hash, no leaked page) over generated instances with duplicates and NULLs in
the item, the correlation columns and the outer columns; the plan is
then checked for the semi tables being exactly where the rule puts them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Engine
from repro.difftest.grammar import Case
from repro.difftest.runner import run_case
from repro.sql.parser import parse
from tests.core.helpers import assert_in_merges_are_semi

# A tiny domain forces duplicates and join collisions; NULL everywhere.
values = st.one_of(st.none(), st.integers(0, 2))
rows = st.lists(st.tuples(values, values), max_size=6)

ROOT = "SELECT T.A, T.B FROM T WHERE "

#: shape -> (SQL, definitions NEST-G emits, semi tables of the plan).
#: Tables: T(A, B) outside, U(A, C) inside.
SHAPES = {
    # -- every JTEMP column matched by a strict equality ---------------
    "eq": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A)",
        ["JTEMP"], 1,
    ),
    "eq_and_local": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE T.A = U.A AND U.C > 0)",
        ["JTEMP"], 1,
    ),
    "two_eq": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A AND U.C = T.B + 0)",
        ["JTEMP"], 1,
    ),
    "expression_item": (
        ROOT + "T.B IN (SELECT U.C + 1 FROM U WHERE U.A = T.A)",
        ["JTEMP"], 1,
    ),
    "two_table_inner": (
        ROOT + "T.B IN (SELECT U.C FROM U, T T2 "
        "WHERE U.A = T2.A AND T2.B = T.A)",
        ["JTEMP"], 1,
    ),
    # -- several temp rows can match one outer row: same plan ----------
    "theta": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A < T.A)",
        ["JTEMP"], 1,
    ),
    "two_theta": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A <= T.A AND U.C <> T.A)",
        ["JTEMP"], 1,
    ),
    "mixed": (
        ROOT + "T.B IN (SELECT U.C + 1 FROM U WHERE U.A = T.A AND U.C >= T.B)",
        ["JTEMP"], 1,
    ),
    "pins_a_sum": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A + U.C = T.A)",
        ["JTEMP"], 1,
    ),
    "disjunction": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A OR U.C = T.A)",
        ["JTEMP"], 1,
    ),
    # -- depth 2: the type-J block under a type-N and a type-JA parent --
    # The DISTINCT definition NTEMP joins JTEMP plainly.
    "under_type_n": (
        ROOT + "T.A IN (SELECT U.A FROM U WHERE U.C IN "
        "(SELECT U2.C FROM U U2 WHERE U2.A = U.A))",
        ["JTEMP", "NTEMP"], 1,
    ),
    # Correlated to the aggregated block's own table: a semi table of
    # NEST-JA2's restricted inner projection.
    "under_type_ja": (
        ROOT + "T.B = (SELECT COUNT(U.C) FROM U WHERE U.A = T.A AND U.C IN "
        "(SELECT U2.C FROM U U2 WHERE U2.A = U.A AND U2.C < 2))",
        ["JTEMP", "TEMP", "TEMP", "TEMP"], 1,
    ),
    # Correlated past it: NEST-JA2 projects JTEMP.J1, the mark is cleared.
    "under_type_ja_reaching_root": (
        ROOT + "T.B = (SELECT COUNT(*) FROM U WHERE U.A = T.A AND U.C IN "
        "(SELECT U2.C + 0 FROM U U2 WHERE U2.A = T.A))",
        ["JTEMP", "TEMP", "TEMP", "TEMP"], 0,
    ),
    # -- an item that reads an outer column: its inner columns are
    # -- projected like the correlation columns ------------------------
    "correlated_item": (
        ROOT + "T.B IN (SELECT U.C + T.A FROM U WHERE U.A = T.A)",
        ["JTEMP"], 1,
    ),
    "item_is_outer_column": (
        ROOT + "T.B IN (SELECT T.A FROM U WHERE U.A = T.A)",
        ["JTEMP"], 1,
    ),
}


@pytest.mark.parametrize("shape", list(SHAPES))
@settings(max_examples=6, deadline=None)
@given(rows_t=rows, rows_u=rows)
def test_answers_and_derived_fix_up(shape, rows_t, rows_u):
    """(Named after the rowid fix-up whose need used to be derived per
    merge; a semi-join leaves nothing to fix up.)"""
    sql, definitions, semi_tables = SHAPES[shape]
    case = Case(rows={"T": rows_t, "U": rows_u}, sql=sql)
    outcome = run_case(case)
    assert outcome.status == "ok", f"{outcome.detail}\n{case.describe()}"
    assert not outcome.transform_skipped

    engine = Engine(case.build_catalog())
    plan = engine.plan(parse(sql), "transform")
    assert [d.name.rsplit("_", 1)[0] for d in plan.setup] == definitions
    assert len(assert_in_merges_are_semi(plan)) == semi_tables
    assert not plan.final_query.distinct
    report = plan.replay(engine.catalog)
    assert "sort-unique for DISTINCT" not in report.steps[-1]
    said = [line for line in plan.trace if "as a semi-join" in line]
    assert len(said) == len([d for d in definitions if d != "TEMP"])


@settings(max_examples=10, deadline=None)
@given(rows_t=rows, rows_u=rows)
def test_scalar_type_j_and_correlated_not_in_take_the_old_path(rows_t, rows_u):
    """Outside the rewrite: a scalar ``= (SELECT ...)`` type-J block is
    merged flat (no temp, no semi table), a correlated NOT IN stays
    untransformable and ``method="auto"`` answers it by nested
    iteration."""
    catalog = Case(rows={"T": rows_t, "U": rows_u}, sql="").build_catalog()
    engine = Engine(catalog)
    scalar = ROOT + "T.B = (SELECT U.C FROM U WHERE U.A = T.A)"
    plan = engine.plan(parse(scalar), "transform")
    assert not plan.setup
    assert plan.canonical_sql.startswith("SELECT T.A, T.B FROM T, U WHERE")
    not_in = ROOT + "T.B NOT IN (SELECT U.C FROM U WHERE U.A = T.A)"
    case = Case(rows={"T": rows_t, "U": rows_u}, sql=not_in)
    outcome = run_case(case)
    assert outcome.status == "ok" and outcome.transform_skipped
    assert engine.plan(parse(not_in), "auto").kind == "nested_iteration"
