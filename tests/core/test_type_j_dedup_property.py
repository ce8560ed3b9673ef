"""Type-J ``IN`` under ``dedupe_inner``: the inner temp and the derived
rowid fix-up, against nested iteration and SQLite.

With ``dedupe_inner`` a correlated ``x IN (SELECT item FROM inner WHERE
...)`` becomes ``JTEMP = SELECT DISTINCT <correlation columns>, item``
plus a merge of ``SELECT C1 FROM JTEMP WHERE <correlated conjuncts>``.
NEST-G derives whether that merge can fan an outer row out — it cannot
exactly when every ``JTEMP`` column is pinned by a strict ``=`` — and
only otherwise asks the pipeline for the ``#RID`` + DISTINCT fix-up.

Every shape below runs through the difftest harness (nested iteration ≡
SQLite ≡ transform under merge / nested / hash at parallelism 1 and 4,
``dedupe_inner = dedupe_outer = True``, no leaked page) over generated
instances with duplicates and NULLs in the item, the correlation
columns and the outer columns; the plan is then checked for the fix-up
being present exactly when it has to be.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Engine
from repro.difftest.grammar import Case
from repro.difftest.runner import run_case
from repro.sql.parser import parse

# A tiny domain forces duplicates and join collisions; NULL everywhere.
values = st.one_of(st.none(), st.integers(0, 2))
rows = st.lists(st.tuples(values, values), max_size=6)

ROOT = "SELECT T.A, T.B FROM T WHERE "

#: shape -> (SQL, definitions NEST-G emits, rowid fix-up expected).
#: Tables: T(A, B) outside, U(A, C) inside.
SHAPES = {
    # -- every JTEMP column pinned by a strict equality: no fix-up -----
    "eq": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A)",
        ["JTEMP"], False,
    ),
    "eq_and_local": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE T.A = U.A AND U.C > 0)",
        ["JTEMP"], False,
    ),
    "two_eq": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A AND U.C = T.B + 0)",
        ["JTEMP"], False,
    ),
    "expression_item": (
        ROOT + "T.B IN (SELECT U.C + 1 FROM U WHERE U.A = T.A)",
        ["JTEMP"], False,
    ),
    "two_table_inner": (
        ROOT + "T.B IN (SELECT U.C FROM U, T T2 "
        "WHERE U.A = T2.A AND T2.B = T.A)",
        ["JTEMP"], False,
    ),
    # -- some column not pinned: the merge may fan out, fix-up kept ----
    "theta": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A < T.A)",
        ["JTEMP"], True,
    ),
    "two_theta": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A <= T.A AND U.C <> T.A)",
        ["JTEMP"], True,
    ),
    "mixed": (
        ROOT + "T.B IN (SELECT U.C + 1 FROM U WHERE U.A = T.A AND U.C >= T.B)",
        ["JTEMP"], True,
    ),
    "pins_a_sum": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A + U.C = T.A)",
        ["JTEMP"], True,
    ),
    "disjunction": (
        ROOT + "T.B IN (SELECT U.C FROM U WHERE U.A = T.A OR U.C = T.A)",
        ["JTEMP"], True,
    ),
    # -- depth 2: the type-J block under a type-N and a type-JA parent --
    "under_type_n": (
        ROOT + "T.A IN (SELECT U.A FROM U WHERE U.C IN "
        "(SELECT U2.C FROM U U2 WHERE U2.A = U.A))",
        ["JTEMP", "NTEMP"], False,
    ),
    "under_type_ja": (
        ROOT + "T.B = (SELECT COUNT(U.C) FROM U WHERE U.A = T.A AND U.C IN "
        "(SELECT U2.C FROM U U2 WHERE U2.A = U.A AND U2.C < 2))",
        ["JTEMP", "TEMP", "TEMP", "TEMP"], False,
    ),
    "under_type_ja_reaching_root": (
        ROOT + "T.B = (SELECT COUNT(*) FROM U WHERE U.A = T.A AND U.C IN "
        "(SELECT U2.C + 0 FROM U U2 WHERE U2.A = T.A))",
        ["JTEMP", "TEMP", "TEMP", "TEMP"], False,
    ),
    # -- the split cannot express these: merged flat, as before --------
    "correlated_item": (
        ROOT + "T.B IN (SELECT U.C + T.A FROM U WHERE U.A = T.A)",
        [], True,
    ),
    "item_is_outer_column": (
        ROOT + "T.B IN (SELECT T.A FROM U WHERE U.A = T.A)",
        [], True,
    ),
}


@pytest.mark.parametrize("shape", list(SHAPES))
@settings(max_examples=6, deadline=None)
@given(rows_t=rows, rows_u=rows)
def test_answers_and_derived_fix_up(shape, rows_t, rows_u):
    sql, definitions, fix_up = SHAPES[shape]
    case = Case(rows={"T": rows_t, "U": rows_u}, sql=sql)
    outcome = run_case(case, engines=("compiled",), parallelisms=(1, 4))
    assert outcome.status == "ok", f"{outcome.detail}\n{case.describe()}"
    assert not outcome.transform_skipped

    engine = Engine(case.build_catalog(), dedupe_inner=True, dedupe_outer=True)
    plan = engine.plan(parse(sql), "transform")
    assert [d.name.rsplit("_", 1)[0] for d in plan.setup] == definitions
    assert (plan.strip > 0) == fix_up
    assert plan.final_query.distinct == fix_up
    report = plan.replay(engine.catalog)
    assert ("sort-unique for DISTINCT" in report.steps[-1]) == fix_up
    said = [line for line in plan.trace if "deduplicated" in line]
    assert len(said) == len([d for d in definitions if d != "TEMP"])
    if definitions and not fix_up:
        assert all("cannot fan out: no rowid fix-up" in line for line in said)
    elif definitions:
        assert any("may fan out" in line for line in said)


@settings(max_examples=10, deadline=None)
@given(rows_t=rows, rows_u=rows)
def test_scalar_type_j_and_correlated_not_in_take_the_old_path(rows_t, rows_u):
    """Outside the rewrite: a scalar ``= (SELECT ...)`` type-J block is
    merged flat (no temp), a correlated NOT IN stays untransformable and
    ``method="auto"`` answers it by nested iteration."""
    catalog = Case(rows={"T": rows_t, "U": rows_u}, sql="").build_catalog()
    engine = Engine(catalog, dedupe_inner=True, dedupe_outer=True)
    scalar = ROOT + "T.B = (SELECT U.C FROM U WHERE U.A = T.A)"
    plan = engine.plan(parse(scalar), "transform")
    assert not plan.setup and plan.strip == 1
    not_in = ROOT + "T.B NOT IN (SELECT U.C FROM U WHERE U.A = T.A)"
    case = Case(rows={"T": rows_t, "U": rows_u}, sql=not_in)
    outcome = run_case(case, engines=("compiled",))
    assert outcome.status == "ok" and outcome.transform_skipped
    assert engine.plan(parse(not_in), "auto").kind == "nested_iteration"
