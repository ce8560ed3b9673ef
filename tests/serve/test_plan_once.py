"""Each block of a plan is planned once, when the plan is built: the
executor's planning (:func:`~repro.optimizer.executor.plan_block`) is
the verifier's block check, and a replay runs the stored blocks.

The only blocks a replay plans are the ones it makes: a maintained
link's delta queries, which exist only once a commit has landed.
"""

import pytest

import repro.optimizer.executor as executor_module
from repro import Database
from repro.sql.parser import parse
from tests.core.test_page_schedule import SHAPES

JA = SHAPES["ja_count"].format(c="?")
CUTOFF = "1980-07-15"


def make_db() -> Database:
    # A pool this small makes the cost model pick the transform too.
    db = Database(buffer_pages=8)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=4)
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=4)
    db.insert("PARTS", [(p, p % 3) for p in range(1, 13)])
    db.insert(
        "SUPPLY",
        [(p % 14 + 1, p % 5, f"{1978 + p % 5}-0{p % 9 + 1}-15") for p in range(40)],
    )
    return db


@pytest.fixture
def planned(monkeypatch) -> list:
    """Every block planned from here on, in order."""
    blocks: list = []
    real = executor_module.plan_block

    def spy(select, columns_of):
        blocks.append(select)
        return real(select, columns_of)

    monkeypatch.setattr(executor_module, "plan_block", spy)
    return blocks


@pytest.mark.parametrize("method", ["transform", "auto", "cost"])
def test_a_plan_build_plans_each_block_once(method, planned):
    db = make_db()
    plan = db.engine.plan(parse(JA), method)
    assert plan.kind == "transform"
    assert len(plan.setup) == 3
    assert planned == [*(link.query for link in plan.setup), plan.final_query]
    assert [block.select for block in plan.blocks] == planned


def test_a_kept_plan_replays_without_planning(planned):
    db = make_db()
    sql = JA.replace("?", f"'{CUTOFF}'")
    statement = db.prepare(JA)
    first = [
        db.execute_cached(JA, (CUTOFF,)).result.rows,
        statement.execute((CUTOFF,)).result.rows,
        db.query(sql).rows,
    ]
    built = len(planned)
    assert built == 4  # one kept plan: three links and the final block
    for _ in range(3):
        again = [
            db.execute_cached(JA, (CUTOFF,)).result.rows,
            statement.execute((CUTOFF,)).result.rows,
            db.query(sql).rows,
        ]
        assert [sorted(rows) for rows in again] == [sorted(rows) for rows in first]
    assert len(planned) == built


def test_a_maintained_replay_plans_only_its_delta_queries(planned):
    db = make_db()
    statement = db.prepare(JA)
    statement.execute((CUTOFF,))
    built = len(planned)
    db.insert("SUPPLY", [(3, 2, "1979-03-15"), (40, 1, "1979-04-15")])
    report = statement.execute((CUTOFF,))
    assert any(step.startswith("maintained") for step in report.steps), report.steps
    deltas = planned[built:]
    assert deltas
    assert all(
        any(ref.name.startswith("DELTA") for ref in block.from_tables)
        for block in deltas
    )
    statement.execute((CUTOFF,))
    assert len(planned) == built + len(deltas)
