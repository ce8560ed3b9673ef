"""An outer join preserves the accumulated input, and its marker sits on
a join predicate: two block-level rules of the paper's COUNT-bug fix
(sections 5.2 and 6.1), checked where a block is planned, on every
route that runs one.

Each wrong block below used to run when no plan verifier stood in the
way — a directly executed block, or a demonstrator's plan through
``run_transform`` — and answered wrongly: preserving the padded side,
or silently joining inner.
"""

import pytest

from repro import Database
from repro.config import ExecConfig
from repro.core.nest_g import GeneralTransform
from repro.engine.relation import Relation
from repro.errors import VerificationError
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.plan import run_transform
from repro.sql.parser import parse

ITEMS = "SELECT PARTS.PNUM, SUPPLY.QUAN"

#: block -> the rule it breaks.
WRONG = {
    # The marker preserves PARTS, which is joined after SUPPLY: the
    # executor used to preserve SUPPLY, the padded side.
    f"{ITEMS} FROM SUPPLY, PARTS WHERE PARTS.PNUM =+ SUPPLY.PNUM": "PV006",
    # Not a column comparison: the marker used to be dropped and the
    # join run inner, losing (2, NULL).
    f"{ITEMS} FROM PARTS, SUPPLY WHERE PARTS.PNUM + 0 =+ SUPPLY.PNUM": "PV009",
}

CONTROL = f"{ITEMS} FROM PARTS, SUPPLY WHERE PARTS.PNUM =+ SUPPLY.PNUM"

JOIN_METHODS = ["merge", "nested", "hash"]


def make_db() -> Database:
    db = Database()
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", [(1, 5), (2, 6)])
    db.insert("SUPPLY", [(1, 7), (9, 9)])
    return db


def executed(db: Database, sql: str, join_method: str) -> list[tuple]:
    executor = SingleLevelExecutor(db.catalog, ExecConfig(join_method))
    return executor.execute(parse(sql), Relation.to_list)


def transformed(db: Database, sql: str, join_method: str) -> list[tuple]:
    transform = GeneralTransform(setup=[], query=parse(sql), trace=[])
    return run_transform(db.catalog, transform, join_method).result.rows


ROUTES = {"execute": executed, "run_transform": transformed}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("join_method", JOIN_METHODS)
@pytest.mark.parametrize("sql", sorted(WRONG))
def test_a_wrong_outer_join_does_not_run(sql, join_method, route):
    db = make_db()
    with pytest.raises(VerificationError) as excinfo:
        ROUTES[route](db, sql, join_method)
    assert [d.rule for d in excinfo.value.diagnostics] == [WRONG[sql]]


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("join_method", JOIN_METHODS)
def test_the_outer_join_that_preserves_temp1_runs(join_method, route):
    rows = ROUTES[route](make_db(), CONTROL, join_method)
    assert sorted(rows, key=repr) == [(1, 7), (2, None)]
