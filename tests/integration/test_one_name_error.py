"""One mistake, one error.

A column name a statement gets wrong — unqualified or qualified, in
the statement's own block or a nested one, missing or ambiguous — is
found by the binder, the one place a name is checked.  It raises one
``ColumnVerificationError`` carrying the rule id, whatever the method
and whichever entry point runs the statement.  The executors check
nothing, and take no flag that would make them.
"""

import pytest

from repro import Database
from repro.engine.nested_iteration import NestedIterationExecutor
from repro.errors import ColumnVerificationError
from repro.optimizer.executor import SingleLevelExecutor

#: statement → the rule of its one finding.
MISTAKES = {
    "SELECT NOPE FROM PARTS": "PV001",
    "SELECT PARTS.NOPE FROM PARTS": "PV001",
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(*) FROM SUPPLY WHERE X.PNUM = SUPPLY.PNUM)": "PV001",
    "SELECT PNUM FROM PARTS, SUPPLY": "PV002",
    "SELECT PNUM FROM PARTS, PARTS WHERE QOH = 0 OR QOH = "
    "(SELECT COUNT(*) FROM SUPPLY)": "PV002",
}
IDS = ["unqualified", "qualified", "nested", "ambiguous", "repeated_binding"]
METHODS = ("transform", "auto", "nested_iteration", "cost")
ENTRIES = {
    "run": lambda db, sql, method: db.run(sql, method=method),
    "query": lambda db, sql, method: db.query(sql, method=method),
    "prepared": lambda db, sql, method: db.prepare(sql, method=method).execute(),
}


def make_db() -> Database:
    db = Database()
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", [(3, 6), (10, 1)])
    db.insert("SUPPLY", [(3, 4), (10, 1)])
    return db


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("sql", list(MISTAKES), ids=IDS)
def test_a_wrong_name_raises_one_error_with_its_rule(sql, method, entry):
    db = make_db()
    with pytest.raises(ColumnVerificationError) as excinfo:
        ENTRIES[entry](db, sql, method)
    assert [d.rule for d in excinfo.value.diagnostics] == [MISTAKES[sql]]


@pytest.mark.parametrize(
    "make",
    [
        lambda catalog: SingleLevelExecutor(catalog, verify=True),
        lambda catalog: NestedIterationExecutor(catalog, verify=True),
    ],
    ids=["single_level", "nested_iteration"],
)
def test_an_executor_takes_no_verify_flag(make):
    with pytest.raises(TypeError):
        make(make_db().catalog)
