"""Maintained == rebuilt: a shared temp brought forward over commits'
deltas holds exactly what building it from scratch at the same
snapshot holds — the same row bag, the same claimed order, and rows
really in that order — and every shape the delta cannot be pushed
through is rebuilt instead.

The chains are written out by hand so that every shape the maintenance
distinguishes is covered, whether or not NEST-G would produce it: the
DISTINCT run, COUNT(col) / SUM / MIN / MAX over an inner and over a
left-outer join, the sorted run of a base table (the final blocks merge
join PARTS), and the cases that must rebuild.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.config import ExecConfig
from repro.core.transform import TempTableDef
from repro.difftest.leaks import leaked_pages
from repro.difftest.mixed import shared_temp_mismatches
from repro.optimizer.executor import plan_chain
from repro.serve.binding import ParamSpec
from repro.serve.plan import CachedPlan
from repro.serve.sharing import compute_share_specs
from repro.sql.parser import parse

KEYS = "SELECT DISTINCT PARTS.PNUM AS C1 FROM PARTS"
VALUES = (
    "SELECT SUPPLY.PNUM AS J1, SUPPLY.QUAN AS VAL, SUPPLY.PRICE AS P "
    "FROM SUPPLY WHERE SUPPLY.SHIPDATE < ?"
)
AGGREGATES = "COUNT(V.VAL) AS N, SUM(V.VAL) AS S, MIN(V.VAL) AS LO, MAX(V.VAL) AS HI"


def grouped(aggregates: str, join: str = "=", keys: str = KEYS) -> list:
    return [
        ("K", keys),
        ("V", VALUES),
        (
            "G",
            f"SELECT K.C1 AS C1, {aggregates} FROM K, V "
            f"WHERE K.C1 {join} V.J1 GROUP BY K.C1",
        ),
    ]


#: name -> (chain, the link the final block reads).  Maintainable on a
#: SUPPLY insert (and the sorted PARTS run on a PARTS insert).
MAINTAINED = {
    "distinct": [
        (
            "D",
            "SELECT DISTINCT SUPPLY.PNUM AS C1, SUPPLY.QUAN AS C2 FROM SUPPLY "
            "WHERE SUPPLY.SHIPDATE < ?",
        )
    ],
    "inner": grouped(AGGREGATES),
    "outer": grouped(AGGREGATES, "=+"),
}

#: name -> (chain, the commits that must rebuild its last link).
REBUILT = {
    "self_join": (
        [
            (
                "D",
                "SELECT DISTINCT S1.PNUM AS C1 FROM SUPPLY S1, SUPPLY S2 "
                "WHERE S1.PNUM = S2.PNUM AND S2.QUAN > S1.QUAN",
            )
        ],
        ("SUPPLY",),
    ),
    "two_tables": (
        [
            (
                "D",
                "SELECT DISTINCT PARTS.QOH AS C1, SUPPLY.QUAN AS C2 "
                "FROM PARTS, SUPPLY WHERE PARTS.PNUM = SUPPLY.PNUM",
            )
        ],
        ("PARTS", "SUPPLY"),
    ),
    # Plain keys, so that PARTS rows do reach the outer join as a delta
    # — on its preserved side.
    "preserved_side": (
        grouped(AGGREGATES, "=+", "SELECT PARTS.PNUM AS C1 FROM PARTS"),
        ("PARTS",),
    ),
    "count_star_outer": (grouped("COUNT(*) AS N", "=+"), ("SUPPLY",)),
    # A first match replaces the padded row (k, NULL): not a union.
    "distinct_outer": (
        [
            ("K", KEYS),
            ("V", VALUES),
            (
                "D",
                "SELECT DISTINCT K.C1 AS C1, V.VAL AS C2 FROM K, V "
                "WHERE K.C1 =+ V.J1",
            ),
        ],
        ("SUPPLY",),
    ),
    "avg": (grouped("AVG(V.VAL) AS A"), ("SUPPLY",)),
    "distinct_aggregate": (grouped("COUNT(DISTINCT V.VAL) AS N"), ("SUPPLY",)),
    "having": (
        [
            ("K", KEYS),
            ("V", VALUES),
            (
                "G",
                "SELECT K.C1 AS C1, MAX(V.VAL) AS HI FROM K, V WHERE K.C1 = V.J1 "
                "GROUP BY K.C1 HAVING COUNT(V.VAL) > 1",
            ),
        ],
        ("SUPPLY",),
    ),
    "float_sum": (grouped("SUM(V.P) AS S"), ("SUPPLY",)),
}

CUTOFF = "1981-01-01"
DATES = [None, "1979-06-01", "1980-06-01", "1982-06-01"]


def make_db() -> Database:
    db = Database(buffer_pages=64)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table(
        "SUPPLY",
        ["PNUM", "QUAN", ("SHIPDATE", "text"), ("PRICE", "float")],
    )
    db.insert("PARTS", [(p, p % 3) for p in range(1, 7)])
    db.insert(
        "SUPPLY",
        [
            (1, 2, "1979-06-01", 2.0),
            (2, None, "1980-06-01", None),
            (None, 5, "1979-06-01", 1.5),
            (3, 4, "1982-06-01", 0.5),
        ],
    )
    return db


def chain_plan(
    db: Database, name: str, chain: list, join_method: str = "merge"
) -> CachedPlan:
    """A plan whose temp chain is ``chain`` and whose final block merge
    joins PARTS with its last link — kept in the cache, so its entries
    are held and freed like any cached plan's."""
    setup = [TempTableDef(temp, parse(sql)) for temp, sql in chain]
    slots = any("?" in sql for _temp, sql in chain)
    last = setup[-1].name
    final = parse(
        f"SELECT PARTS.PNUM, PARTS.QOH FROM PARTS, {last} "
        f"WHERE PARTS.PNUM = {last}.C1"
    )
    plan = CachedPlan(
        fingerprint=name,
        catalog_version=db.catalog.schema_version,
        data_version=db.catalog.data_version,
        kind="transform",
        select=final,
        param_specs=[ParamSpec(0)] if slots else [],
        config=ExecConfig(join_method=join_method),
        setup=setup,
        blocks=plan_chain(setup, final, db.catalog.column_names),
        columns=["PNUM", "QOH"],
        registry=db.plan_cache.sharing,
        share_specs=compute_share_specs(setup),
    )
    db.plan_cache.store(("maintain", name), plan)
    return plan


def values_of(plan: CachedPlan) -> tuple:
    return (CUTOFF,) * plan.param_count


def check_registry(db: Database) -> None:
    """Every registered version equals its rebuild at its own horizons."""
    checked, mismatches = shared_temp_mismatches(db)
    assert checked and not mismatches, mismatches


NULLABLE_INT = st.one_of(st.none(), st.integers(0, 7))
# Mostly parts that exist and dates before the cutoff, so that most
# commits do reach the groups; NULLs in every joined and aggregated
# column.
SUPPLY_ROW = st.tuples(
    st.one_of(st.integers(1, 6), st.none(), st.just(9)),
    NULLABLE_INT,
    st.sampled_from(DATES[:3] * 2 + DATES[3:]),
    st.one_of(st.none(), st.sampled_from([0.5, 1.25, 3.0])),
)
PARTS_ROW = st.tuples(st.one_of(st.none(), st.integers(0, 9)), NULLABLE_INT)
PARTS_ROWS = st.lists(PARTS_ROW, min_size=1, max_size=2)
SUPPLY_ROWS = st.lists(SUPPLY_ROW, min_size=1, max_size=4)
#: (PARTS rows, SUPPLY rows) of one commit: either table or both.
COMMIT = st.one_of(
    st.tuples(st.just([]), SUPPLY_ROWS),
    st.tuples(PARTS_ROWS, st.just([])),
    st.tuples(PARTS_ROWS, SUPPLY_ROWS),
)


def commit(db: Database, parts: list, supply: list) -> None:
    with db.begin() as txn:
        if parts:
            txn.insert("PARTS", parts)
        if supply:
            txn.insert("SUPPLY", supply)


def answer(db: Database, plan: CachedPlan) -> Counter:
    return Counter(plan.replay(db.catalog, values_of(plan)).result.rows)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("join_method", ["merge", "hash", "nested"])
@given(commits=st.lists(COMMIT, min_size=1, max_size=6))
def test_maintained_entries_equal_their_rebuilds(join_method, commits):
    """Under every join method: the merge, nested-loop and hash paths
    claim different orders (hash: none), and the merge keeps each."""
    db = make_db()
    plans = [
        chain_plan(db, name, chain, join_method)
        for name, chain in MAINTAINED.items()
    ]
    for plan in plans:
        answer(db, plan)
    fates: Counter = Counter()
    for parts, supply in commits:
        commit(db, parts, supply)
        for plan in plans:
            answer(db, plan)
            fates.update(plan.last_links.values())
            check_registry(db)
    if any(supply and not parts for parts, supply in commits):
        assert fates["maintained"] > 0
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


@pytest.mark.parametrize("name", list(REBUILT))
def test_what_cannot_be_maintained_is_rebuilt(name):
    chain, tables = REBUILT[name]
    db = make_db()
    plan = chain_plan(db, name, chain)
    answer(db, plan)
    last = chain[-1][0]
    rows = {
        "PARTS": [(2, 2), (7, 0)],
        "SUPPLY": [(2, 3, "1979-06-01", 0.1), (7, 1, "1979-06-01", 0.2)],
    }
    with db.begin() as txn:
        for table in tables:
            txn.insert(table, rows[table])
    report = plan.replay(db.catalog, values_of(plan))
    assert plan.last_links[last] == "built", report.steps
    assert "maintained" not in plan.last_links.values() or tables == ("PARTS",)
    check_registry(db)
    oracle = db.run(
        "SELECT PARTS.PNUM, PARTS.QOH FROM PARTS", method="nested_iteration"
    )
    assert set(report.result.rows) <= set(oracle.result.rows)
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


def test_an_older_reader_neither_leases_a_newer_entry_nor_publishes():
    db = make_db()
    plan = chain_plan(db, "outer", MAINTAINED["outer"])
    answer(db, plan)
    registry = db.plan_cache.sharing
    old = db.catalog.snapshots.current()
    with db.catalog.snapshots.pinned(old):
        at_old = answer(db, plan)
    db.insert("SUPPLY", [(2, 6, "1979-06-01", 1.0), (4, None, None, None)])
    newer = answer(db, plan)
    assert plan.last_links["G"] == "maintained"
    published = (registry.materializations, registry.maintenances)
    versions = {key: entry.horizons for key, entry in registry._entries.items()}
    with db.catalog.snapshots.pinned(old):
        assert answer(db, plan) == at_old
    assert plan.last_links["G"] == "built"
    assert (registry.materializations, registry.maintenances) == published
    assert {key: e.horizons for key, e in registry._entries.items()} == versions
    assert answer(db, plan) == newer
    assert plan.last_links["G"] == "shared"
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0
