"""One plan store: every kept plan is a ``PlanCache`` entry, and
``execute_cached`` and prepared statements resolve it through
``PlanCache.resolve`` — so a statement follows ``engine.config``, one
entry serves every parameter vector, and one capacity bounds and one
set of statistics counts them all."""

import sys
import threading
from collections import Counter
from dataclasses import replace

import repro.serve.plan as plan_module
from repro.difftest.leaks import leaked_pages
from repro.serve.batch import build_batch_plan, execute_batch_plan
from repro.serve.normalize import fingerprint, parameterize
from repro.sql.parser import parse
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from tests.serve.test_statement_path import make_db

JA = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {})"
)
#: A value under a type-A block: bound when the block's value link is
#: evaluated at replay, like any other.
TYPE_A = (
    "SELECT PNUM FROM PARTS WHERE QOH >= "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE QUAN < {})"
)


def count_build_plan(monkeypatch) -> list:
    calls: list = []
    real = plan_module.build_plan

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module, "build_plan", counting)
    return calls


def test_prepared_statement_follows_the_engine_config(monkeypatch):
    db = make_db()
    statement = db.prepare(JA.format("?"))
    cutoff = ("1980-06-01",)
    merge = statement.execute(cutoff)
    assert merge.join_method == "merge"

    db.engine.config = replace(db.engine.config, join_method="hash")
    hashed = statement.execute(cutoff)
    assert hashed.join_method == "hash"
    assert hashed.join_method == db.execute_cached(JA.format("?"), cutoff).join_method
    assert Counter(hashed.result.rows) == Counter(merge.result.rows)

    # Flipping back plans nothing: the first plan is still an entry.
    db.engine.config = replace(db.engine.config, join_method="merge")
    calls = count_build_plan(monkeypatch)
    misses = db.cache_stats().misses
    assert statement.execute(cutoff).join_method == "merge"
    assert calls == [] and db.cache_stats().misses == misses


def test_warm_custom_shaped_execute_cached_plans_nothing(monkeypatch):
    db = make_db()
    first = db.execute_cached(TYPE_A.format(5))
    assert Counter(first.result.rows) == Counter([(3,), (10,)])
    calls = count_build_plan(monkeypatch)
    before = db.cache_stats()
    for _ in range(20):
        assert db.execute_cached(TYPE_A.format(5)).result.rows == first.result.rows
    after = db.cache_stats()
    assert calls == []
    assert after.misses == before.misses
    assert after.hits == before.hits + 20
    # Another literal replays the same plan.
    assert db.execute_cached(TYPE_A.format(7)).result.rows == [(3,)]
    assert calls == [] and db.cache_stats().misses == before.misses


def test_prepared_custom_plans_are_bounded_cache_entries():
    db = make_db(plan_cache_size=4)
    statement = db.prepare(TYPE_A.format("?"))
    for value in range(1, 4):
        statement.execute((value,))
    assert db.cache_stats().size == 1  # one entry serves every vector
    assert db.cache_stats().hits >= 3  # prepared traffic is counted
    for value in range(1, 12):
        assert statement.execute((value,)).result.rows == db.run(
            TYPE_A.format(value), method="nested_iteration"
        ).result.rows
        assert db.cache_stats().size == 1
    assert db.cache_stats().evictions == 0
    # A prepared and an ad-hoc statement of one shape share the entry.
    hits = db.cache_stats().hits
    db.execute_cached(TYPE_A.format(11))
    assert db.cache_stats().hits == hits + 1


def test_close_discards_the_statements_plans(monkeypatch):
    db = make_db()
    generic = db.prepare(JA.format("?"))
    custom = db.prepare(TYPE_A.format("?"))
    other = db.prepare("SELECT PNUM FROM PARTS WHERE QOH > ?")
    generic.execute(("1980-06-01",))
    custom.execute((5,))
    custom.execute((7,))
    assert len(db.plan_cache.sharing) > 0
    generic.close()
    custom.close()
    # Only the third statement's plan is left, and it holds no temp.
    assert db.cache_stats().size == 1
    assert len(db.plan_cache.sharing) == 0
    other.close()
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0

    calls = count_build_plan(monkeypatch)
    assert Counter(generic.execute(("1980-06-01",)).result.rows) == Counter(
        [(10,), (8,), (8,)]
    )
    assert len(calls) == 1
    assert custom.execute((7,)).result.rows == [(3,)]
    assert Counter(custom.execute((5,)).result.rows) == Counter([(3,), (10,)])
    assert len(calls) == 2 and db.cache_stats().size == 2
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


def test_a_released_plan_holds_nothing_again():
    """The window the threaded test below hits by chance: a thread
    resolved the plan, the cache released it, then the thread replays
    it.  What it builds stays its own — no cached plan would ever free
    it."""
    db = make_db()
    db.prepare(JA.format("?"))
    (plan,) = db.plan_cache._entries.values()
    db.plan_cache.clear()
    report = plan.replay(db.catalog, ("1980-06-01",))
    assert [step.split()[0] for step in report.steps[:-1]] == ["built"] * 3
    assert len(db.plan_cache.sharing) == 0
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


def test_a_commit_between_resolve_and_replay_is_not_answered_stale():
    """The plan is resolved, then a commit moves MAX(QUAN) < 5 from 1 to
    4 before the replay pins its snapshot.  The plan holds no value: the
    replay evaluates the block after the insert, so its answer is
    SQLite's after it, and nothing was re-planned."""
    db = make_db()
    sql = TYPE_A.format(5)
    assert Counter(db.execute_cached(sql).result.rows) == Counter([(3,), (10,)])
    select, values = parameterize(parse(sql))
    plan = db.plan_cache.resolve(db.engine, select, fingerprint(select), "auto")
    db.insert("SUPPLY", [(8, 4, "1980-03-01")])
    rows = plan.replay(db.catalog, values).result.rows
    with SQLiteOracle(db.catalog) as oracle:
        assert normalize_rows(rows) == normalize_rows(oracle.run(sql))
    assert Counter(rows) == Counter([(3,)])
    assert db.cache_stats().invalidations == 0


def test_a_commit_before_a_batch_pins_its_snapshot_is_not_answered_stale():
    """The same window on the batched ``executemany`` path: the plan
    and its set-oriented form are resolved, a commit moves the MAX, and
    the batch evaluates the block once, under its own snapshot."""
    db = make_db()
    sql = (
        "SELECT PNUM FROM PARTS WHERE PNUM > ? AND QOH >= "
        "(SELECT MAX(QUAN) FROM SUPPLY WHERE QUAN < 5)"
    )
    statement = db.prepare(sql)
    plan = statement._resolve()
    batch_plan = build_batch_plan(plan, db.catalog)
    db.insert("SUPPLY", [(8, 4, "1980-03-01")])
    reports = execute_batch_plan(plan, batch_plan, db.catalog, [(0,), (5,)])
    with SQLiteOracle(db.catalog) as oracle:
        for bound, report in zip((0, 5), reports):
            expected = oracle.run(sql.replace("?", str(bound)))
            assert normalize_rows(report.result.rows) == normalize_rows(expected)
    assert statement.execute_batch([(0,), (5,)]).strategy == "batched"


def test_two_threads_one_statement_across_insert_and_ddl():
    """Both threads resolve through the cache while a commit (every
    plan survives it, the type-A block is evaluated again) and DDL
    (everything re-planned) land; every answer is SQLite's for the state
    before or after the insert, and the traffic is all in the cache's
    statistics."""
    db = make_db()
    generic = db.prepare(JA.format("?"))
    custom = db.prepare(TYPE_A.format("?"))
    cutoffs = ["1980-01-15", "1980-06-01", "1981-06-01"]
    bounds = [1, 5, 7]

    def sqlite_answers() -> dict:
        with SQLiteOracle(db.catalog) as oracle:
            answers = {
                c: normalize_rows(oracle.run(JA.format(f"'{c}'"))) for c in cutoffs
            }
            answers.update(
                (b, normalize_rows(oracle.run(TYPE_A.format(b)))) for b in bounds
            )
        return answers

    before = sqlite_answers()
    seen: list[tuple] = []
    failures: list[BaseException] = []
    written = threading.Event()
    rounds = 12
    db.plan_cache.reset_stats()

    def worker() -> None:
        try:
            for round_ in range(rounds):
                if round_ == rounds // 2:
                    written.wait(timeout=30)
                for cutoff, bound in zip(cutoffs, bounds):
                    rows = generic.execute((cutoff,)).result.rows
                    seen.append((cutoff, normalize_rows(rows)))
                    rows = custom.execute((bound,)).result.rows
                    seen.append((bound, normalize_rows(rows)))
        except BaseException as error:  # surfaced in the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        db.insert("SUPPLY", [(8, 9, "1980-03-01"), (10, 4, "1980-01-10")])
        db.create_index("SUPPLY", "PNUM")
        written.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    if failures:
        raise failures[0]

    after = sqlite_answers()
    assert before != after
    assert len(seen) == 2 * rounds * 2 * len(cutoffs)
    for key, rows in seen:
        assert rows in (before[key], after[key]), key
    # The second half of every thread ran after the write.
    for key in (*cutoffs, *bounds):
        statement = generic if key in cutoffs else custom
        assert normalize_rows(statement.execute((key,)).result.rows) == after[key]
    stats = db.cache_stats()
    assert stats.hits + stats.misses >= len(seen)
    generic.close()
    custom.close()
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0
