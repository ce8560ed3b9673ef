"""Plan cache: keying, normalization, LRU bounds, and invalidation."""

from collections import Counter

import pytest

from repro.api import Database
from repro.serve.cache import PlanCache
from repro.serve.normalize import parameterize, fingerprint, user_param_count
from repro.sql.parser import parse

JA_QUERY = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-06-01')"
)


def make_db() -> Database:
    db = Database(buffer_pages=16)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")]
    )
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
    db.insert(
        "SUPPLY",
        [
            (3, 4, "1980-01-01"),
            (3, 2, "1980-08-01"),
            (10, 1, "1980-02-01"),
            (8, 5, "1981-01-01"),
        ],
    )
    return db


class TestNormalization:
    def test_literal_variants_share_a_fingerprint(self):
        a, values_a = parameterize(
            parse("SELECT PNUM FROM PARTS WHERE QOH = 100")
        )
        b, values_b = parameterize(
            parse("select pnum from parts where qoh = 200")
        )
        assert fingerprint(a) == fingerprint(b)
        assert values_a == (100,)
        assert values_b == (200,)

    def test_null_literals_are_not_parameterized(self):
        tree, values = parameterize(
            parse("SELECT PNUM FROM PARTS WHERE QOH = NULL")
        )
        assert values == ()
        assert "NULL" in fingerprint(tree)

    def test_select_list_literals_are_not_parameterized(self):
        tree, values = parameterize(
            parse("SELECT 7 FROM PARTS WHERE QOH = 1")
        )
        assert values == (1,)
        assert "SELECT 7" in fingerprint(tree)

    def test_extracted_slots_follow_user_slots(self):
        tree, values = parameterize(
            parse("SELECT PNUM FROM PARTS WHERE PNUM = ? AND QOH = 5")
        )
        assert user_param_count(tree) == 2
        assert values == (5,)


class TestCacheBehaviour:
    def test_hit_after_miss(self):
        db = make_db()
        first = db.execute_cached(JA_QUERY)
        second = db.execute_cached(JA_QUERY)
        assert first.result.rows == second.result.rows
        stats = db.cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_literal_variants_hit_the_same_entry(self):
        db = make_db()
        db.execute_cached("SELECT PNUM FROM PARTS WHERE QOH > 0")
        report = db.execute_cached("select pnum from parts where qoh > 5")
        assert Counter(report.result.rows) == Counter([(3,)])
        stats = db.cache_stats()
        assert stats.hits == 1
        assert len(db.plan_cache) == 1

    def test_cached_rows_match_uncached(self):
        db = make_db()
        plain = db.run(JA_QUERY, method="transform")
        cached = db.execute_cached(JA_QUERY)
        again = db.execute_cached(JA_QUERY)
        assert cached.result.rows == plain.result.rows
        assert again.result.rows == plain.result.rows

    def test_lru_eviction_is_bounded(self):
        db = make_db()
        db.plan_cache = PlanCache(capacity=2)
        db.plan_cache.attach(db.catalog)
        db.engine.plan_cache = db.plan_cache
        queries = [
            "SELECT PNUM FROM PARTS WHERE QOH > 0",
            "SELECT QOH FROM PARTS WHERE PNUM > 0",
            "SELECT PNUM, QOH FROM PARTS WHERE QOH >= 0",
        ]
        for sql in queries:
            db.execute_cached(sql)
        assert len(db.plan_cache) == 2
        assert db.cache_stats().evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestInvalidation:
    """Schema changes purge; data changes are survived via snapshots."""

    def test_plan_survives_insert_and_sees_fresh_rows(self):
        db = make_db()
        before = db.execute_cached(JA_QUERY)
        assert Counter(before.result.rows) == Counter([(10,), (8,)])
        # A new SUPPLY row changes the COUNT for PNUM 8.  The cached
        # plan stays valid — replays pin the *current* snapshot — so
        # this is a hit, not an invalidation, yet the result is fresh.
        db.insert("SUPPLY", [(8, 1, "1979-01-01")])
        assert len(db.plan_cache) == 1
        after = db.execute_cached(JA_QUERY)
        assert Counter(after.result.rows) == Counter([(10,)])
        stats = db.cache_stats()
        assert stats.invalidations == 0
        assert stats.hits == 1
        assert stats.snapshot_pin_hits == 1
        # The shared temp materializations described the pre-insert
        # data: the COUNT temp absorbed the new row instead of being
        # flushed by the data event.
        assert stats.memo_flushes == 0
        assert stats.shared_maintenances == 1

    def test_create_index_invalidates(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.create_index("SUPPLY", "PNUM")
        assert len(db.plan_cache) == 0
        report = db.execute_cached(JA_QUERY)
        assert Counter(report.result.rows) == Counter([(10,), (8,)])
        stats = db.cache_stats()
        assert stats.misses == 2

    def test_drop_and_recreate_replans_and_reverifies(self):
        db = make_db()
        sql = "SELECT PNUM FROM PARTS WHERE QOH > 0"
        db.execute_cached(sql)
        db.drop_table("PARTS")
        assert len(db.plan_cache) == 0
        # Recreate with a different shape: the new plan must be built
        # and verified against the *new* schema, not replayed.
        db.create_table("PARTS", ["PNUM", "QOH", "EXTRA"])
        db.insert("PARTS", [(1, 2, 3)])
        report = db.execute_cached(sql)
        assert report.result.rows == [(1,)]

    def test_analyze_bumps_version(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        version = db.catalog.version
        db.analyze("SUPPLY")
        assert db.catalog.version > version
        assert len(db.plan_cache) == 0

    def test_temp_tables_do_not_invalidate(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        size = len(db.plan_cache)
        # A transformed run builds and drops temp tables; those must
        # not purge the cache (they are session-local churn).
        db.run(JA_QUERY, method="transform")
        assert len(db.plan_cache) == size


class TestReplayIsolation:
    def test_replay_leaves_no_temps_behind(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.execute_cached(JA_QUERY)
        assert all(
            not db.catalog.get(name).is_temp for name in db.tables()
        )

    def test_shared_temps_are_freed_on_invalidation(self):
        """With sharing on, materializations live in the registry.  An
        insert into PARTS frees the one that cannot absorb it — the
        COUNT over the outer join that preserves PARTS — and leaves the
        DISTINCT keys and the sorted run to be brought forward."""
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.execute_cached(JA_QUERY)  # replay leases the shared temps
        registry = db.plan_cache.sharing
        assert len(registry) == 3
        doomed = [
            entry.heap
            for entry in registry._entries.values()
            if "PARTS" not in entry.maintainable_on
        ]
        assert len(doomed) == 1
        db.insert("PARTS", [(99, 5)])
        assert len(registry) == 2
        assert doomed[0].num_rows == 0
        db.create_index("SUPPLY", "PNUM")
        assert len(registry) == 0

    def test_memoized_temps_are_freed_on_invalidation(self):
        """An engine with no plan cache keeps nothing between calls:
        every replay rebuilds its temps and frees them all at the end,
        so there is nothing for an insert to invalidate."""
        from repro.core.pipeline import Engine
        from repro.difftest.leaks import leaked_pages

        db = make_db()
        statement = Engine(db.catalog).prepare(
            JA_QUERY.replace("'1980-06-01'", "?")
        )
        for _ in range(2):
            report = statement.execute(("1980-06-01",))
            setup_steps = report.steps[:-1]
            assert len(setup_steps) == 3
            assert all(s.startswith("built") for s in setup_steps)
            assert Counter(report.result.rows) == Counter([(10,), (8,)])
            assert leaked_pages(db.catalog) == 0
            assert db.tables() == ["PARTS", "SUPPLY"]
        db.insert("PARTS", [(99, 5)])
        assert leaked_pages(db.catalog) == 0
