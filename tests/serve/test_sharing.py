"""Cross-query shared subplans: fingerprints, refcounts, invalidation."""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.api import Database
from repro.difftest.leaks import leaked_pages
from repro.serve.sharing import SharedSubplanRegistry, compute_share_specs
from repro.sql.parser import parse

JA_QUERY = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-06-01')"
)
# Structurally different outer block, identical inner chain: shares
# every temp the JA query materializes.
JA_SIBLING = (
    "SELECT PNUM, QOH FROM PARTS WHERE QOH >= "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-06-01')"
)


def make_db(**kwargs) -> Database:
    db = Database(buffer_pages=32, **kwargs)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
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


class TestShareSpecs:
    def _specs(self, db, sql):
        from repro.core.nest_g import nest_g
        from repro.core.pipeline import prepare_query
        from repro.serve.session import SessionCatalog

        session = SessionCatalog(db.catalog)
        rewritten = prepare_query(parse(sql), session)
        try:
            return compute_share_specs(nest_g(rewritten, session).setup)
        finally:
            session.drop_temp_tables()

    def test_identical_chains_share_fingerprints(self):
        db = make_db()
        first = self._specs(db, JA_QUERY)
        second = self._specs(db, JA_SIBLING)
        assert [s.fingerprint for s in first] == [
            s.fingerprint for s in second
        ]

    def test_different_restrictions_do_not_collide(self):
        db = make_db()
        first = self._specs(db, JA_QUERY)
        other = self._specs(
            db, JA_QUERY.replace("SHIPDATE < '1980-06-01'", "SHIPDATE < '1990-06-01'")
        )
        # The restricted inner projection (and everything downstream)
        # differs; the distinct-outer-keys temp is still shared.
        assert first[0].fingerprint == other[0].fingerprint
        assert first[1].fingerprint != other[1].fingerprint
        assert first[2].fingerprint != other[2].fingerprint

    def test_parameter_slots_accumulate_through_the_chain(self):
        db = make_db()
        specs = self._specs(
            db, JA_QUERY.replace("'1980-06-01'", "?")
        )
        assert specs[0].param_slots == ()
        assert specs[1].param_slots == (0,)
        assert specs[2].param_slots == (0,)


class TestCrossQuerySharing:
    def test_sibling_query_reuses_materializations(self):
        db = make_db()
        first = db.execute_cached(JA_QUERY)
        assert any(s.startswith("built") for s in first.steps)
        second = db.execute_cached(JA_SIBLING)
        # The chain resolves on demand: the sibling's final block reads
        # only the last link, which it leases; the two upstream temps
        # are not looked up at all.
        assert second.steps[:-1] == [
            f"shared {second.setup_sql[2].split()[0]}",
            ", ".join(sql.split()[0] for sql in second.setup_sql[:2])
            + " not read",
        ]
        assert Counter(first.result.rows) == Counter([(10,), (8,)])
        assert Counter(second.result.rows) == Counter(
            [(3, 6), (10, 1), (8, 0)]
        )
        stats = db.cache_stats()
        # Two temps (the interior link reads the cutoff's parameter slot
        # and is swept with the statement) and the sorted PARTS run of
        # the final merge join; the sibling leases the two it reads (the
        # last temp, the run), not all three.
        assert stats.shared_materializations == 3
        assert stats.shared_hits == 2

    def test_replay_of_same_plan_is_not_a_cross_hit(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.execute_cached(JA_QUERY)
        stats = db.cache_stats()
        assert stats.shared_materializations == 3
        assert stats.shared_hits == 0

    def test_insert_purges_and_results_stay_fresh(self):
        """An insert purges only what reads the written table and
        cannot absorb it; what can is brought forward on demand, and
        every answer is fresh either way."""
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.execute_cached(JA_SIBLING)
        registry = db.plan_cache.sharing
        db.insert("SUPPLY", [(8, 1, "1979-01-01")])
        # DISTINCT PNUM and the sorted run do not read SUPPLY; the COUNT
        # over the outer join absorbs rows on its null-supplying side.
        stats = db.cache_stats()
        assert stats.shared_purges == 0 and len(registry) == 3
        after = db.execute_cached(JA_QUERY)
        assert Counter(after.result.rows) == Counter([(10,)])
        # The delta reads the DISTINCT keys in full and the interior
        # link only as the delta of its own.
        assert [step.split()[0] for step in after.steps[:2]] == [
            "shared", "maintained"
        ]
        assert db.cache_stats().shared_maintenances == 1
        # An insert into PARTS reaches that COUNT on its preserved side:
        # it is purged, and rebuilt by the next replay.
        db.insert("PARTS", [(4, 0)])
        assert db.cache_stats().shared_purges == 1 and len(registry) == 2
        after = db.execute_cached(JA_SIBLING)
        assert Counter(after.result.rows) == Counter([(3, 6), (10, 1), (4, 0)])
        assert [step.split()[0] for step in after.steps[:-1]] == [
            "maintained", "built", "built"
        ]

    def test_sharing_disabled_keeps_registry_off(self):
        """An engine with no registry (no plan cache) shares nothing:
        every replay builds its own temps, the database's registry
        never hears of them."""
        from repro.core.pipeline import Engine

        db = make_db()
        engine = Engine(db.catalog)
        first = engine.prepare(JA_QUERY).execute()
        report = engine.prepare(JA_SIBLING).execute()
        assert any(s.startswith("built") for s in first.steps)
        assert not any(s.startswith("shared") for s in report.steps)
        assert Counter(report.result.rows) == Counter(
            [(3, 6), (10, 1), (8, 0)]
        )
        stats = db.cache_stats()
        assert stats.shared_materializations == 0
        assert len(db.plan_cache.sharing) == 0


class TestRefcountedLifecycle:
    def test_eviction_of_last_holder_frees_entries(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        registry = db.plan_cache.sharing
        assert len(registry) == 3  # two temps + the sorted PARTS run
        heaps = [entry.heap for entry in registry._entries.values()]
        db.plan_cache.clear()  # releases every plan -> drops holders
        assert len(registry) == 0
        assert all(heap.num_rows == 0 for heap in heaps)

    def test_surviving_holder_keeps_entries_alive(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        db.execute_cached(JA_SIBLING)  # second holder of the same temps
        registry = db.plan_cache.sharing
        plans = list(db.plan_cache._entries.values())
        plans[0].release()
        # The sibling holds what it read — the last temp and the sorted
        # run — so those survive; the two upstream temps only their
        # builder ever touched go with it.
        assert len(registry) == 2
        plans[1].release()
        assert len(registry) == 0

    def test_double_release_is_safe(self):
        db = make_db()
        db.execute_cached(JA_QUERY)
        plan = next(iter(db.plan_cache._entries.values()))
        registry = db.plan_cache.sharing
        plan.release()
        plan.release()  # idempotent: holder set popped on first call
        assert len(registry) == 0

    def test_publish_rejects_stale_data_version(self):
        """A version is published only at the committed horizons of the
        tables it read: a reader pinned before a commit into one of them
        keeps what it built, while a commit elsewhere does not matter."""
        from repro.txn.mvcc import SnapshotManager

        registry = SharedSubplanRegistry()
        registry.snapshots = SnapshotManager()
        registry.snapshots.publish({"PARTS": 3, "SUPPLY": 4})

        class _Heap:
            num_rows = 1

            def truncate(self):
                self.num_rows = 0

        class _Plan:
            fingerprint = "F"

        plan = _Plan()
        plan.registry = registry
        key = ("fp", (), 1, ())
        stale = (("SUPPLY", 3),)  # a commit landed after the snapshot pin
        assert registry.publish(key, stale, _Heap(), ["C"], plan) is None
        assert len(registry) == 0
        registry.snapshots.publish({"PARTS": 5})
        first = registry.publish(key, (("SUPPLY", 4),), _Heap(), ["C"], plan)
        assert first is not None and len(registry) == 1
        # One version per identity: the same horizons again lose.
        assert registry.publish(key, (("SUPPLY", 4),), _Heap(), ["C"], plan) is None
        registry.release_lease(first)

    def test_capacity_eviction_skips_active_leases(self):
        registry = SharedSubplanRegistry(capacity=1)

        class _Heap:
            def __init__(self):
                self.num_rows = 1

            def truncate(self):
                self.num_rows = 0

        class _Plan:
            fingerprint = "F"

        plan = _Plan()
        plan.registry = registry  # held by the cache: may publish
        keys = [("fp%d" % i, (), 1, ()) for i in range(3)]
        first = registry.publish(keys[0], (), _Heap(), ["C"], plan)
        assert first is not None  # lease held: pinned against eviction
        registry.publish(keys[1], (), _Heap(), ["C"], plan)
        registry.publish(keys[2], (), _Heap(), ["C"], plan)
        assert keys[0] in registry._entries  # active: survived the cap
        registry.release_lease(first)


@pytest.mark.stress
class TestConcurrentSharing:
    THREADS = 8
    ROUNDS = 25

    def test_concurrent_release_vs_eager_invalidation(self):
        """Replays race inserts: no reader may lose pages under it.  The
        inserts are absorbed by maintenance, so readers race each other
        (and the writer) to bring the same entries forward; every version
        that loses, or is superseded, must still be freed exactly once."""
        db = make_db()
        expected = {
            JA_QUERY: Counter(db.run(JA_QUERY, method="nested_iteration").result.rows),
            JA_SIBLING: Counter(
                db.run(JA_SIBLING, method="nested_iteration").result.rows
            ),
        }
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader(sql):
            try:
                while not stop.is_set():
                    report = db.execute_cached(sql)
                    assert Counter(report.result.rows) == expected[sql], sql
            except BaseException as error:
                failures.append(error)

        def writer():
            try:
                for _ in range(self.ROUNDS):
                    # A dangling PNUM: every shared temp must take it in
                    # (or be rebuilt), but no answer the readers check
                    # changes.  The pause lets replays publish versions
                    # between commits, and supersede each other's.
                    db.insert("SUPPLY", [(999, 1, "1980-01-01")])
                    time.sleep(0.002)
            except BaseException as error:
                failures.append(error)

        threads = [
            threading.Thread(target=reader, args=(sql,))
            for sql in (JA_QUERY, JA_SIBLING)
            for _ in range(self.THREADS // 2)
        ] + [threading.Thread(target=writer)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            threads[-1].join(timeout=120)
            stop.set()
            for thread in threads[:-1]:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if failures:
            raise failures[0]
        registry = db.plan_cache.sharing
        # Quiesced: every lease returned, nothing left active.
        assert all(
            entry.active == 0 for entry in registry._entries.values()
        )
        db.plan_cache.clear()
        assert leaked_pages(db.catalog) == 0
