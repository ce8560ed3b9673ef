"""The ``parallelism`` knob through the serving layer.

The knob must reach every executor the serving layer constructs
(cached plans, prepared statements, the fallback session engine), be
part of the plan-cache key (two engines with different degrees must
never share a plan), and leave results and page I/O exactly where the
serial engine puts them.
"""

from collections import Counter
from dataclasses import replace

from repro.api import Database


def seed_db(**kwargs):
    db = Database(buffer_pages=128, join_method="hash", **kwargs)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
    db.insert("PARTS", [(i, i % 4) for i in range(1, 120)])
    db.insert(
        "SUPPLY",
        [(i % 50, i % 6, "1979-06-0%d" % (1 + i % 9)) for i in range(400)],
    )
    return db


JA_SQL = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
    "AND QUAN > 2)"
)


class TestPlanCacheKey:
    def test_engine_config_includes_parallelism(self):
        serial = seed_db(parallelism=1)
        parallel = seed_db(parallelism=4, parallel_threshold=0)
        assert serial.engine.config != parallel.engine.config

    def test_degree_change_is_a_cache_miss(self):
        db = seed_db(parallelism=1)
        db.execute_cached(JA_SQL)
        assert len(db.plan_cache) == 1
        # Reconfigure the live engine: the next lookup must not reuse
        # the serial plan.
        serial = db.engine.config
        db.engine.config = replace(serial, parallelism=4, parallel_threshold=0)
        db.execute_cached(JA_SQL)
        assert len(db.plan_cache) == 2
        assert db.plan_cache.stats().hits == 0
        # ...and the old configuration still hits the plan built under it.
        db.engine.config = serial
        db.execute_cached(JA_SQL)
        assert len(db.plan_cache) == 2
        assert db.plan_cache.stats().hits == 1

    def test_same_degree_hits(self):
        db = seed_db(parallelism=4, parallel_threshold=0)
        db.execute_cached(JA_SQL)
        db.execute_cached(JA_SQL)
        assert len(db.plan_cache) == 1
        assert db.plan_cache.stats().hits >= 1


class TestReplayEquivalence:
    def test_cached_parallel_replay_matches_serial(self):
        serial = seed_db(parallelism=1)
        parallel = seed_db(parallelism=4, parallel_threshold=0)
        want = serial.execute_cached(JA_SQL).result.rows
        got = parallel.execute_cached(JA_SQL).result.rows
        assert Counter(got) == Counter(want)
        # Replays (memoized temps aside) stay equivalent too.
        again = parallel.execute_cached(JA_SQL).result.rows
        assert Counter(again) == Counter(want)

    def test_prepared_statement_parallel(self):
        serial = seed_db(parallelism=1)
        parallel = seed_db(parallelism=4, parallel_threshold=0)
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(QUAN) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > ?)"
        )
        want = serial.prepare(sql).execute((2,)).result.rows
        got = parallel.prepare(sql).execute((2,)).result.rows
        assert Counter(got) == Counter(want)

    def test_nested_iteration_plan_kind(self):
        serial = seed_db(parallelism=1)
        parallel = seed_db(parallelism=4, parallel_threshold=0)
        want = serial.execute_cached(
            JA_SQL, method="nested_iteration"
        ).result.rows
        got = parallel.execute_cached(
            JA_SQL, method="nested_iteration"
        ).result.rows
        assert Counter(got) == Counter(want)


class TestAnalyzeEquivalence:
    def test_parallel_analyze_identical_stats_and_io(self):
        from repro.catalog.statistics import analyze_table

        serial_db = seed_db()
        parallel_db = seed_db()

        serial_db.catalog.buffer.evict_all()
        serial_db.catalog.buffer.reset_stats()
        serial_stats = analyze_table(serial_db.catalog, "SUPPLY")
        serial_io = serial_db.catalog.buffer.stats()

        parallel_db.catalog.buffer.evict_all()
        parallel_db.catalog.buffer.reset_stats()
        parallel_stats = analyze_table(
            parallel_db.catalog, "SUPPLY", parallelism=4
        )
        parallel_io = parallel_db.catalog.buffer.stats()

        assert parallel_stats == serial_stats
        assert parallel_io.page_ios == serial_io.page_ios

    def test_cost_formulas_see_identical_totals(self):
        """The section-7 formulas are pure functions of the gathered
        statistics, so per-partition ANALYZE must leave every cost the
        planner computes unchanged."""
        from repro.catalog.statistics import analyze_table
        from repro.optimizer.cost import (
            CostParameters,
            hash_join_cost,
            ja2_hash_cost,
        )

        def costs(parallelism):
            db = seed_db()
            stats = analyze_table(
                db.catalog, "SUPPLY", parallelism=parallelism
            )
            parts = analyze_table(db.catalog, "PARTS", parallelism=parallelism)
            pnum = stats.columns["PNUM"]
            params = CostParameters(
                pi=parts.num_pages,
                pj=stats.num_pages,
                pt2=max(1.0, pnum.distinct / 64),
                pt3=stats.num_pages * pnum.equality_selectivity() * 10,
                pt4=max(1.0, pnum.distinct / 64),
                pt=max(1.0, pnum.distinct / 64),
                buffer_pages=128,
                fi_ni=parts.num_rows,
                nt2=pnum.distinct,
            )
            return (
                hash_join_cost(params.pt, params.pi),
                ja2_hash_cost(params),
            )

        assert costs(1) == costs(4)

    def test_database_analyze_uses_engine_degree(self):
        db = seed_db(parallelism=4, parallel_threshold=0)
        db.analyze()
        assert "SUPPLY" in db.catalog.statistics
        reference = seed_db()
        reference.analyze()
        assert (
            db.catalog.statistics["SUPPLY"]
            == reference.catalog.statistics["SUPPLY"]
        )
