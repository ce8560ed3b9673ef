"""One statement path: ``Engine.run`` is plan-then-replay with no cache,
and no statement is second-class on the kept-plan routes."""

from collections import Counter

from repro.api import Database
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.parser import parse

JA_THEN_A = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1980-06-01') "
    "AND QOH < (SELECT MAX(QUAN) FROM SUPPLY)"
)
AGGREGATED_ROOT = (
    "SELECT COUNT(PNUM), QOH FROM PARTS WHERE QOH IN "
    "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM) GROUP BY QOH"
)


def make_db(**kwargs) -> Database:
    db = Database(buffer_pages=16, **kwargs)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0), (8, 0)])
    db.insert(
        "SUPPLY",
        [
            (3, 6, "1980-01-01"),
            (3, 6, "1980-08-01"),
            (10, 1, "1980-02-01"),
            (8, 0, "1981-01-01"),
        ],
    )
    return db


def bag(db: Database, sql: str) -> Counter:
    return Counter(db.query(sql, method="nested_iteration").rows)


class TestSingleShot:
    def test_plan_time_temps_are_read_not_rebuilt(self, monkeypatch):
        """Planning builds nothing: the replay builds each temp of the
        chain once and evaluates the type-A block's value link after
        them."""
        db = make_db()
        blocks: list[str] = []
        real = SingleLevelExecutor.execute

        def counting(self, select):
            blocks.append(select.from_tables[0].name)
            return real(self, select)

        monkeypatch.setattr(SingleLevelExecutor, "execute", counting)
        report = db.run(JA_THEN_A, method="transform")
        assert len(blocks) == 4  # TEMP1..3 once each, and the final block
        assert len(report.setup_sql) == 4 and len(report.temp_pages) == 3
        assert [s.split()[0] for s in report.steps] == [
            "built", "built", "built", "evaluated", "final:"
        ]
        assert not [t for t in report.trace if "needed for NEST-A" in t]
        assert Counter(report.result.rows) == bag(db, JA_THEN_A)
        assert db.tables() == ["PARTS", "SUPPLY"]

    def test_uncached_run_leaves_the_plan_cache_and_registry_alone(self):
        db = make_db()
        report = db.run(JA_THEN_A.split(" AND QOH <")[0])
        assert all(s.startswith(("built", "final")) for s in report.steps)
        stats = db.cache_stats()
        assert (stats.size, stats.misses, stats.shared_materializations) == (0, 0, 0)

    def test_unknown_method_is_rejected_on_every_route(self):
        import pytest

        from repro.errors import ReproError

        db = make_db()
        for call in (db.run, db.execute_cached, db.prepare):
            with pytest.raises(ReproError, match="unknown method"):
                call("SELECT PNUM FROM PARTS", method="bogus")


class TestNoSecondClassStatements:
    def test_aggregated_dedupe_outer_staging_temp_is_an_ordinary_temp(self):
        """An aggregated root over an ``IN`` used to stage its outer
        rows, rowid first, in one more temp and strip the rowid off
        again; the semi-join needs neither — the inner temp is the only
        definition and the plan has no column to strip."""
        db = make_db()
        expected = bag(db, AGGREGATED_ROOT)
        single = db.run(AGGREGATED_ROOT)
        assert Counter(single.result.rows) == expected
        assert [s.split()[0] for s in single.steps] == ["built", "final:"]
        (name,) = single.temp_pages
        assert name.startswith("JTEMP") and f"SEMI {name}" in single.canonical_sql
        assert "semi-join" in single.steps[-1]
        plan = db.engine.plan(parse(AGGREGATED_ROOT), "transform")
        assert not hasattr(plan, "strip")
        assert len(plan.final_query.items) == len(single.result.columns) == 2
        first = db.execute_cached(AGGREGATED_ROOT)
        second = db.execute_cached(AGGREGATED_ROOT)
        assert first.steps[0].startswith("built JTEMP")
        assert second.steps[0].startswith("shared JTEMP")
        assert Counter(second.result.rows) == expected
        assert db.cache_stats().hits == 1
        statement = db.prepare(AGGREGATED_ROOT.replace("QOH IN", "QOH >= ? AND QOH IN"))
        assert Counter(statement.execute((0,)).result.rows) == expected

    def test_cost_plan_prepares_once_and_costs_the_tree_it_runs(
        self, monkeypatch
    ):
        """The planner used to prepare its own copy under the *default*
        predicate modes: under a paper mode it costed the counting
        rewrite of > ALL while the engine ran the MAX rewrite.  There is
        one rewrite now, and still one prepare per plan."""
        import repro.optimizer.planner as planner_module
        import repro.serve.plan as plan_module
        from repro.sql.printer import to_sql

        prepared, costed = [], []
        real_prepare = plan_module.prepare_query
        real_choose = planner_module.Planner.choose

        def prepare(select, catalog):
            prepared.append(real_prepare(select, catalog))
            return prepared[-1]

        def choose(self, query):
            costed.append(query)
            return real_choose(self, query)

        monkeypatch.setattr(plan_module, "prepare_query", prepare)
        monkeypatch.setattr(planner_module, "prepare_query", prepare)
        monkeypatch.setattr(planner_module.Planner, "choose", choose)
        db = make_db()
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH > ALL "
            "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
        )
        plan = db.engine.plan(parse(sql), "cost")
        # One qualify + rewrite per plan, and its result is what is costed.
        assert len(prepared) == 1 and costed[0] is prepared[0]
        assert "COUNT(*)" in to_sql(costed[0]) and "MAX(" not in to_sql(costed[0])
        if plan.kind == "transform":
            assert any("COUNT(*)" in definition for definition in plan.setup_sql)

    def test_cost_based_choice_is_stored_with_the_plan(self, monkeypatch):
        from repro.optimizer.planner import PlanChoice, Planner

        asked: list[int] = []

        def choose(self, select):
            asked.append(1)
            return PlanChoice(
                method="transform", join_method="hash", estimated_cost=1.0
            )

        monkeypatch.setattr(Planner, "choose", choose)
        db = make_db()
        sql = JA_THEN_A.split(" AND QOH <")[0]
        first = db.execute_cached(sql, method="cost")
        second = db.execute_cached(sql, method="cost")
        assert len(asked) == 1 and db.cache_stats().hits == 1
        assert first.join_method == second.join_method == "hash"
        assert any("chosen:" in line for line in second.trace)
        assert Counter(second.result.rows) == bag(db, sql)
        # ANALYZE moves the stats version: the choice is made again.
        db.analyze("SUPPLY")
        db.execute_cached(sql, method="cost")
        assert len(asked) == 2
        statement = db.prepare(sql.replace("'1980-06-01'", "?"), method="cost")
        assert Counter(statement.execute(("1980-06-01",)).result.rows) == bag(db, sql)
