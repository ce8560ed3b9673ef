"""Tests for the Engine pipeline and the public Database API."""

import dataclasses
from collections import Counter
from dataclasses import replace

import pytest

from repro import Database
from repro.config import ExecConfig
from repro.core.nest_ja import kim_nest_g
from repro.core.pipeline import Engine
from repro.errors import CatalogError, ReproError, TransformError
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    load_kiessling_instance,
)

from tests.core.helpers import run_with

#: Keywords Engine no longer takes: the paper's wrong answers are
#: functions (kim_nest_g, paper_section8), every plan is verified, and
#: a query runs on the thread that issued it.
REMOVED = (
    "ja_algorithm",
    "exists_count_mode",
    "quantifier_mode",
    "verify",
    "parallelism",
    "parallel_threshold",
)


class TestEngineMethods:
    def test_unknown_method_raises(self):
        engine = Engine(load_kiessling_instance())
        with pytest.raises(ReproError):
            engine.run(KIESSLING_Q2, method="teleport")

    def test_auto_uses_transformation_when_possible(self):
        engine = Engine(load_kiessling_instance())
        report = engine.run(KIESSLING_Q2, method="auto")
        assert report.method == "transform"

    def test_auto_falls_back_to_nested_iteration(self):
        engine = Engine(load_kiessling_instance())
        # Correlated NOT IN is outside the algorithms' reach.
        report = engine.run(
            "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
            "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.QUAN = PARTS.QOH)",
            method="auto",
        )
        assert report.method == "nested_iteration"

    def test_temp_tables_are_dropped_after_run(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        engine.run(KIESSLING_Q2, method="transform")
        assert catalog.table_names() == ["PARTS", "SUPPLY"]

    def test_temp_tables_dropped_even_on_failure(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        with pytest.raises(ReproError):
            engine.run(
                "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
                "(SELECT PNUM FROM SUPPLY WHERE SUPPLY.QUAN = PARTS.QOH)",
                method="transform",
            )
        assert catalog.table_names() == ["PARTS", "SUPPLY"]

    def test_report_contents(self):
        engine = Engine(load_kiessling_instance())
        report = engine.run(KIESSLING_Q2, method="transform")
        assert report.method == "transform"
        assert report.join_method == "merge"
        assert report.canonical_sql is not None
        assert len(report.setup_sql) == 3
        assert report.io.page_ios > 0
        text = report.describe()
        assert "canonical" in text
        assert "page I/Os" in text

    def test_explain(self):
        engine = Engine(load_kiessling_instance())
        text = engine.explain(KIESSLING_Q2)
        assert "NEST-JA2" in text
        assert "canonical query" in text
        assert engine.catalog.table_names() == ["PARTS", "SUPPLY"]

    def test_run_accepts_parsed_ast(self):
        from repro.sql.parser import parse

        engine = Engine(load_kiessling_instance())
        report = engine.run(parse(KIESSLING_Q2), method="transform")
        assert Counter(report.result.rows) == Counter([(10,), (8,)])

    def test_alias_conflict_across_blocks_rejected(self):
        engine = Engine(load_kiessling_instance())
        with pytest.raises(TransformError):
            engine.transform(
                "SELECT PNUM FROM PARTS X WHERE QOH IN "
                "(SELECT QUAN FROM SUPPLY X)"
            )


class TestSemiIsPlanSyntax:
    """``SEMI <table>`` is how a plan prints a semi-joined inner temp
    (``parse(to_sql(q))`` round-trips); a statement may not carry it —
    nested iteration gives it no meaning."""

    @pytest.mark.parametrize(
        "method", ["transform", "auto", "nested_iteration", "cost"]
    )
    def test_user_statement_with_semi_is_rejected(self, method):
        db = Database()
        db.create_table("T", ["A"])
        db.create_table("U", ["A"])
        for sql in (
            "SELECT T.A FROM T, SEMI U WHERE T.A = U.A",
            "SELECT T.A FROM T WHERE T.A IN (SELECT X.A FROM T X, SEMI U)",
        ):
            with pytest.raises(ReproError, match="SEMI U"):
                db.run(sql, method=method)
            with pytest.raises(ReproError, match="SEMI U"):
                db.execute_cached(sql, method=method)
            with pytest.raises(ReproError, match="SEMI U"):
                db.explain(sql)

    def test_plans_print_it_and_parse_it_back(self):
        db = Database()
        db.create_table("T", ["A", "B"])
        db.create_table("U", ["A", "C"])
        sql = "SELECT T.A FROM T WHERE T.B IN (SELECT U.C FROM U WHERE U.A < T.A)"
        report = db.run(sql, method="transform")
        plan = db.engine.plan(parse(sql), "transform")
        assert "SEMI JTEMP" in report.canonical_sql
        assert "SEMI JTEMP" in db.explain(sql) and "SEMI JTEMP" in plan.describe()
        assert parse(plan.canonical_sql) == plan.final_query
        assert any(
            line.startswith("NEST-N-J (type-J): merged JTEMP")
            and line.endswith("as a semi-join")
            for line in report.trace
        )


class TestSettingsValidation:
    """A mistyped setting fails at construction, not at the first query
    — and never by silently falling back to nested iteration."""

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("join_method", "bogus"),
            ("ja_algorithm", "nope"),
            ("exists_count_mode", "count"),
            ("quantifier_mode", "fuzzy"),
            ("verify", False),
            ("parallelism", 0),
            ("parallelism", 2.5),
            ("parallelism", 4),
            ("parallel_threshold", 0),
        ],
    )
    def test_engine_rejects_unknown_value(self, setting, value):
        # A removed setting is an unknown keyword.
        error = TypeError if setting in REMOVED else ReproError
        with pytest.raises(error, match=setting):
            Engine(load_kiessling_instance(), **{setting: value})

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("join_method", "bogus"),
            ("ja_algorithm", "nope"),
            ("parallelism", 0),
            ("parallelism", 2),
            ("parallel_threshold", 0),
        ],
    )
    def test_database_rejects_unknown_value(self, setting, value):
        error = TypeError if setting in REMOVED else ReproError
        with pytest.raises(error, match=setting):
            Database(**{setting: value})

    def test_every_documented_value_is_accepted(self):
        catalog = load_kiessling_instance()
        for join_method in ("merge", "nested", "hash"):
            Engine(catalog, join_method=join_method)

    def test_typo_cannot_turn_auto_into_nested_iteration(self):
        # The bug: ja_algorithm="nope" constructed fine, NEST-G raised
        # TransformError, and method="auto" read that as "outside the
        # algorithms' reach" — every query quietly ran nested iteration.
        # NEST-G reads no setting now; a misspelt one still fails here.
        with pytest.raises(ReproError):
            Database(join_method="nope").query(KIESSLING_Q2, method="auto")


#: A second legal value for every ExecConfig field.
OTHER_VALUE = {"join_method": "hash"}


def kiessling_db(**settings) -> Database:
    db = Database(**settings)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
    db.insert("SUPPLY", [(3, 4, "1979-07-03"), (10, 1, "1978-06-08")])
    return db


class TestExecConfig:
    def test_frozen_hashable_and_resolved_once(self):
        config = ExecConfig(join_method="hash")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.join_method = "merge"
        assert config == ExecConfig(join_method="hash")
        assert len({config, ExecConfig(join_method="hash"), ExecConfig()}) == 2
        assert set(OTHER_VALUE) == {f.name for f in dataclasses.fields(ExecConfig)}
        # dedupe_inner / dedupe_outer are derived; the paper modes are
        # functions; a query runs on the thread that issued it.
        assert len(OTHER_VALUE) == 1
        assert [f.name for f in dataclasses.fields(ExecConfig)] == ["join_method"]

    @pytest.mark.parametrize(
        "setting,value",
        [("join_method", "nope")],
    )
    def test_bad_value_rejected_at_construction_and_through_replace(
        self, setting, value
    ):
        with pytest.raises(ReproError, match=setting):
            ExecConfig(**{setting: value})
        with pytest.raises(ReproError, match=setting):
            replace(ExecConfig(), **{setting: value})

    def test_engine_forwards_settings_and_rejects_unknown_keyword(self):
        engine = Engine(load_kiessling_instance(), join_method="hash")
        assert engine.config == ExecConfig(join_method="hash")
        with pytest.raises(TypeError):
            Engine(load_kiessling_instance(), join_methd="hash")

    @pytest.mark.parametrize("field", sorted(OTHER_VALUE))
    def test_any_field_changes_plan_cache_key_and_share_key(self, field):
        db = kiessling_db()
        db.execute_cached(KIESSLING_Q2, method="transform")
        published = len(db.plan_cache.sharing)
        assert published > 0
        db.engine.config = replace(db.engine.config, **{field: OTHER_VALUE[field]})
        db.execute_cached(KIESSLING_Q2, method="transform")
        # A second plan, which leased none of the first one's temps.
        stats = db.cache_stats()
        assert (stats.size, stats.hits, stats.shared_hits) == (2, 0, 0)
        assert len(db.plan_cache.sharing) > published

    def test_cost_plan_shares_under_the_join_method_it_runs(self, monkeypatch):
        from repro.optimizer.planner import PlanChoice, Planner
        from repro.sql.parser import parse

        monkeypatch.setattr(
            Planner,
            "choose",
            lambda self, select: PlanChoice(
                method="transform", join_method="nested", estimated_cost=0.0
            ),
        )
        db = kiessling_db(join_method="merge")
        plan = db.engine.plan(parse(KIESSLING_Q2), "cost")
        assert plan.registry is db.plan_cache.sharing
        assert plan.config == replace(db.engine.config, join_method="nested")
        assert db.engine.config.join_method == "merge"
        assert plan.replay(db.catalog).join_method == "nested"


class TestCostBasedRunLeavesEngineAlone:
    def test_join_method_and_cache_key_stable_while_cost_run_in_flight(
        self, monkeypatch
    ):
        """method="cost" used to assign the planner's join method to the
        shared Engine for the duration of the run; a concurrent
        run_cached read the swapped value into its cache key."""
        import threading

        from repro.optimizer.executor import SingleLevelExecutor
        from repro.optimizer.planner import PlanChoice, Planner

        db = kiessling_db(join_method="merge")
        before = db.engine.config
        monkeypatch.setattr(
            Planner,
            "choose",
            lambda self, select: PlanChoice(
                method="transform", join_method="nested", estimated_cost=0.0
            ),
        )

        entered, release = threading.Event(), threading.Event()
        used: list[str] = []
        real_execute = SingleLevelExecutor.execute

        def gated(self, select, consume):
            used.append(self.config.join_method)
            entered.set()
            assert release.wait(timeout=30)
            return real_execute(self, select, consume)

        monkeypatch.setattr(SingleLevelExecutor, "execute", gated)
        reports = []
        runner = threading.Thread(
            target=lambda: reports.append(db.run(KIESSLING_Q2, method="cost"))
        )
        runner.start()
        try:
            assert entered.wait(timeout=30)
            # Mid-run, from another thread: nothing was swapped.
            observed = db.engine.config
        finally:
            release.set()
            runner.join(timeout=30)
        assert observed is before and observed.join_method == "merge"
        assert db.engine.config is before
        # ...and the run itself did use the planner's choice.
        assert set(used) == {"nested"}
        assert reports[0].join_method == "nested"


class TestDatabaseFacade:
    def make_db(self):
        db = Database(buffer_pages=8)
        db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
        db.create_table(
            "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")]
        )
        db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
        db.insert(
            "SUPPLY",
            [
                (3, 4, "1979-07-03"),
                (3, 2, "1978-10-01"),
                (10, 1, "1978-06-08"),
                (10, 2, "1981-08-10"),
                (8, 5, "1983-05-07"),
            ],
        )
        return db

    def test_quickstart_flow(self):
        db = self.make_db()
        result = db.query("SELECT PNUM FROM PARTS WHERE QOH > 0")
        assert result.rows == [(3,), (10,)]

    def test_names_fold_to_upper(self):
        db = Database()
        db.create_table("parts", ["pnum"])
        db.insert("parts", [(1,)])
        assert db.tables() == ["PARTS"]
        assert db.query("select pnum from parts").rows == [(1,)]

    def test_unknown_column_type_raises(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_table("T", [("A", "varchar2")])

    def test_kiessling_q2_through_facade(self):
        db = self.make_db()
        assert Counter(db.query(KIESSLING_Q2).rows) == Counter([(10,), (8,)])

    def test_run_reports_io(self):
        db = self.make_db()
        db.cold_cache()
        db.reset_io_stats()
        report = db.run(KIESSLING_Q2, method="nested_iteration")
        assert report.io.page_reads > 0
        assert db.io_stats().page_reads >= report.io.page_reads

    def test_explain_via_facade(self):
        db = self.make_db()
        assert "NEST-JA2" in db.explain(KIESSLING_Q2)

    def test_buggy_algorithm_selectable(self):
        """Kim's NEST-JA is a function over the catalog, not a setting:
        the database itself answers correctly."""
        db = Database()
        db.create_table("PARTS", ["PNUM", "QOH"])
        db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
        db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
        db.insert(
            "SUPPLY",
            [
                (3, 4, "1979-07-03"),
                (3, 2, "1978-10-01"),
                (10, 1, "1978-06-08"),
                (10, 2, "1981-08-10"),
                (8, 5, "1983-05-07"),
            ],
        )
        assert Counter(
            run_with(db.catalog, KIESSLING_Q2, kim_nest_g).result.rows
        ) == Counter([(10,)])
        assert Counter(db.query(KIESSLING_Q2, method="transform").rows) == Counter(
            [(10,), (8,)]
        )

    def test_drop_table(self):
        db = Database()
        db.create_table("T", ["A"])
        db.drop_table("T")
        assert db.tables() == []

    def test_package_exports(self):
        import repro

        assert repro.__version__
        assert repro.Database is Database
