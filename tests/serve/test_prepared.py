"""Prepared statements: binding, modes, and result fidelity."""

from collections import Counter

import pytest

from repro.api import Database
from repro.difftest.normalize import normalize_rows
from repro.difftest.oracle import SQLiteOracle
from repro.errors import BindError
from repro.sql.lexer import LexError
from repro.sql.parser import parse
from repro.sql.printer import to_sql


def make_db(**kwargs) -> Database:
    db = Database(buffer_pages=16, **kwargs)
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


class TestParameterSyntax:
    def test_positional_markers_take_successive_slots(self):
        select = parse("SELECT PNUM FROM PARTS WHERE PNUM = ? AND QOH = ?")
        assert to_sql(select).count("?") == 2

    def test_named_parameters_share_slots(self):
        stmt = make_db().prepare(
            "SELECT PNUM FROM PARTS WHERE QOH >= :lo AND QOH >= :lo"
        )
        assert stmt.param_count == 1
        assert stmt.named_params == {"LO": 0}

    def test_printer_round_trips_markers(self):
        sql = "SELECT PNUM FROM PARTS WHERE QOH BETWEEN :LO AND :HI"
        assert to_sql(parse(sql)).count(":LO") == 1
        assert to_sql(parse(sql)).count(":HI") == 1

    def test_bare_colon_is_a_lex_error(self):
        with pytest.raises(LexError):
            parse("SELECT PNUM FROM PARTS WHERE QOH = : 5")


class TestBinding:
    def test_positional_execution(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        assert Counter(stmt.execute((1,)).result.rows) == Counter(
            [(3,), (10,)]
        )
        assert Counter(stmt.execute((6,)).result.rows) == Counter([(3,)])

    def test_named_execution(self):
        stmt = make_db().prepare(
            "SELECT PNUM FROM PARTS WHERE QOH BETWEEN :lo AND :hi"
        )
        rows = stmt.execute({"lo": 0, "hi": 5}).result.rows
        assert Counter(rows) == Counter([(10,), (8,)])

    def test_missing_named_value_is_an_error(self):
        stmt = make_db().prepare(
            "SELECT PNUM FROM PARTS WHERE QOH BETWEEN :lo AND :hi"
        )
        with pytest.raises(BindError, match="missing value"):
            stmt.execute({"lo": 0})

    def test_unknown_name_is_an_error(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= :lo")
        with pytest.raises(BindError, match="no parameter"):
            stmt.execute({"hi": 1})

    def test_wrong_arity_is_an_error(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        with pytest.raises(BindError, match="takes 1 parameter"):
            stmt.execute((1, 2))

    def test_type_mismatch_is_an_error(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        with pytest.raises(BindError, match="expects int"):
            stmt.execute(("ten",))

    def test_bool_does_not_pass_as_int(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        with pytest.raises(BindError):
            stmt.execute((True,))

    def test_null_bind_is_rejected_in_plain_comparison(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH = ?")
        with pytest.raises(BindError, match="IS NULL"):
            stmt.execute((None,))

    def test_executemany(self):
        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        reports = stmt.executemany([(0,), (1,), (6,)])
        assert [len(r.result.rows) for r in reports] == [3, 2, 1]


class TestOneBindContract:
    """The plan's parameter contracts are the statement's: derived once
    when the plan is built, each vector checked once."""

    SQL = (
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < ?)"
    )

    def spy(self, monkeypatch, name: str, *modules) -> list:
        """Record every call of ``name`` through any of ``modules``."""
        calls: list = []
        for module in modules:
            real = getattr(module, name)

            def wrapper(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_prepare_rewrites_the_statement_once(self, monkeypatch):
        import repro.core.pipeline

        db = make_db()
        # prepare_query's last step, once per call wherever it is called.
        rewritten = self.spy(
            monkeypatch, "rewrite_extended_predicates", repro.core.pipeline
        )
        stmt = db.prepare(self.SQL)
        assert len(rewritten) == 1
        assert "parameter 1: str, not null" in stmt.describe()

    def test_each_vector_is_checked_once(self, monkeypatch):
        import repro.serve.binding

        stmt = make_db().prepare(self.SQL)
        checked: list = []
        real = repro.serve.binding.ParamSpec.check

        def check(spec, value):
            checked.append(value)
            return real(spec, value)

        monkeypatch.setattr(repro.serve.binding.ParamSpec, "check", check)
        stmt.execute(("1981-01-01",))
        assert checked == ["1981-01-01"]
        with pytest.raises(BindError, match="expects str"):
            stmt.execute((1980,))

    def test_a_batch_checks_every_vector_before_it_runs(self, monkeypatch):
        import repro.serve.prepared

        stmt = make_db().prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        ran = self.spy(monkeypatch, "execute_batch_plan", repro.serve.prepared)
        with pytest.raises(BindError, match="expects int"):
            stmt.executemany([(0,), ("one",)])
        assert ran == []
        assert stmt.execute_batch([(0,), (1,)]).strategy == "batched"


class TestModes:
    """One plan serves every vector: there are no modes left."""

    def test_generic_mode_for_plain_predicates(self):
        db = make_db()
        stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        for bound in (0, 1, 6):
            stmt.execute((bound,))
        assert db.cache_stats().size == 1
        assert not hasattr(stmt, "mode")

    def test_custom_mode_for_parameter_under_type_a(self):
        db = make_db()
        stmt = db.prepare(
            "SELECT PNUM FROM PARTS WHERE QOH > "
            "(SELECT AVG(QOH) FROM PARTS WHERE QOH < ?)"
        )
        assert Counter(stmt.execute((5,)).result.rows) == Counter(
            [(3,), (10,)]
        )
        assert Counter(stmt.execute((100,)).result.rows) == Counter([(3,)])
        # Same vector again: the one plan replays.
        assert Counter(stmt.execute((5,)).result.rows) == Counter(
            [(3,), (10,)]
        )
        stats = db.cache_stats()
        assert (stats.size, stats.misses) == (1, 1)

    def test_replan_after_catalog_change(self):
        db = make_db()
        stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
        first = stmt.execute((1,))
        db.insert("PARTS", [(50, 9)])
        second = stmt.execute((1,))
        assert Counter(second.result.rows) == Counter(
            [(3,), (10,), (50,)]
        )
        assert first.result.rows != second.result.rows


class TestResultFidelity:
    """Cached paths must agree with the interpreter and with SQLite."""

    #: (sql, params, Database settings).
    QUERIES = [
        ("SELECT PNUM FROM PARTS WHERE QOH >= ?", (1,), {}),
        (
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)",
            ("1980-06-01",),
            {},
        ),
        (
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY WHERE QUAN >= ?)",
            (2,),
            {},
        ),
    ]

    @pytest.mark.parametrize("sql,params,flags", QUERIES)
    def test_prepared_matches_interpreter_and_sqlite(self, sql, params, flags):
        db = make_db(**flags)
        prepared = db.prepare(sql).execute(params).result.rows

        # Interpreter baseline: bind by literal substitution.
        literal_sql = sql
        for value in params:
            literal = repr(value) if isinstance(value, str) else str(value)
            literal_sql = literal_sql.replace("?", literal, 1)
        interpreted = db.run(
            literal_sql, method="nested_iteration"
        ).result.rows
        assert Counter(prepared) == Counter(interpreted)

        with SQLiteOracle(db.catalog) as oracle:
            sqlite_rows = oracle.run(literal_sql)
        assert normalize_rows(prepared) == normalize_rows(sqlite_rows)

    @pytest.mark.parametrize("sql,params,flags", QUERIES)
    def test_cached_matches_prepared(self, sql, params, flags):
        db = make_db(**flags)
        prepared = db.prepare(sql).execute(params).result.rows
        literal_sql = sql
        for value in params:
            literal = repr(value) if isinstance(value, str) else str(value)
            literal_sql = literal_sql.replace("?", literal, 1)
        cached = db.execute_cached(literal_sql).result.rows
        replayed = db.execute_cached(literal_sql).result.rows
        assert cached == replayed
        assert Counter(cached) == Counter(prepared)
