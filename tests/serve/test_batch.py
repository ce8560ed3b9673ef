"""Batched bindings: executemany/execute_batch vs the per-vector loop."""

from collections import Counter

import pytest

from repro.api import Database
from repro.serve.batch import BatchIneligible, build_batch_plan
from tests.clients import run_clients
from tests.evaluation import MODES, evaluation

JA_PARAM = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
)


def make_db() -> Database:
    db = Database(buffer_pages=64)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
    db.insert("PARTS", [(i, i % 7) for i in range(1, 40)])
    db.insert(
        "SUPPLY",
        [
            (i % 39 + 1, i % 5, f"19{70 + i % 20}-01-01")
            for i in range(200)
        ],
    )
    return db


def vectors(n):
    return [(f"19{70 + k % 25}-06-01",) for k in range(n)]


class TestEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("clients", [1, 4])
    def test_batched_matches_looped_and_nested(self, mode, clients):
        """Each of ``clients`` clients batches the same vectors at once."""
        db = make_db()
        stmt = db.prepare(JA_PARAM)
        vecs = vectors(10)
        with evaluation(mode):
            batches = run_clients(clients, lambda: stmt.execute_batch(vecs))
            looped = [stmt.execute(vector) for vector in vecs]
        assert [batch.strategy for batch in batches] == ["batched"] * clients
        reports = [
            [Counter(report.result.rows) for report in batch.reports]
            for batch in batches
        ]
        assert reports[1:] == reports[:1] * (clients - 1)
        batch = batches[0]
        for vector, report, loop in zip(vecs, batch.reports, looped):
            nested = db.run(
                JA_PARAM.replace("?", repr(vector[0])),
                method="nested_iteration",
            )
            assert Counter(report.result.rows) == Counter(
                loop.result.rows
            ) == Counter(nested.result.rows), vector
            assert report.result.columns == loop.result.columns

    def test_flat_parameterized_statement_batches(self):
        db = make_db()
        stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH = :q")
        batch = stmt.execute_batch([{"q": k} for k in range(7)])
        assert batch.strategy == "batched"
        for k, report in enumerate(batch.reports):
            reference = db.run(
                f"SELECT PNUM FROM PARTS WHERE QOH = {k}",
                method="nested_iteration",
            )
            assert Counter(report.result.rows) == Counter(
                reference.result.rows
            )

    def test_empty_result_vectors_stay_in_position(self):
        db = make_db()
        stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH = ?")
        batch = stmt.execute_batch([(3,), (999,), (4,)])
        assert batch.reports[1].result.rows == []
        assert batch.reports[0].result.rows
        assert batch.reports[2].result.rows

    def test_executemany_returns_per_vector_reports(self):
        db = make_db()
        stmt = db.prepare(JA_PARAM)
        vecs = vectors(5)
        reports = stmt.executemany(vecs)
        assert len(reports) == 5
        assert reports[0].method == "batched-transform"


class TestSemiTables:
    """A batched ``IN``: the inner temp is a semi table, whose ``BSEQ``
    does not come out of its join — the binding relation is crossed in
    ahead of it and ``B.SEQ = temp.BSEQ`` is part of the semi condition."""

    SHAPES = {
        "n": "SELECT PNUM FROM PARTS WHERE PNUM IN "
        "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < ?)",
        "j": "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)",
        # The semi table ahead of a plain batched temp in FROM order.
        "two_preds": "SELECT PNUM FROM PARTS WHERE PNUM IN "
        "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < ?) AND QOH = "
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)",
        # A semi table inside a batched definition (NEST-JA2's TEMP2).
        "under_ja": "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
        "AND QUAN IN (SELECT S2.QUAN FROM SUPPLY S2 "
        "WHERE S2.PNUM = SUPPLY.PNUM AND S2.SHIPDATE < ?))",
        # The parameter itself inside the semi condition.
        "param_in_condition": "SELECT PNUM FROM PARTS WHERE QOH IN "
        "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM + ?)",
    }

    @staticmethod
    def vectors_for(shape, sql):
        if shape == "param_in_condition":
            return [(k,) for k in range(6)]
        return [vector * sql.count("?") for vector in vectors(6)]

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_batched_in_equals_the_loop(self, shape):
        sql = self.SHAPES[shape]
        stmt = make_db().prepare(sql)
        vecs = self.vectors_for(shape, sql)
        batch = stmt.execute_batch(vecs)
        assert batch.strategy == "batched"
        assert "semi-join" in " ".join(batch.reports[0].steps)
        for vector, report in zip(vecs, batch.reports):
            assert Counter(report.result.rows) == Counter(
                stmt.execute(vector).result.rows
            ), vector

    def test_theta_correlated_in_gives_the_loop_answer_either_way(self):
        """Whichever strategy the shape gets (the rowid fix-up it used
        to need made it loop)."""
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY "
            "WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < ?)"
        )
        db = make_db()
        stmt = db.prepare(sql)
        vecs = vectors(5)
        batch = stmt.execute_batch(vecs)
        for vector, report in zip(vecs, batch.reports):
            nested = db.run(
                sql.replace("?", repr(vector[0])), method="nested_iteration"
            )
            assert Counter(report.result.rows) == Counter(
                stmt.execute(vector).result.rows
            ) == Counter(nested.result.rows), vector


class TestValueLinks:
    """A type-A block is a value link: evaluated once per batch when it
    reads no parameter, per vector (the loop) when it reads one."""

    def test_a_link_without_parameters_is_evaluated_once_per_batch(self):
        db = make_db()
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH < ? AND QOH >= "
            "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < '1980-01-01') "
            "AND PNUM NOT IN (SELECT PNUM FROM SUPPLY WHERE QUAN = 0)"
        )
        stmt = db.prepare(sql)
        vecs = [(k,) for k in range(8)]
        batch = stmt.execute_batch(vecs)
        assert batch.strategy == "batched"
        steps = batch.reports[0].steps
        assert sum(step.startswith("evaluated ATEMP_") for step in steps) == 2
        for vector, report in zip(vecs, batch.reports):
            nested = db.run(
                sql.replace("?", str(vector[0])), method="nested_iteration"
            )
            assert Counter(report.result.rows) == Counter(
                nested.result.rows
            ), vector

    def test_a_link_reading_a_parameter_loops(self):
        db = make_db()
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH >= "
            "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < ?)"
        )
        stmt = db.prepare(sql)
        with pytest.raises(BatchIneligible, match="value link"):
            build_batch_plan(stmt._resolve(), db.catalog)
        vecs = vectors(4)
        batch = stmt.execute_batch(vecs)
        assert batch.strategy == "loop"
        for vector, report in zip(vecs, batch.reports):
            nested = db.run(
                sql.replace("?", repr(vector[0])), method="nested_iteration"
            )
            assert Counter(report.result.rows) == Counter(
                nested.result.rows
            ), vector


class TestStrategySelection:
    def test_small_batches_loop(self):
        db = make_db()
        stmt = db.prepare(JA_PARAM)
        assert stmt.execute_batch(vectors(1)).strategy == "loop"
        assert stmt.execute_batch([]).strategy == "loop"

    def test_parameterless_statement_loops(self):
        db = make_db()
        stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH = 3")
        batch = stmt.execute_batch([(), ()])
        assert batch.strategy == "loop"
        assert len(batch.reports) == 2

    def test_aggregate_final_is_ineligible_and_loops(self):
        db = make_db()
        stmt = db.prepare("SELECT COUNT(PNUM) FROM PARTS WHERE QOH > ?")
        with pytest.raises(BatchIneligible):
            build_batch_plan(stmt._resolve(), db.catalog)
        batch = stmt.execute_batch([(0,), (3,)])
        assert batch.strategy == "loop"
        for threshold, report in zip((0, 3), batch.reports):
            reference = db.run(
                f"SELECT COUNT(PNUM) FROM PARTS WHERE QOH > {threshold}",
                method="nested_iteration",
            )
            assert report.result.rows == reference.result.rows

    def test_order_by_is_ineligible(self):
        db = make_db()
        stmt = db.prepare(
            "SELECT PNUM FROM PARTS WHERE QOH = ? ORDER BY PNUM"
        )
        with pytest.raises(BatchIneligible):
            build_batch_plan(stmt._resolve(), db.catalog)

    def test_derived_batch_plan_is_cached_per_plan(self):
        db = make_db()
        stmt = db.prepare(JA_PARAM)
        stmt.execute_batch(vectors(3))
        first = stmt._resolve().batch_plan
        assert first
        stmt.execute_batch(vectors(3))
        assert stmt._resolve().batch_plan is first
        # DDL re-plans; the stale derived plan must be rebuilt too.
        db.create_index("SUPPLY", "PNUM")
        batch = stmt.execute_batch(vectors(3))
        assert batch.strategy == "batched"
        assert stmt._resolve().batch_plan is not first


class TestSnapshotPinning:
    """Satellite: ONE snapshot per batch, for both strategies."""

    def test_mid_batch_commit_does_not_split_loop_batch(self):
        db = make_db()
        # Aggregate final -> loop strategy.
        stmt = db.prepare("SELECT COUNT(PNUM) FROM PARTS WHERE QOH > ?")
        before = db.run(
            "SELECT COUNT(PNUM) FROM PARTS WHERE QOH > 0",
            method="nested_iteration",
        ).result.rows
        original = stmt.execute
        fired = []

        def hooked(vector):
            report = original(vector)
            if not fired:
                fired.append(True)
                # A concurrent commit lands mid-batch: 60 rows that all
                # satisfy QOH > 0.
                db.insert("PARTS", [(100 + i, 50) for i in range(60)])
            return report

        stmt.execute = hooked
        reports = stmt.executemany([(0,)] * 4)
        stmt.execute = original
        # Every vector saw the same committed state (the pre-insert
        # snapshot), even the ones bound after the commit landed.
        assert [r.result.rows for r in reports] == [before] * 4
        # The batch over, fresh executions see the new rows.
        after = stmt.execute((0,))
        assert after.result.rows[0][0] == before[0][0] + 60

    def test_mid_batch_commit_does_not_split_batched_batch(self):
        db = make_db()
        stmt = db.prepare(JA_PARAM)
        vecs = vectors(6)
        expected = [stmt.execute(v).result.rows for v in vecs]
        # The batched plan runs under the catalog read lock, so a
        # concurrent writer can only land before or after the batch —
        # never inside it.  Verify the whole batch agrees with the
        # pre-insert state when run first.
        batch = stmt.execute_batch(vecs)
        assert batch.strategy == "batched"
        assert [
            Counter(r.result.rows) for r in batch.reports
        ] == [Counter(rows) for rows in expected]

    @pytest.mark.parametrize("sql,vecs", [
        ("SELECT COUNT(PNUM) FROM PARTS WHERE QOH > ?", [(0,), (1,), (2,)]),
        (JA_PARAM, [(f"19{70 + k}-06-01",) for k in range(3)]),
    ])
    def test_one_snapshot_activation_per_batch(self, sql, vecs, monkeypatch):
        from repro.storage import visibility

        db = make_db()
        stmt = db.prepare(sql)
        stmt.execute(vecs[0])  # warm the plan (and temp materializations)
        activations = []
        real = visibility.activate

        def counting(snapshot):
            activations.append(snapshot)
            return real(snapshot)

        monkeypatch.setattr(visibility, "activate", counting)
        stmt.executemany(vecs)
        assert len(activations) == 1
