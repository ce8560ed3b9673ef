"""Page-leak guard: every page a statement allocates has an owner.

The executor frees its own scratch once its consumer has read the
block's output (a final block's rows are collected, never written),
temps belong to the catalog/session that registered them, memoized and
shared temps to the plan cache.  So, whatever the API and configuration
(join method x evaluator mode), repeating a statement must not grow the
simulated disk, and emptying the plan cache must leave tables and index
leaves only — also after four clients ran every statement at once.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro import Database
from repro.analysis.check import FIGURE1_WORKLOAD, INSTANCES
from repro.config import ExecConfig
from repro.difftest.leaks import leaked_pages
from repro.engine.relation import _RUN_ROWS, Relation
from repro.errors import ExecutionError, PlanError
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.normalize import parameterize
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from tests.clients import run_clients
from tests.evaluation import MODES, evaluation

QUERY_DIR = Path(__file__).resolve().parents[2] / "examples" / "queries"

#: (label, instance, sql): figure 1 plus the example query files, which
#: are written against the Kiessling PARTS/SUPPLY instance.
SHAPES = list(FIGURE1_WORKLOAD) + [
    (path.stem, "kiessling", path.read_text())
    for path in sorted(QUERY_DIR.glob("*.sql"))
]
BY_INSTANCE = {
    instance: [sql for _label, inst, sql in SHAPES if inst == instance]
    for instance in INSTANCES
}

METHODS = ("transform", "nested_iteration", "auto", "cost")
CONFIGS = list(
    itertools.product(("merge", "nested", "hash"), MODES, (1, 4))
)


def assert_no_page_growth(db: Database, call, reps: int = 5) -> None:
    """After warm-up, repeating ``call`` allocates no page it keeps.

    Warm-up fills whatever is allowed to persist (cached plans, their
    memoized and shared temps); from then on the live page count may
    not grow, and nothing may stay pinned between calls.
    """
    call()
    call()
    live = db.disk.num_pages
    for _ in range(reps):
        call()
        assert db.disk.num_pages <= live
        assert not db.buffer._pinned


def load(instance: str, join_method: str) -> Database:
    """A Database holding one of the paper's instances, indexed."""
    db = Database(buffer_pages=16, join_method=join_method)
    source = INSTANCES[instance]()
    for name in source.table_names():
        schema = source.schema_of(name)
        with db.catalog.write_lock():
            db.catalog.create_table(schema)
        db.insert(name, list(source.heap_of(name).scan()))
    first = db.tables()[0]
    db.create_index(first, db.catalog.schema_of(first).column_names[0])
    return db


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("join_method,mode,clients", CONFIGS)
def test_no_api_leaks_pages(instance, join_method, mode, clients):
    db = load(instance, join_method)
    assert leaked_pages(db.catalog) == 0
    with evaluation(mode):
        run_clients(clients, lambda: _exercise_every_api(db, instance, clients))
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0
    assert not db.buffer._pinned


def exercise(db: Database, call, clients: int, reps: int = 5) -> None:
    """A lone client checks ``call`` for page growth; among several,
    the disk also holds the others' statements in flight, so each
    client makes the call once and the test checks what is left."""
    if clients == 1:
        assert_no_page_growth(db, call, reps)
    else:
        call()


def _exercise_every_api(db: Database, instance: str, clients: int) -> None:
    for sql, method in itertools.product(BY_INSTANCE[instance], METHODS):
        normalized, values = parameterize(parse(sql))
        statement = db.prepare(to_sql(normalized), method=method)
        calls = {
            "query": lambda: db.query(sql, method=method),
            "run": lambda: db.run(sql, method=method),
            "execute_cached": lambda: db.execute_cached(sql, method=method),
            "prepared": lambda: statement.execute(values),
            "executemany": lambda: statement.executemany([values] * 3),
            "executemany-loop": lambda: statement.executemany([values]),
        }
        for api, call in calls.items():
            try:
                exercise(db, call, clients, reps=2)
            except AssertionError as error:
                raise AssertionError(f"{api} [{method}] leaks: {sql}") from error
        statement.close()


@pytest.mark.parametrize("join_method,mode,clients", CONFIGS)
def test_query_inside_open_transaction_leaks_nothing(join_method, mode, clients):
    db = load("kiessling", join_method)

    def client():
        with db.begin() as txn:
            txn.insert("SUPPLY", [(8, 1, "1979-01-01"), (3, 9, "1975-05-05")])
            for sql, method in itertools.product(BY_INSTANCE["kiessling"], METHODS):
                exercise(db, lambda: txn.query(sql, method=method), clients)
            txn.rollback()

    with evaluation(mode):
        run_clients(clients, client)
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


class TestViewsOwnNothing:
    """Dropping a view over a catalog heap must not truncate the table."""

    def test_dropping_a_scan_keeps_the_table(self):
        from repro.engine.operators import scan_table

        db = load("kiessling", "merge")
        entry = db.catalog.get("PARTS")
        rows = list(entry.heap.scan())
        scan_table(entry).drop()
        assert list(entry.heap.scan()) == rows
        assert entry.heap.num_pages > 0


class TestErrorPathsFreeTheirScratch:
    """A block that raises part-way frees what it had built."""

    def setup_method(self):
        self.db = Database(buffer_pages=8)
        # 20 pages a table against B = 8: sorts spill to several runs.
        self.db.create_table("A", ["K", "X"], rows_per_page=2)
        self.db.create_table("B", ["K", "Y"], rows_per_page=2)
        self.db.insert("A", [(i, i) for i in range(40)])
        self.db.insert("B", [(i, 39 - i) for i in range(40)])
        self.db.cold_cache()
        self.base_pages = self.db.disk.num_pages

    def assert_clean(self):
        assert self.db.disk.num_pages == self.base_pages
        assert leaked_pages(self.db.catalog) == 0
        # No frame of a freed page lingers: what is resident is a table's.
        table_pages = {
            page_id
            for name in self.db.tables()
            for page_id in self.db.catalog.heap_of(name).page_ids
        }
        assert set(self.db.buffer._frames) <= table_pages
        assert not self.db.buffer._pinned

    @pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
    @pytest.mark.parametrize("mode", MODES)
    def test_residual_that_raises_mid_join(self, join_method, mode):
        # A.X / B.Y divides by zero on the last B row: the restricts (and
        # for merge the sorts) are built, the join output is half written.
        executor = SingleLevelExecutor(self.db.catalog, ExecConfig(join_method))
        with evaluation(mode), pytest.raises(ExecutionError):
            executor.execute(
                parse(
                    "SELECT A.K FROM A, B WHERE A.K = B.K AND A.X > 0 "
                    "AND B.Y >= 0 AND A.X / B.Y > 1"
                ),
                Relation.to_list,
            )
        self.assert_clean()

    def test_plan_error_after_the_joins_ran(self):
        executor = SingleLevelExecutor(self.db.catalog)
        with pytest.raises(PlanError):
            executor.execute(
                parse(
                    "SELECT A.K, B.Y FROM A, B WHERE A.K = B.K "
                    "ORDER BY A.K ASC, B.Y DESC"
                ),
                Relation.to_list,
            )
        self.assert_clean()

    def test_public_api_error_leaves_nothing(self):
        with pytest.raises(ExecutionError):
            self.db.query(
                "SELECT K FROM A WHERE K IN "
                "(SELECT K FROM B WHERE B.K = A.K AND A.X / B.Y > 1)",
                method="transform",
            )
        self.assert_clean()

    def test_sort_frees_its_runs_when_the_source_fails(self):
        from repro.engine.operators import scan_table
        from repro.engine.sort import external_sort
        from repro.errors import StorageError

        entry = self.db.catalog.get("A")
        source = scan_table(entry)
        # Free the last page from under the scan: two 16-row runs are
        # already on disk (B = 8 pages of 2 rows) when the sort gets there.
        self.db.buffer.free_page(entry.heap.page_ids[-1])
        with pytest.raises(StorageError):
            external_sort(source, [1], self.db.buffer)
        assert not self.db.buffer._pinned
        assert self.db.disk.num_pages == self.base_pages - 1


class TestMidStreamFailures:
    """A join residual that raises on the last batch of a stream, after
    the block has begun writing: a temp's half-written result, or the
    runs a sort has already formed, are freed with everything else; a
    final block has written no result at all."""

    N = 400
    ROWS_PER_PAGE = 8
    SQL = "SELECT A.K, A.X, B.K, B.Y FROM A, B WHERE A.K = B.K"

    def setup_method(self):
        self.db = Database(buffer_pages=4)
        self.db.create_table("A", ["K", "X"], rows_per_page=self.ROWS_PER_PAGE)
        self.db.create_table("B", ["K", "Y"], rows_per_page=self.ROWS_PER_PAGE)
        self.db.insert("A", [(i, i + 1) for i in range(self.N)])
        # B.Y is 0 for the last key only: A.X / B.Y raises on the batch
        # of A that holds its last row.
        self.db.insert("B", [(i, int(i < self.N - 1)) for i in range(self.N)])
        self.db.cold_cache()
        self.base_pages = self.db.disk.num_pages

    def freed_heaps(self, monkeypatch) -> list[tuple[str | None, int]]:
        """``(heap name, pages)`` of every heap freed, in order, with a
        ``("<sort>", 0)`` mark where each of the executor's sorts began."""
        import repro.optimizer.executor as executor_module
        from repro.storage.heap import HeapFile

        freed = []
        truncate = HeapFile.truncate
        external_sort = executor_module.external_sort

        def spy(heap):
            freed.append((heap.name, heap.num_pages))
            return truncate(heap)

        def marked_sort(*args, **kwargs):
            freed.append(("<sort>", 0))
            return external_sort(*args, **kwargs)

        monkeypatch.setattr(HeapFile, "truncate", spy)
        monkeypatch.setattr(executor_module, "external_sort", marked_sort)
        return freed

    def joined_before_failure(self, join_method: str) -> int:
        """Rows the join put out before its batch of A's last row raised.

        A hash join probes with runs of whole pages holding at least
        ``_RUN_ROWS`` rows; a merge or nested-loop join reads its outer
        a page at a time.
        """
        page = self.ROWS_PER_PAGE
        batch = -(-_RUN_ROWS // page) * page if join_method == "hash" else page
        return (self.N - 1) // batch * batch

    def assert_clean(self) -> None:
        assert self.db.disk.num_pages == self.base_pages
        assert leaked_pages(self.db.catalog) == 0
        assert not self.db.buffer._pinned

    def fail(self, join_method: str, order_by: str = "", temp: bool = False):
        """Run the block whose residual raises late: as a statement's
        final block, or built as the temp ``T``."""
        executor = SingleLevelExecutor(self.db.catalog, ExecConfig(join_method))
        select = parse(f"{self.SQL} AND A.X / B.Y > 0{order_by}")
        with pytest.raises(ExecutionError):
            if temp:
                executor.materialize("T", select)
            else:
                executor.execute(select, Relation.to_list)
        assert "T" not in self.db.tables()
        self.assert_clean()

    @pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
    def test_half_written_result_is_freed(self, monkeypatch, join_method):
        freed = self.freed_heaps(monkeypatch)
        self.fail(join_method, temp=True)
        # What was joined before the raise, four columns, 32 a page, was
        # on disk: 392 rows on 13 pages, or 320 on 10 for the hash join.
        joined = self.joined_before_failure(join_method)
        assert ("result", -(-joined // 32)) in freed
        names = [name for name, _ in freed]
        if join_method == "merge":  # the sorted inputs, freed in the sweep
            assert names.count("<sort>") == names.count("sorted") == 2

    @pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
    def test_final_block_that_raises_wrote_no_result(self, monkeypatch, join_method):
        freed = self.freed_heaps(monkeypatch)
        self.fail(join_method)
        names = [name for name, _ in freed if name not in ("<sort>", "sort-run")]
        # What was written is freed: a merge's sorted inputs (an
        # unrestricted nested-loop inner is rescanned where it is
        # stored, and a hash join writes nothing); no result was.
        assert names == (["sorted", "sorted"] if join_method == "merge" else [])

    @pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
    def test_formed_sort_runs_are_freed(self, monkeypatch, join_method):
        freed = self.freed_heaps(monkeypatch)
        self.fail(join_method, " ORDER BY A.X")
        # The ORDER BY sort's runs hold B x 32 = 128 rows: those filled
        # before the raise were formed (three of 392 rows, two of the
        # hash join's 320).
        names = [name for name, _ in freed]
        last_sort = len(names) - names[::-1].index("<sort>")
        runs = [pages for name, pages in freed[last_sort:] if name == "sort-run"]
        assert runs == [4] * (self.joined_before_failure(join_method) // 128)
        assert "result" not in names

    def test_final_order_by_frees_its_sorted_heap_once_read(self, monkeypatch):
        """A final ORDER BY's sort output is a heap even a final block
        writes: the caller reads it, then the sweep frees it."""
        freed = self.freed_heaps(monkeypatch)
        executor = SingleLevelExecutor(self.db.catalog, ExecConfig("hash"))
        handed = []

        def collect(output: Relation) -> list[tuple]:
            rows = output.to_list()
            handed.append((output.heap, output.num_pages, len(freed)))
            return rows

        rows = executor.execute(
            parse(f"{self.SQL} AND B.Y > 0 ORDER BY A.X"), collect
        )
        assert [row[1] for row in rows] == list(range(1, self.N))
        ((heap, pages, freed_then),) = handed
        assert pages == -(-(self.N - 1) // 32)
        assert (heap.name, pages) in freed[freed_then:]
        assert heap.num_pages == 0
        self.assert_clean()


class TestMaintenanceFailure:
    """A maintenance delta that raises part-way frees the delta temps
    it had built, and the registry keeps the version it had."""

    SQL = (
        "SELECT PNUM FROM PARTS WHERE PNUM IN "
        "(SELECT PNUM FROM SUPPLY WHERE 12 / QUAN > ?)"
    )

    def test_delta_that_raises_leaves_disk_at_its_base(self):
        db = Database(buffer_pages=16)
        db.create_table("PARTS", ["PNUM", "QOH"])
        db.create_table("SUPPLY", ["PNUM", "QUAN"])
        db.insert("PARTS", [(p, p % 3) for p in range(1, 30)])
        db.insert("SUPPLY", [(s % 33, 1 + s % 5) for s in range(120)])
        statement = db.prepare(self.SQL)
        statement.execute((2,))
        db.insert("SUPPLY", [(3, 4), (5, 6)])
        assert statement.execute((2,)).steps[0].startswith("maintained NTEMP_1")
        # QUAN = 0 divides by zero in the delta, not in the old version.
        db.insert("SUPPLY", [(4, 0)])
        base = db.disk.num_pages
        entries = dict(db.plan_cache.sharing._entries)
        with pytest.raises(ExecutionError):
            statement.execute((2,))
        assert db.disk.num_pages == base
        assert dict(db.plan_cache.sharing._entries) == entries
        assert not db.buffer._pinned
        statement.close()
        db.plan_cache.clear()
        assert leaked_pages(db.catalog) == 0


def test_thousand_mixed_operations_stay_bounded():
    """disk.num_pages after 1 000 mixed_rw-style operations: base tables
    plus the plan cache's bounded temp population, not one page per
    intermediate ever built."""
    db = Database(buffer_pages=64)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", [(p, p % 7) for p in range(60)])
    db.insert(
        "SUPPLY",
        [(s % 66, s % 5, f"19{78 + s % 6}-0{1 + s % 9}-15") for s in range(300)],
    )
    statement = db.prepare(
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    )
    peak = 0
    for op in range(1000):
        if op % 10 == 9:
            db.insert("SUPPLY", [(op % 66, 1, "1980-02-02")] * 5)
        else:
            statement.execute((f"19{79 + op % 4}-06-15",))
        peak = max(peak, leaked_pages(db.catalog))
    # What is not a table here is a temp some cached plan still holds.
    assert peak < 200
    statement.close()
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0
