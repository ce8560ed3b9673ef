"""Concurrent read path: buffer pool stress and multi-threaded replay."""

import threading
from collections import Counter

from repro.api import Database
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.locks import RWLock

THREADS = 8


def run_workers(count, target):
    failures: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # surfaced in the main thread
            failures.append(error)

    workers = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if failures:
        raise failures[0]


class TestRWLock:
    def test_readers_are_reentrant(self):
        lock = RWLock()
        with lock.read(), lock.read():
            pass

    def test_write_implies_read(self):
        lock = RWLock()
        with lock.write(), lock.read():
            pass

    def test_concurrent_readers_proceed(self):
        lock = RWLock()
        inside = []
        gate = threading.Barrier(4, timeout=10)

        def reader(_index):
            with lock.read():
                gate.wait()  # deadlocks unless all 4 hold the lock at once
                inside.append(1)

        run_workers(4, reader)
        assert len(inside) == 4

    def test_writer_excludes_readers(self):
        lock = RWLock()
        log = []

        def writer(_index):
            with lock.write():
                log.append("w-in")
                # Readers must not interleave inside this section.
                log.append("w-out")

        def reader(_index):
            with lock.read():
                log.append("r")

        run_workers(
            6, lambda i: writer(i) if i % 2 else reader(i)
        )
        text = "".join(log)
        assert "w-inw-out" in text.replace("r", "")
        for start in range(len(log)):
            if log[start] == "w-in":
                assert log[start + 1] == "w-out"


class TestBufferPoolStress:
    def test_concurrent_pin_unpin_evict_with_full_pool(self):
        """Hammer a tiny pool from 8 threads; no lost or corrupt pages."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        pages = []
        for value in range(32):
            page = pool.new_page(capacity=4, pin=True)
            page.append((value,))
            pool.unpin(page.page_id)
            pages.append((page.page_id, value))
        pool.evict_all()

        def worker(index):
            for round_number in range(40):
                page_id, value = pages[(index * 7 + round_number) % 32]
                page = pool.get_page(page_id, pin=True)
                try:
                    assert list(page.rows) == [(value,)], (
                        f"page {page_id} corrupted"
                    )
                finally:
                    pool.unpin(page_id)
                if round_number % 5 == 0:
                    pool.evict_all()  # skips pinned frames

        run_workers(THREADS, worker)
        # Every frame must end unpinned: re-reading all pages works.
        pool.evict_all()
        for page_id, value in pages:
            page = pool.get_page(page_id)
            assert list(page.rows) == [(value,)]

    def test_io_delay_sleeps_outside_locks(self):
        """Two delayed reads from two threads overlap, not serialize."""
        import time

        disk = DiskManager(io_delay=0.05)
        pool = BufferPool(disk, capacity=4)
        ids = []
        for value in range(2):
            page = pool.new_page(capacity=4)
            page.append((value,))
            ids.append(page.page_id)
        pool.evict_all()

        start = time.perf_counter()
        run_workers(2, lambda i: pool.get_page(ids[i]))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.095, f"delayed reads serialized: {elapsed:.3f}s"


class TestConcurrentReplay:
    JA_QUERY = (
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    )

    def make_db(self) -> Database:
        db = Database(buffer_pages=16)
        db.create_table("PARTS", ["PNUM", "QOH"])
        db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
        db.insert(
            "PARTS", [(n, n % 4) for n in range(1, 40)]
        )
        db.insert(
            "SUPPLY",
            [
                (n % 39 + 1, n, "1979-01-01" if n % 3 else "1981-01-01")
                for n in range(120)
            ],
        )
        return db

    def test_eight_threads_match_single_thread(self):
        db = self.make_db()
        statement = db.prepare(self.JA_QUERY)
        expected = statement.execute(("1980-06-01",)).result.rows
        results: dict[int, list] = {}

        def worker(index):
            rows = None
            for _ in range(5):
                rows = statement.execute(("1980-06-01",)).result.rows
            results[index] = rows

        run_workers(THREADS, worker)
        for index in range(THREADS):
            assert Counter(results[index]) == Counter(expected), (
                f"thread {index} diverged"
            )

    def test_concurrent_distinct_vectors(self):
        """Different bind vectors from different threads don't mix."""
        db = self.make_db()
        statement = db.prepare(
            "SELECT PNUM FROM PARTS WHERE QOH >= ?"
        )
        expected = {
            floor: Counter(statement.execute((floor,)).result.rows)
            for floor in range(4)
        }

        def worker(index):
            floor = index % 4
            for _ in range(5):
                rows = statement.execute((floor,)).result.rows
                assert Counter(rows) == expected[floor], (
                    f"vector {floor} got another vector's rows"
                )

        run_workers(THREADS, worker)

    def test_concurrent_run_cached(self):
        db = self.make_db()
        sql = self.JA_QUERY.replace("?", "'1980-06-01'")
        expected = Counter(db.execute_cached(sql).result.rows)

        def worker(_index):
            for _ in range(5):
                rows = db.execute_cached(sql).result.rows
                assert Counter(rows) == expected

        run_workers(THREADS, worker)
        stats = db.cache_stats()
        assert stats.hits >= THREADS * 5


class TestConcurrentUncachedReads:
    """``db.query`` / ``db.run`` from threads: every statement plans and
    replays in its own session, so concurrent runs can neither see nor
    drop each other's temps (they used to share — and sweep — the one
    catalog: 80 of 120 type-JA bags came back wrong)."""

    SHAPES = {
        "n": "SELECT PNUM FROM PARTS WHERE PNUM IN "
        "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-06-01')",
        "j": "SELECT PNUM FROM PARTS WHERE QOH IN "
        "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)",
        "ja_count": TestConcurrentReplay.JA_QUERY.replace("?", "'1980-06-01'"),
        "a": "SELECT PNUM FROM PARTS WHERE QOH < "
        "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < '1980-06-01')",
    }

    def make_db(self) -> Database:
        db = Database(buffer_pages=32)
        db.create_table("PARTS", ["PNUM", "QOH"])
        db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
        db.insert("PARTS", [(n, n % 5) for n in range(1, 301)])
        db.insert(
            "SUPPLY",
            [
                (n % 330 + 1, n % 7, "1979-01-01" if n % 3 else "1981-01-01")
                for n in range(1500)
            ],
        )
        return db

    def test_four_threads_match_single_thread(self):
        from repro.difftest.leaks import leaked_pages

        db = self.make_db()
        expected = {
            name: Counter(db.query(sql).rows) for name, sql in self.SHAPES.items()
        }
        wrong: list[str] = []

        def worker(index):
            for turn in range(30):
                name = list(self.SHAPES)[(index + turn) % len(self.SHAPES)]
                sql = self.SHAPES[name]
                if index == 0:
                    # explain plans too.
                    assert "-- canonical query" in db.explain(sql)
                if turn % 2:
                    rows = db.query(sql).rows
                else:
                    rows = db.run(sql, method="transform").result.rows
                if Counter(rows) != expected[name]:
                    wrong.append(f"thread {index} turn {turn}: {name}")

        run_workers(4, worker)
        assert not wrong, wrong
        assert db.tables() == ["PARTS", "SUPPLY"]
        # What is left is the kept plans' one-row value-link entries.
        db.plan_cache.clear()
        assert leaked_pages(db.catalog) == 0
