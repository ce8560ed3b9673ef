"""Dropping a relation while other threads scan it.

The PR-5 lock-striped buffer pool made reads concurrent; this pins the
PR-6 audit of ``Relation.drop()`` against it.  The contract
(:meth:`HeapFile.truncate`): frame discard and disk deallocation are
atomic under the pool lock, scans iterate a snapshot of the page list,
and a scan racing a drop either completes with consistent rows or
fails cleanly with ``StorageError`` ("no such page") — never silent
corruption, never a page resurrected into the pool after the drop.
"""

import threading
from collections import Counter

import pytest

from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

ROWS = [(i, i * 2) for i in range(64)]


def make_relation(buffer, name="victim"):
    schema = RowSchema([("T", "A"), ("T", "B")])
    return Relation.materialize(
        schema, ROWS, buffer, rows_per_page=4, name=name
    )


class TestDropVsScan:
    def test_scan_racing_drop_is_all_or_error(self):
        """Many scanners, one dropper: every scan either sees the full
        relation or raises StorageError; afterwards the pages are gone."""
        buffer = BufferPool(DiskManager(), capacity=8)
        relation = make_relation(buffer)
        start = threading.Barrier(6, timeout=10)
        outcomes: list[str] = []
        lock = threading.Lock()
        failures: list[BaseException] = []

        def scanner(kind):
            start.wait()
            while True:
                try:
                    if kind == "rows":
                        got = relation.to_list()
                    else:
                        got = [
                            row
                            for batch in relation.iter_batches()
                            for row in batch
                        ]
                except StorageError:
                    with lock:
                        outcomes.append("error")
                    return
                if not got:  # page list snapshot taken post-drop
                    with lock:
                        outcomes.append("empty")
                    return
                assert Counter(got) == Counter(ROWS), "partial scan"
                with lock:
                    outcomes.append("complete")
                return

        def dropper():
            start.wait()
            relation.drop()

        def run(target, *args):
            def wrapped():
                try:
                    target(*args)
                except BaseException as error:
                    failures.append(error)

            return threading.Thread(target=wrapped)

        threads = [run(scanner, "rows") for _ in range(3)]
        threads += [run(scanner, "batches") for _ in range(2)]
        threads.append(run(dropper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if failures:
            raise failures[0]
        assert len(outcomes) == 5
        # The drop really freed everything: no disk pages survive, and
        # no scan can resurrect a stale frame afterwards.
        assert buffer.disk.num_pages == 0
        assert relation.num_pages == 0
        assert relation.to_list() == []

    def test_dropped_pages_never_readmitted(self):
        """A reader that faulted a page just as it was freed must not
        re-admit the stale frame (the fault-admit re-check)."""
        buffer = BufferPool(DiskManager(), capacity=4)
        survivor = make_relation(buffer, name="survivor")
        victim = make_relation(buffer, name="victim")
        stop = threading.Event()
        failures: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    assert Counter(survivor.to_list()) == Counter(ROWS)
            except BaseException as error:
                failures.append(error)

        reader = threading.Thread(target=churn)
        reader.start()
        try:
            for _ in range(50):
                stale_ids = list(victim.heap.page_ids)
                victim.drop()
                # A post-drop scan of the relation is cleanly empty …
                assert victim.to_list() == []
                # … and the freed page ids are gone for good: faulting
                # one must raise, never re-admit a stale frame.
                for page_id in stale_ids:
                    with pytest.raises(StorageError):
                        buffer.get_page(page_id)
                victim = make_relation(buffer, name="victim")
        finally:
            stop.set()
            reader.join()
        if failures:
            raise failures[0]
        victim.drop()
        # Only the survivor's pages remain on disk.
        assert buffer.disk.num_pages == survivor.num_pages

    def test_parallel_partition_scan_racing_drop(self):
        """Four page-by-page readers racing a drop: each either reads
        the relation's true pages or fails with StorageError — a page
        it did read always carries its full, consistent rows, never a
        torn or resurrected frame."""
        chunks = [ROWS[start : start + 4] for start in range(0, len(ROWS), 4)]
        for _ in range(20):
            buffer = BufferPool(DiskManager(), capacity=8)
            relation = make_relation(buffer)
            heap = relation.heap
            start = threading.Barrier(5, timeout=10)
            outcomes: list[tuple[str, list]] = []
            failures: list[BaseException] = []

            def reader():
                pages = []
                try:
                    start.wait()
                    try:
                        for rows in heap.scan_pages():
                            assert rows == chunks[len(pages)], "torn page read"
                            pages.append(rows)
                    except StorageError:
                        outcomes.append(("error", pages))
                        return
                    outcomes.append(("complete", pages))
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            def dropper():
                start.wait()
                relation.drop()

            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=dropper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a reader or the dropper hung"
            if failures:
                raise failures[0]
            assert len(outcomes) == 4
            for status, pages in outcomes:
                # A reader whose page-list snapshot came after the drop
                # completes with no pages; one that began before reads
                # them all unless it touched a freed page first.
                if status == "complete":
                    assert pages in ([], chunks)
            assert buffer.disk.num_pages == 0
            assert relation.num_pages == 0

    def test_drop_is_idempotent_under_concurrency(self):
        buffer = BufferPool(DiskManager(), capacity=8)
        relation = make_relation(buffer)
        start = threading.Barrier(4, timeout=10)
        failures: list[BaseException] = []

        def dropper():
            try:
                start.wait()
                relation.drop()
            except BaseException as error:
                failures.append(error)

        threads = [threading.Thread(target=dropper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        assert buffer.disk.num_pages == 0
