"""Transactions: begin/commit/rollback over the WAL and snapshot manager.

Concurrency model — single writer, many snapshot readers:

* A transaction acquires the manager's **commit lock** at its first
  write and holds it until commit or rollback.  Writers are therefore
  serialized, which buys two structural guarantees: an in-flight
  transaction's rows are exactly the tail of each heap it wrote (so
  rollback is a tail trim, :meth:`HeapFile.rollback_to`), and WAL
  records of different transactions never interleave between a
  ``begin`` and its ``commit``.
* Readers never take the commit lock.  They pin an immutable snapshot
  (:class:`repro.txn.mvcc.Snapshot`) and scan under its row horizons;
  uncommitted rows sit past every published horizon, so isolation costs
  no read-path locking.

Commit ordering (the recovery contract)::

    1. WAL commit record + flush        <- durability point
    2. rebuild ISAM indexes             (only if a written table has any)
    3. snapshots.publish(...)           <- visibility point, one atomic swap
    4. bump data versions               (shared temps purged)

A crash between 1 and 3 loses nothing: replay finds the commit record
and reapplies the inserts.  A crash before 1 loses the transaction
entirely — its records were never flushed — which is exactly rollback.

:func:`recover` rebuilds a :class:`~repro.api.Database` from a log:
replay applies schema records and the inserts of *committed*
transactions, in log order, through the normal code paths with logging
suppressed, then re-attaches the (torn-tail-truncated) log for new
writes.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.storage.locks import make_lock
from repro.txn import monitors
from repro.txn.mvcc import TransactionSnapshot
from repro.txn.wal import WalError, WriteAheadLog, read_records

if TYPE_CHECKING:
    from repro.api import Database
    from repro.catalog.catalog import Catalog
    from repro.engine.nested_iteration import QueryResult


class TransactionError(ReproError):
    """Misuse of the transaction API (double commit, write after abort)."""


class Transaction:
    """One unit of atomic, isolated work.

    Usable as a context manager — commits on clean exit, rolls back on
    exception::

        with db.begin() as txn:
            txn.insert("PARTS", [(99, 5)])
            txn.query("SELECT COUNT(*) FROM PARTS")   # sees own insert
        # committed; other readers now see the row
    """

    def __init__(self, manager: "TransactionManager", database: "Database | None") -> None:
        self.manager = manager
        self.db = database
        self.txid = manager.next_txid()
        self.state = "active"
        # The commit point this transaction reads at (begin snapshot).
        self._base = manager.catalog.snapshots.current()
        #: table -> committed row count at first write (the undo point).
        self._pre_counts: dict[str, int] = {}
        self._write_order: list[str] = []
        self._holds_lock = False
        self._logged_begin = False

    # -- reads -----------------------------------------------------------

    def snapshot(self) -> TransactionSnapshot:
        """This transaction's view: begin snapshot + its own writes."""
        return TransactionSnapshot(self._base, set(self._pre_counts))

    def query(self, sql: str, method: str = "auto") -> "QueryResult":
        """Run a SELECT under this transaction's snapshot.

        Sees the state as of :meth:`begin <TransactionManager.begin>`
        plus this transaction's own uncommitted writes; concurrent
        commits by others stay invisible.
        """
        self._require_active()
        if self.db is None:
            raise TransactionError("transaction has no database attached")
        with self.manager.catalog.snapshots.pinned(self.snapshot()):
            return self.db.query(sql, method=method)

    # -- writes ----------------------------------------------------------

    def insert(self, table: str, rows: Iterable[tuple]) -> int:
        """Buffer rows into ``table``; visible to others only at commit."""
        self._require_active()
        catalog = self.manager.catalog
        name = table.upper()
        entry = catalog.get(name)
        tupled = [tuple(row) for row in rows]
        for row in tupled:
            entry.schema.validate_row(row)
        if not tupled:
            return 0
        self._acquire_write_lock()
        try:
            self._log_begin()
            if name not in self._pre_counts:
                self._pre_counts[name] = entry.heap.num_rows
                self._write_order.append(name)
            if not self.manager.suppressed:
                self.manager.wal.append(
                    "insert", self.txid, table=name, rows=[list(r) for r in tupled]
                )
        except WalError:
            self.rollback()
            raise
        entry.heap.extend(tupled)
        return len(tupled)

    # -- lifecycle -------------------------------------------------------

    def commit(self) -> None:
        """Make the writes durable, then visible — in that order."""
        self._require_active()
        if not self._write_order:
            # Read-only transaction: nothing to log or publish.
            self.state = "committed"
            self.manager.note_commit(read_only=True)
            return
        catalog = self.manager.catalog
        horizons = {
            name: catalog.get(name).heap.num_rows for name in self._write_order
        }
        try:
            if not self.manager.suppressed:
                self.manager.wal.append("commit", self.txid, tables=horizons)
                self.manager.wal.flush()
        except WalError:
            # The commit never reached its durability point: the
            # transaction loses, exactly as a crash-then-replay would
            # conclude.
            self.rollback()
            raise
        # The commit record is durable: from here the transaction IS
        # committed (a crash-then-replay would reapply it), so whatever
        # the post-durability steps do, the transaction must end up
        # committed with the commit lock released.  Without the
        # try/finally, an index-rebuild or publish failure leaked the
        # commit lock and wedged every later writer (CC003 finding).
        try:
            # ISAM indexes are static structures rebuilt on write;
            # probes always see latest-committed (documented
            # limitation), so the rebuild happens under the exclusive
            # catalog lock.
            indexed = [
                name
                for name in self._write_order
                if any(key[0] == name for key in catalog.indexes)
            ]
            if indexed:
                with catalog.write_lock():
                    for (tbl, _col), index in catalog.indexes.items():
                        if tbl in indexed:
                            index.build()
            # TX002: durability before visibility — nothing may still
            # be staged when the snapshot swap makes the rows visible.
            if not self.manager.suppressed:
                monitors.check_flush_before_publish(
                    self.manager.wal.pending_records
                )
            # Visibility point: one atomic swap covers every written
            # table.
            catalog.snapshots.publish(horizons)
            for name in self._write_order:
                if not catalog.get(name).is_temp:
                    catalog.bump_version("insert", name)
        finally:
            self.state = "committed"
            self.manager.note_commit()
            self._release_write_lock()

    def rollback(self) -> None:
        """Undo every write: trim heap tails back to the pre-counts."""
        if self.state != "active":
            return
        catalog = self.manager.catalog
        for name in reversed(self._write_order):
            catalog.get(name).heap.rollback_to(self._pre_counts[name])
        if self._logged_begin and not self.manager.suppressed:
            try:
                self.manager.wal.append("abort", self.txid)
                self.manager.wal.flush()
            except WalError:
                # An abort record is advisory — replay ignores
                # uncommitted transactions either way.
                pass
        self.state = "aborted"
        self.manager.note_abort(wrote=bool(self._write_order))
        self._release_write_lock()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is not None:
            self.rollback()
        elif self.state == "active":
            self.commit()

    # -- internals -------------------------------------------------------

    def _require_active(self) -> None:
        if self.state != "active":
            raise TransactionError(
                f"transaction {self.txid} is {self.state}, not active"
            )

    def _acquire_write_lock(self) -> None:
        if not self._holds_lock:
            self.manager.commit_lock.acquire()
            self._holds_lock = True

    def _release_write_lock(self) -> None:
        if self._holds_lock:
            self._holds_lock = False
            self.manager.commit_lock.release()

    def _log_begin(self) -> None:
        if not self._logged_begin:
            self._logged_begin = True
            if not self.manager.suppressed:
                self.manager.wal.append("begin", self.txid)


class TransactionManager:
    """Hands out transactions; owns the WAL, txid counter, and counters."""

    def __init__(self, catalog: "Catalog", wal: WriteAheadLog | None = None) -> None:
        self.catalog = catalog
        self.wal = wal if wal is not None else WriteAheadLog()
        #: Serializes writers (acquired at a transaction's first write).
        self.commit_lock = make_lock("txn.commit")
        self._txid_lock = make_lock("txn.txid")
        # Guards the outcome counters: read-only commits bump them
        # without holding the commit lock, so concurrent readers and a
        # writer can race on the increments (a CC004-style lost update).
        self._stats_lock = make_lock("txn.stats")
        self._next_txid = 1
        self.commits = 0
        self.aborts = 0
        self.read_only_commits = 0
        self._suppress = False

    @property
    def suppressed(self) -> bool:
        """True while recovery replays the log (no re-logging)."""
        return self._suppress

    def next_txid(self) -> int:
        with self._txid_lock:
            txid = self._next_txid
            self._next_txid += 1
            return txid

    def set_next_txid(self, txid: int) -> None:
        with self._txid_lock:
            self._next_txid = max(self._next_txid, txid)

    def begin(self, database: "Database | None" = None) -> Transaction:
        return Transaction(self, database)

    @contextmanager
    def replaying(self) -> Iterator[None]:
        """Suppress WAL logging while recovery drives the write paths."""
        self._suppress = True
        try:
            yield
        finally:
            self._suppress = False

    def log_schema(self, event: str, **payload: Any) -> None:
        """Log a DDL statement as its own committed mini-transaction.

        Schema records are self-committing: replay applies them
        unconditionally (they are flushed only after the operation
        succeeded locally), so no begin/commit framing is needed.
        """
        if self._suppress:
            return
        with self.commit_lock:
            self.wal.append(event, self.next_txid(), **payload)
            self.wal.flush()

    def note_commit(self, read_only: bool = False) -> None:
        with self._stats_lock:
            self.commits += 1
            if read_only:
                self.read_only_commits += 1

    def note_abort(self, wrote: bool = True) -> None:
        with self._stats_lock:
            self.aborts += 1

    def describe(self) -> str:
        snaps = self.catalog.snapshots
        return (
            f"txn: {self.commits} commit(s), {self.aborts} abort(s), "
            f"data v{snaps.data_version}, schema v{self.catalog.schema_version}, "
            f"{snaps.active_pins} pinned read(s)\n{self.wal.describe()}"
        )


def recover(wal_path: str | os.PathLike, **db_kwargs: Any) -> "Database":
    """Rebuild a :class:`~repro.api.Database` by replaying a WAL.

    Applies, in log order: every schema record, and the inserts of every
    transaction that reached its commit record.  Uncommitted tails (a
    crash mid-transaction) and aborted transactions are skipped — the
    recovered state is exactly the committed prefix.  The log file is
    torn-tail-truncated and re-attached, so the recovered database keeps
    journaling where the crashed one stopped.
    """
    from repro.api import Database

    db_kwargs.pop("wal_path", None)  # the log is re-attached below
    records, _valid = read_records(wal_path)
    committed = {r.txid for r in records if r.type == "commit"}
    db = Database(**db_kwargs)
    manager = db.txn
    max_txid = 0
    with manager.replaying():
        for record in records:
            max_txid = max(max_txid, record.txid)
            payload = record.payload
            if record.type == "create_table":
                db.create_table(
                    payload["table"],
                    [(name, ctype) for name, ctype in payload["columns"]],
                    primary_key=payload.get("primary_key", ()),
                    rows_per_page=payload.get("rows_per_page"),
                )
            elif record.type == "drop_table":
                db.drop_table(payload["table"])
            elif record.type == "create_index":
                db.create_index(payload["table"], payload["column"])
            elif record.type == "insert" and record.txid in committed:
                db.insert(
                    payload["table"], [tuple(row) for row in payload["rows"]]
                )
    wal = WriteAheadLog(wal_path)
    manager.wal = wal
    db.wal = wal
    manager.set_next_txid(max_txid + 1)
    return db
