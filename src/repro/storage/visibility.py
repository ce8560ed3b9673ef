"""Snapshot visibility plumbing for MVCC scans.

The transaction layer (:mod:`repro.txn.mvcc`) pins a *snapshot* — an
immutable map from base-table name to the number of committed rows
visible at one commit timestamp — for the duration of a query.  Heap
files are append-only, so "the first N rows" is a complete description
of a table's state at any commit point: a snapshot never needs per-row
version columns or delta chains, just a row horizon per table.

This module is the storage layer's (dependency-free) half of that
contract: a context variable holding the active snapshot, which
:meth:`~repro.storage.heap.HeapFile.scan` and friends consult to trim
their reads.  It deliberately knows nothing about transactions — any
object with a ``limit_for(name) -> int | None`` method can be
activated, which is also what lets :mod:`repro.txn.mvcc` layer
transaction-private read-your-writes overlays on top without the
storage layer caring.

A query runs on the thread that pinned its snapshot, so the context
variable is per thread (and per serving client) by construction.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Protocol


class SnapshotLike(Protocol):
    """Anything that can bound per-table scan visibility."""

    def limit_for(self, name: str) -> int | None:
        """Visible row count for ``name``; None = unrestricted."""
        ...


#: The snapshot the current task reads under (None = see everything,
#: the historical single-writer behaviour).
_ACTIVE: ContextVar[SnapshotLike | None] = ContextVar(
    "repro_active_snapshot", default=None
)


def active_snapshot() -> SnapshotLike | None:
    """The snapshot pinned for the current task, if any."""
    return _ACTIVE.get()


def activate(snapshot: SnapshotLike) -> Token:
    """Pin ``snapshot`` for the current task; returns the reset token."""
    return _ACTIVE.set(snapshot)


def deactivate(token: Token) -> None:
    """Undo a matching :func:`activate`."""
    _ACTIVE.reset(token)


def visible_limit(name: str | None) -> int | None:
    """Row horizon for table ``name`` under the active snapshot.

    None means unrestricted — either no snapshot is pinned, or the
    snapshot does not track the table (temps, or tables created after
    the snapshot under the DDL lock, which excludes running readers).
    """
    if name is None:
        return None
    snapshot = _ACTIVE.get()
    if snapshot is None:
        return None
    return snapshot.limit_for(name)
