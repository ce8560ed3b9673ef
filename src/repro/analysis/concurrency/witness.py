"""Runtime lock witness: observed-order deadlock detection.

An opt-in instrumentation shim for the engine's recognized locks (the
catalog :class:`~repro.storage.locks.RWLock`, the buffer pool's pool
lock and stripe latches, the disk lock, the WAL/snapshot/commit locks,
the plan-cache locks).  When enabled — via the ``REPRO_WITNESS=1``
environment variable or :func:`LockWitness.enable` — every lock
created through :func:`repro.storage.locks.make_lock` is wrapped in a
:class:`WitnessLock`, and the ``RWLock`` notifies the witness from its
acquire/release paths.

The witness maintains, per thread, the stack of currently held locks,
and process-wide, a directed **order graph** over lock *names*: an edge
``A -> B`` means some thread attempted to acquire ``B`` while holding
``A``.  Violations raise :class:`LockOrderError` at the acquisition
site *before blocking*:

* **order cycle** — acquiring ``B`` under ``A`` when the graph already
  shows a path ``B -> ... -> A`` (the classic ABBA deadlock, caught
  even when the interleaving that would actually deadlock never
  happens in the run);
* **self deadlock** — re-acquiring a non-reentrant lock the thread
  already holds;
* **read→write upgrade** — acquiring an ``RWLock``'s write side while
  holding only its read side (writer priority makes two upgrading
  readers deadlock each other).

Edges are recorded at *attempt* time, so an interleaving that would
truly deadlock is reported rather than hung.  Disabled, the witness
costs one module-level ``None`` check per RWLock transition and
nothing at all for ``make_lock`` locks (they are only wrapped when the
witness was active at creation time).

This module deliberately imports nothing from the storage or txn
layers; :mod:`repro.storage.locks` registers the witness factory at
enable time, keeping the dependency direction analysis → storage.
"""

from __future__ import annotations

import sys
import threading
from types import TracebackType
from typing import Any

from repro.errors import ReproError

__all__ = ["LockOrderError", "LockWitness", "WitnessLock", "witness"]


class LockOrderError(ReproError):
    """An observed lock-order cycle, self deadlock, or upgrade."""


class _Held:
    """One entry in a thread's held-lock stack."""

    __slots__ = ("name", "obj_id", "mode", "reentrant", "depth", "site")

    def __init__(
        self, name: str, obj_id: int, mode: str, reentrant: bool, site: str
    ) -> None:
        self.name = name
        self.obj_id = obj_id
        self.mode = mode
        self.reentrant = reentrant
        self.depth = 1
        self.site = site


def _acquire_site() -> str:
    """``file:line`` of the innermost frame outside the witness/locks."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(("witness.py", "locks.py", "contextlib.py")):
            short = filename.rsplit("/", 1)[-1]
            return f"{short}:{frame.f_lineno}"
        frame = frame.f_back  # type: ignore[assignment]
    return "<unknown>"


class LockWitness:
    """Process-wide acquisition-order graph with per-thread stacks."""

    def __init__(self) -> None:
        self.active = False
        # Guards the graph and violation list; a raw lock, never
        # witnessed (it is always a leaf: held only inside the witness).
        self._mutex = threading.Lock()
        self._local = threading.local()
        #: name -> {successor name -> provenance string}.
        self._edges: dict[str, dict[str, str]] = {}
        #: Violations recorded (and raised) so far.
        self.violations: list[str] = []
        #: Count of acquisitions observed while active (diagnostics).
        self.acquisitions = 0

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> "LockWitness":
        """Activate the witness and register the lock factory."""
        from repro.storage import locks

        self.active = True
        locks.set_lock_factory(self._make_lock)
        locks.set_rwlock_hook(self)
        return self

    def disable(self) -> None:
        """Deactivate; already-wrapped locks become pass-through."""
        from repro.storage import locks

        self.active = False
        locks.set_lock_factory(None)
        locks.set_rwlock_hook(None)

    def reset(self) -> None:
        """Forget the observed graph and violations (between tests)."""
        with self._mutex:
            self._edges.clear()
            self.violations.clear()
            self.acquisitions = 0

    def _make_lock(self, name: str, reentrant: bool) -> "WitnessLock":
        return WitnessLock(name, self, reentrant=reentrant)

    # -- per-thread stack ------------------------------------------------

    def _stack(self) -> list[_Held]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- the witness protocol --------------------------------------------

    def before_acquire(
        self, name: str, obj_id: int, mode: str, reentrant: bool
    ) -> None:
        """Record the attempt; raise on a violation *before blocking*."""
        if not self.active:
            return
        stack = self._stack()
        same = [h for h in stack if h.obj_id == obj_id]
        if same:
            if mode == "exclusive" and not reentrant:
                self._violate(
                    f"self deadlock on {name!r}: non-reentrant lock "
                    f"re-acquired at {_acquire_site()}; first held at "
                    f"{same[0].site}"
                )
            if mode == "write" and all(h.mode == "read" for h in same):
                self._violate(
                    f"read->write upgrade on {name!r}: write requested at "
                    f"{_acquire_site()} while the read side is held at "
                    f"{same[0].site} (writer priority deadlocks two "
                    f"upgrading readers)"
                )
            return  # legitimate re-entrancy; counted in after_acquire
        if not stack:
            return
        site = _acquire_site()
        held_names = {h.name for h in stack if h.name != name}
        with self._mutex:
            self.acquisitions += 1
            for held in stack:
                if held.name == name:
                    continue
                edges = self._edges.setdefault(held.name, {})
                edges.setdefault(
                    name,
                    f"{held.name}@{held.site} -> {name}@{site} "
                    f"[{threading.current_thread().name}]",
                )
            cycle = self._find_path(name, held_names)
            if cycle is not None:
                provenance = [
                    self._edges[a][b] for a, b in zip(cycle, cycle[1:])
                ]
                back = next(h for h in stack if h.name == cycle[-1])
                detail = "; ".join(provenance)
                self._violate_locked(
                    f"lock-order cycle: acquiring {name!r} at {site} while "
                    f"holding {back.name!r} (acquired at {back.site}), but "
                    f"the observed order already requires {detail}"
                )

    def after_acquire(
        self, name: str, obj_id: int, mode: str, reentrant: bool
    ) -> None:
        """Push the now-held lock onto the thread's stack."""
        if not self.active:
            return
        stack = self._stack()
        for held in stack:
            if held.obj_id == obj_id and (
                held.mode == mode or held.mode == "write"
            ):
                held.depth += 1
                return
        stack.append(_Held(name, obj_id, mode, reentrant, _acquire_site()))

    def after_release(self, name: str, obj_id: int, mode: str) -> None:
        """Pop (or decrement) the released lock from the stack."""
        if not self.active:
            return
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            held = stack[index]
            if held.obj_id == obj_id and (
                held.mode == mode or held.mode == "write"
            ):
                held.depth -= 1
                if held.depth == 0:
                    del stack[index]
                return

    # -- violations and queries ------------------------------------------

    def _violate(self, message: str) -> None:
        with self._mutex:
            self._violate_locked(message)

    def _violate_locked(self, message: str) -> None:
        self.violations.append(message)
        raise LockOrderError(f"lock witness: {message}")

    def _find_path(self, start: str, targets: set[str]) -> list[str] | None:
        """A path ``start -> ... -> t`` for some ``t`` in ``targets``."""
        parents: dict[str, str | None] = {start: None}
        queue = [start]
        while queue:
            node = queue.pop(0)
            if node in targets:
                path = [node]
                while True:
                    parent = parents[path[-1]]
                    if parent is None:
                        break
                    path.append(parent)
                path.reverse()
                return path
            for succ in self._edges.get(node, ()):
                if succ not in parents:
                    parents[succ] = node
                    queue.append(succ)
        return None

    def check(self) -> None:
        """Raise if any violation was recorded during the run."""
        if self.violations:
            raise LockOrderError(
                "lock witness recorded "
                f"{len(self.violations)} violation(s):\n  "
                + "\n  ".join(self.violations)
            )

    def edge_count(self) -> int:
        with self._mutex:
            return sum(len(v) for v in self._edges.values())

    def report(self) -> str:
        """Human-readable dump of the observed order graph."""
        with self._mutex:
            if not self._edges:
                return "lock witness: no nested acquisitions observed"
            lines = ["lock witness: observed acquisition order"]
            for name in sorted(self._edges):
                for succ in sorted(self._edges[name]):
                    lines.append(f"  {name} -> {succ}")
            if self.violations:
                lines.append(f"  {len(self.violations)} violation(s)!")
            return "\n".join(lines)


class WitnessLock:
    """A mutex/rlock proxy that reports transitions to the witness.

    Mirrors the :class:`threading.Lock` interface (``acquire`` /
    ``release`` / context manager), so it drops into every ``with
    self._lock:`` site unchanged.  When the witness is inactive the
    proxy forwards with a single flag check.
    """

    __slots__ = ("name", "_inner", "_witness", "_reentrant")

    def __init__(
        self, name: str, witness: LockWitness, *, reentrant: bool = False
    ) -> None:
        self.name = name
        self._witness = witness
        self._reentrant = reentrant
        # threading.Lock/RLock are factories, not types; keep this Any.
        self._inner: Any = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._witness.active:
            self._witness.before_acquire(
                self.name, id(self), "exclusive", self._reentrant
            )
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and self._witness.active:
            self._witness.after_acquire(
                self.name, id(self), "exclusive", self._reentrant
            )
        return acquired

    def release(self) -> None:
        self._inner.release()
        if self._witness.active:
            self._witness.after_release(self.name, id(self), "exclusive")

    def locked(self) -> bool:
        if not self._reentrant:
            return bool(self._inner.locked())
        # RLock has no locked() before 3.12; try-acquire probes it.
        if self._inner.acquire(blocking=False):
            self._inner.release()
            return False
        return True

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def __repr__(self) -> str:
        kind = "rlock" if self._reentrant else "lock"
        return f"<WitnessLock {self.name!r} ({kind})>"


#: The process-wide witness instance.
witness = LockWitness()
