"""Outside-in layer spans: wrap the program's public entry points at run time.

Nothing under ``src/`` knows about this file.  ``Tracer.install`` resolves
each boundary by dotted name, replaces it with a recording wrapper
(class methods by ``setattr``; module functions by rebinding every
``repro.*`` module attribute that *is* the original, so a function
re-imported by name into another module is traced too) and
``Tracer.uninstall`` puts everything back.  A boundary that no longer
exists is listed in ``Tracer.missing`` instead of raising: a later PR may
delete a layer and the benchmark must keep running.

Three kinds of boundary:

* **span** — one record per call: name, start, end, parent, statement id.
  Self time = duration − child spans − hot time inside it.
* **hot** — called thousands of times per statement (``get_page``):
  only a call count and a running time are kept, plus the time charged
  to the enclosing span so that it can be taken out of its self time.
* **generator** — a function that returns a lazy iterator
  (``IsamIndex.lookup``): calls are counted, and the hot calls made
  while it is being drained are attributed to it.  Operators that return
  lazy iterators are otherwise *not* spanned: their work shows up in the
  span that drains them (usually ``Relation.materialize``).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

# Span record layout (a list, for speed).
NAME, START, END, PARENT, STMT, HOT, COUNT = range(7)


@dataclass(frozen=True)
class Boundary:
    #: Metric-side name of the span, ``<layer>.<what>``.
    name: str
    #: ``package.module:function`` or ``package.module:Class.method``.
    target: str
    kind: str = "span"  # "span" | "hot" | "generator"
    #: For spans: a number taken from the return value (rows, temps, ...).
    count: Callable[[object], int] | None = None


class HotCounter:
    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.spans: list[list] = []
        self.hot: dict[str, HotCounter] = {}
        #: generator boundaries: name -> [calls, hot calls made while draining]
        self.drained: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self.statements = 0
        self._stack: list[int] = []
        self._hot_depth = 0
        self._hot_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, boundaries: list[Boundary]) -> None:
        for boundary in boundaries:
            try:
                owner, attr, original = _resolve(boundary.target)
            except (ImportError, AttributeError):
                self.missing.append(boundary.name)
                continue
            raw = original
            rewrap: Callable = lambda f: f  # noqa: E731
            if isinstance(original, (classmethod, staticmethod)):
                raw, rewrap = original.__func__, type(original)
            wrapper = rewrap(self._wrap(boundary, raw))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper, original)
            else:
                self._rebind_everywhere(attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner: object, attr: str, wrapper: object, original: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _rebind_everywhere(self, attr: str, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.prefix or module_name.startswith(self.prefix + ".")
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper, original)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        if boundary.kind == "hot":
            return self._wrap_hot(boundary.name, fn)
        if boundary.kind == "generator":
            return self._wrap_generator(boundary.name, fn)
        return self._wrap_span(boundary.name, fn, boundary.count)

    def _wrap_span(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            if stack:
                record = [name, 0.0, 0.0, stack[-1], spans[stack[-1]][STMT], 0.0, 0]
            else:
                record = [name, 0.0, 0.0, -1, self.statements, 0.0, 0]
                self.statements += 1
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[COUNT] = count(result)
                return result
            finally:
                record[END] = perf_counter()
                stack.pop()

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _wrap_hot(self, name: str, fn: Callable) -> Callable:
        counter = self.hot.setdefault(name, HotCounter())
        spans, stack = self.spans, self._stack

        def hot(*args, **kwargs):
            counter.calls += 1
            self._hot_calls += 1
            self._hot_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                counter.seconds += elapsed
                self._hot_depth -= 1
                # Only the outermost hot call is charged to the span it
                # ran in (a disk read inside get_page is part of it).
                if self._hot_depth == 0 and stack:
                    spans[stack[-1]][HOT] += elapsed

        hot.__wrapped__ = fn  # type: ignore[attr-defined]
        return hot

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tally = self.drained.setdefault(name, [0, 0])

        def generator(*args, **kwargs):
            tally[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                before = self._hot_calls
                try:
                    item = next(inner)
                except StopIteration:
                    tally[1] += self._hot_calls - before
                    return
                tally[1] += self._hot_calls - before
                yield item

        generator.__wrapped__ = fn  # type: ignore[attr-defined]
        return generator


def _resolve(target: str) -> tuple[object, str, object]:
    """(owner, attribute name, the raw attribute as stored on the owner)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr} is not defined on {owner!r}")
    return owner, attr, vars(owner)[attr]


# -- aggregation -------------------------------------------------------------


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    count: int = 0


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration − children − hot time inside it."""
    own = [record[END] - record[START] - record[HOT] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def aggregate(spans: list[list]) -> dict[str, SpanTotals]:
    totals: dict[str, SpanTotals] = {}
    for record, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(record[NAME], SpanTotals())
        entry.calls += 1
        entry.total += record[END] - record[START]
        entry.self_time += own
        entry.count += record[COUNT]
    return totals


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def span_trees(spans: list[list], statements: int) -> list[list[dict]]:
    """Full span lists of the first ``statements`` statements (a bounded
    sample for the trace file), times relative to the statement's start."""
    own = self_times(spans)
    trees: dict[int, list[dict]] = {}
    origin: dict[int, float] = {}
    for index, record in enumerate(spans):
        stmt = record[STMT]
        if stmt >= statements:
            break
        origin.setdefault(stmt, record[START])
        trees.setdefault(stmt, []).append(
            {
                "id": index,
                "parent": record[PARENT],
                "name": record[NAME],
                "start_ms": (record[START] - origin[stmt]) * 1e3,
                "end_ms": (record[END] - origin[stmt]) * 1e3,
                "self_ms": own[index] * 1e3,
            }
        )
    return [trees[stmt] for stmt in sorted(trees)]
