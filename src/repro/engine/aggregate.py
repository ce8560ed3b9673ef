"""Aggregate functions with SQL semantics.

The semantics the paper leans on (sections 5.1 and 5.3):

* ``COUNT`` over an empty group is **0** — which is exactly the value
  Kim's NEST-JA temp table can never produce, hence the COUNT bug;
* ``MAX``/``MIN``/``SUM``/``AVG`` over an empty group are **NULL**
  (the paper assumes ``MAX({}) = NULL``), and a comparison against
  NULL is unknown, so such outer tuples are rejected;
* NULL input values are ignored by every aggregate; ``COUNT(*)``
  counts rows, ``COUNT(c)`` counts non-NULL values of ``c`` — the
  distinction behind the paper's COUNT(*) sub-case (section 5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from repro.errors import ExecutionError
from repro.sql.ast import AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class AggSpec:
    """A physical aggregate: function over a column position.

    Attributes:
        func: one of COUNT, SUM, AVG, MIN, MAX.
        column: input tuple index, or None for ``COUNT(*)``.
        distinct: aggregate over distinct values only.
    """

    func: str
    column: int | None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {self.func!r}")
        if self.column is None and self.func != "COUNT":
            raise ExecutionError(f"{self.func}(*) is not valid SQL")


def compute_aggregate(func: str, values: list[object], distinct: bool = False) -> object:
    """Apply an aggregate to a list of column values (NULLs included).

    ``values`` holds the column values of one group, NULLs and all;
    for ``COUNT(*)`` pass one arbitrary non-NULL marker per row.
    """
    if func not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate {func!r}")
    present = [value for value in values if value is not None]
    if distinct:
        present = _distinct_preserving_order(present)
    if func == "COUNT":
        return len(present)
    if not present:
        return None
    if func == "MIN":
        return min(present)
    if func == "MAX":
        return max(present)
    if func == "SUM":
        return _numeric_sum(present)
    if func == "AVG":
        return _numeric_sum(present) / len(present)
    raise ExecutionError(f"unknown aggregate {func!r}")


def apply_specs(rows: list[tuple], specs: list[AggSpec]) -> list[object]:
    """Evaluate several physical aggregates over one group of rows."""
    results: list[object] = []
    for spec in specs:
        if spec.column is None:
            values: list[object] = [1] * len(rows)
        else:
            values = [row[spec.column] for row in rows]
        results.append(compute_aggregate(spec.func, values, spec.distinct))
    return results


class NotCombinable(Exception):
    """Two partial aggregates whose combination is not the aggregate of
    the union: a floating-point SUM (``S_old + S_delta`` rounds
    differently from the scan-order sum) or a NaN extreme."""


def _nonnull(combine):
    """Lift a combine over the empty partial NULL (MIN / MAX / SUM of
    no non-NULL value)."""

    def lifted(old: object, new: object) -> object:
        if old is None:
            return new
        if new is None:
            return old
        return combine(old, new)

    return lifted


_add = _nonnull(add)


def _sum(old: object, new: object) -> object:
    if isinstance(old, float) or isinstance(new, float):
        raise NotCombinable("SUM partial holds a float")
    return _add(old, new)


def _extreme(pick):
    def combine(old: object, new: object) -> object:
        if old != old or new != new:
            raise NotCombinable("MIN/MAX partial is NaN")
        return pick(old, new)

    return combine


#: How the aggregate of a row set combines from the aggregates of two
#: disjoint parts of it — what insert-only maintenance of a grouped temp
#: needs.  Only the non-DISTINCT aggregates below combine; AVG (a SUM
#: over a COUNT) and DISTINCT aggregates do not, and neither does a
#: COUNT(*) over an outer join (the padded row of an unmatched group
#: counts 1 and then vanishes once the group matches).
COMBINE = {
    "COUNT": add,
    "SUM": _sum,
    "MIN": _nonnull(_extreme(min)),
    "MAX": _nonnull(_extreme(max)),
}


def _numeric_sum(values: list[object]) -> object:
    total: float | int = 0
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot SUM/AVG non-numeric value {value!r}")
        total += value
    return total


def _distinct_preserving_order(values: list[object]) -> list[object]:
    seen: set[object] = set()
    result: list[object] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            result.append(value)
    return result
