"""Shared result types for the transformation algorithms.

A transformation turns one nested query into (a) an ordered list of
temporary-table definitions — each itself a single-level query — and
(b) a final, canonical (single-level) query referencing them.  This is
exactly the paper's presentation: Kiessling's Q2 becomes ``TEMP1``,
``TEMP2``, ``TEMP3`` plus one final SELECT (section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast import Select
from repro.sql.printer import to_sql


@dataclass(frozen=True)
class TempTableDef:
    """One link of a temp chain: a name bound to a single-level query.

    Most links are temporary relations.  A *value link* (``slot`` set)
    is NEST-A's type-A block: replay evaluates it once per execution
    and binds its value — a scalar, or with ``is_list`` the value list
    of an ``IN`` — into parameter slot ``slot``, which the predicate
    that held the block reads.
    """

    name: str
    query: Select
    slot: int | None = None
    is_list: bool = False

    def describe(self) -> str:
        text = f"{self.name} = ({to_sql(self.query)})"
        return text if self.slot is None else f"{text} → ?{self.slot + 1}"


@dataclass
class TransformResult:
    """Output of a transformation algorithm.

    Attributes:
        setup: temp-table definitions, in build order.
        query: the rewritten query.  After a complete transformation it
            is canonical (contains no nested predicates).
        trace: human-readable steps, used by EXPLAIN and the NEST-G demo.
    """

    setup: list[TempTableDef] = field(default_factory=list)
    query: Select | None = None
    trace: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [d.describe() for d in self.setup]
        if self.query is not None:
            lines.append(to_sql(self.query))
        return "\n".join(lines)
