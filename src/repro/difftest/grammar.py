"""Seeded random generator for differential-test cases.

A :class:`Case` is a (schema, data, query) triple.  The generator is
driven by ``random.Random`` (not wall-clock entropy) so a seed fully
determines the run — ``python -m repro difftest --seed 0`` is
reproducible, and a failing case prints its seed and index.

The grammar deliberately concentrates on the paper's hard spots:

* NULLs appear in every column (the COUNT-bug and three-valued-logic
  territory);
* duplicate-heavy outer relations (Kim's Lemma 1 multiplicity caveat);
* correlated aggregates over every aggregate function, COUNT(*) and
  DISTINCT variants, with *non-equality* correlation operators
  (section 5.3's operator bug);
* expressions over an aggregate (``COUNT(*) + 1``, ``-SUM(x)``) in
  flat and type-A blocks: an empty group's value is then the
  expression applied to COUNT = 0 or to a NULL;
* aggregates over an expression (``SUM(x * 2)``, ``MAX(x + 1)``) in
  flat, type-A and type-JA blocks, and an aliased flat item the ORDER
  BY names;
* EXISTS / NOT EXISTS / ANY / ALL with every comparison operator
  (section 8), including over empty inner sets;
* uncorrelated NOT IN (NEST-A territory) and plain type-N/J nesting;
* type-J ``IN`` the ways a semi-join must get right and a flat merge
  gets wrong: theta-, ``<=>``- and disjunction-correlated, an item that
  reads an outer column — under plain, aggregated and grouped roots,
  over one outer table or two (``U`` again, as ``X``).

Data is integer-only over a tiny domain: small domains force
duplicates and join collisions, and they sidestep SQLite type-affinity
noise, so every divergence is a real semantics difference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import schema
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

#: column layout of every generated case.
TABLES = {"T": ("A", "B"), "U": ("A", "C")}

_OPS = ("=", "<>", "<", "<=", ">", ">=")
_AGGS = (
    "COUNT({col})",
    "COUNT(*)",
    "COUNT(DISTINCT {col})",
    "SUM({col})",
    "SUM(DISTINCT {col})",
    "MIN({col})",
    "MAX({col})",
    "AVG({col})",
    "AVG(DISTINCT {col})",
)


@dataclass
class Case:
    """One differential-test input: rows per table plus a query."""

    rows: dict[str, list[tuple]]
    sql: str
    seed: int | None = None
    index: int | None = None

    def build_catalog(self, buffer_pages: int = 8) -> Catalog:
        catalog = Catalog(BufferPool(DiskManager(), capacity=buffer_pages))
        for name, columns in TABLES.items():
            catalog.create_table(schema(name, *columns))
            catalog.insert(name, self.rows.get(name, []))
        return catalog

    def describe(self) -> str:
        lines = []
        for name, columns in TABLES.items():
            rows = self.rows.get(name, [])
            lines.append(f"{name}({', '.join(columns)}) = {rows!r}")
        lines.append(f"SQL: {self.sql}")
        return "\n".join(lines)


class CaseGenerator:
    """Draws random cases from the grammar, deterministically by seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    # -- data ------------------------------------------------------------

    def value(self, null_weight: float = 0.2) -> int | None:
        if self.rng.random() < null_weight:
            return None
        return self.rng.randint(0, 3)

    def rows_for(self, width: int) -> list[tuple]:
        count = self.rng.randint(0, 6)
        rows = [
            tuple(self.value() for _ in range(width)) for _ in range(count)
        ]
        # Duplicate-heavy: sometimes replay entire rows verbatim.
        if rows and self.rng.random() < 0.4:
            for _ in range(self.rng.randint(1, 3)):
                rows.append(self.rng.choice(rows))
        return rows

    # -- query fragments -------------------------------------------------

    def op(self) -> str:
        return self.rng.choice(_OPS)

    def simple_predicate(self, binding: str, columns: tuple[str, ...]) -> str:
        column = f"{binding}.{self.rng.choice(columns)}"
        roll = self.rng.random()
        if roll < 0.2:
            negated = " NOT" if self.rng.random() < 0.5 else ""
            return f"{column} IS{negated} NULL"
        return f"{column} {self.op()} {self.rng.randint(0, 3)}"

    def aggregate(self, col: str) -> str:
        """An aggregate call over ``col``, its argument sometimes an
        expression: ``col * k`` or ``col + k``."""
        roll = self.rng.random()
        if roll < 0.15:
            col = f"{col} * {self.rng.randint(2, 3)}"
        elif roll < 0.3:
            col = f"{col} + {self.rng.randint(1, 3)}"
        return self.rng.choice(_AGGS).format(col=col)

    def maybe_arith(self, agg: str) -> str:
        """``agg``, sometimes under arithmetic: ``+ k``, ``* k`` or
        negated."""
        roll = self.rng.random()
        if roll < 0.15:
            return f"{agg} + {self.rng.randint(1, 3)}"
        if roll < 0.25:
            return f"{agg} * {self.rng.randint(2, 3)}"
        if roll < 0.3:
            return f"-{agg}"
        return agg

    def maybe_and_simple(self, binding: str, columns: tuple[str, ...]) -> str:
        if self.rng.random() < 0.4:
            return f" AND {self.simple_predicate(binding, columns)}"
        return ""

    # -- nested predicates (inner block always over U) -------------------

    def nested_predicate(self) -> str:
        produce = self.rng.choice(
            (
                self._type_n,
                self._not_in,
                self._type_j,
                self._exists,
                self._quantified,
                self._type_a,
                self._type_a_over_in,
                self._type_ja,
            )
        )
        return produce()

    def _inner_where(self, correlated: bool) -> str:
        conjuncts = []
        if correlated:
            conjuncts.append(f"U.A {self.op()} T.A")
        if self.rng.random() < 0.4:
            conjuncts.append(self.simple_predicate("U", TABLES["U"]))
        return " WHERE " + " AND ".join(conjuncts) if conjuncts else ""

    def _type_n(self) -> str:
        return f"T.A IN (SELECT U.A FROM U{self._inner_where(False)})"

    def _not_in(self) -> str:
        # Uncorrelated only: correlated NOT IN is documented untransformable.
        return f"T.A NOT IN (SELECT U.A FROM U{self._inner_where(False)})"

    def _type_j(self) -> str:
        correlation = self.rng.choice(
            (
                f"U.C {self.op()} T.B",
                f"U.C {self.op()} T.B",
                "U.C <=> T.B",
                f"(U.C = T.B OR U.A {self.op()} T.B)",
                f"U.C {self.op()} T.B AND U.A {self.op()} T.A",
            )
        )
        where = f" WHERE {correlation}"
        where += self.maybe_and_simple("U", TABLES["U"])
        item = self.rng.choice(("U.A", "U.A", "U.A", "U.A + T.B", "T.B"))
        return f"T.A IN (SELECT {item} FROM U{where})"

    def _exists(self) -> str:
        keyword = "EXISTS" if self.rng.random() < 0.5 else "NOT EXISTS"
        where = self._inner_where(self.rng.random() < 0.8)
        return f"{keyword} (SELECT U.C FROM U{where})"

    def _quantified(self) -> str:
        quantifier = self.rng.choice(("ANY", "ALL"))
        where = self._inner_where(self.rng.random() < 0.5)
        return (
            f"T.B {self.op()} {quantifier} (SELECT U.C FROM U{where})"
        )

    def _type_a(self) -> str:
        agg = self.maybe_arith(self.aggregate("U.C"))
        return (
            f"T.B {self.op()} (SELECT {agg} FROM U{self._inner_where(False)})"
        )

    def _type_a_over_in(self) -> str:
        # Type-A for the root, but its block holds an IN correlated to
        # the block itself: NEST-A evaluates a block with a semi table.
        # A bag aggregate sees a semi table that fans out.
        agg = self.rng.choice(("COUNT(U.C)", "COUNT(*)", "SUM(U.C)"))
        theta = self.rng.choice(("<", "<=", ">", ">=", "<>"))
        correlation = self.rng.choice(
            (f"U2.A {theta} U.A", "U2.A <=> U.A", f"U2.A {theta} U.A AND U2.C >= 1")
        )
        return (
            f"T.B {self.op()} (SELECT {agg} FROM U WHERE U.C IN "
            f"(SELECT U2.C FROM U U2 WHERE {correlation}))"
        )

    def _type_ja(self) -> str:
        agg = self.aggregate("U.C")
        where = f" WHERE U.A {self.op()} T.A"
        where += self.maybe_and_simple("U", TABLES["U"])
        return f"T.B {self.op()} (SELECT {agg} FROM U{where})"

    # -- whole queries ---------------------------------------------------

    def query(self) -> str:
        roll = self.rng.random()
        if roll < 0.15:
            return self._flat_query()
        conjuncts = [self.nested_predicate()]
        if self.rng.random() < 0.4:
            conjuncts.append(self.simple_predicate("T", TABLES["T"]))
        tables = "T"
        if self.rng.random() < 0.25:
            # A second outer table: every T row once per partner.
            tables = "T, U X"
            conjuncts.append(f"T.A {self.rng.choice(('=', '<='))} X.A")
        self.rng.shuffle(conjuncts)
        # What the root does with the rows the predicates let through.
        select, tail = "T.A, T.B", ""
        roll = self.rng.random()
        if roll < 0.4:
            select = self.rng.choice(_AGGS).format(col="T.B")
            if roll < 0.2:
                select, tail = f"T.A, {select}", " GROUP BY T.A"
        return (
            f"SELECT {select} FROM {tables} WHERE "
            + " AND ".join(conjuncts)
            + tail
        )

    def _flat_query(self) -> str:
        roll = self.rng.random()
        where = ""
        if self.rng.random() < 0.5:
            where = f" WHERE {self.simple_predicate('T', TABLES['T'])}"
        if roll < 0.4:
            agg = self.maybe_arith(self.aggregate("T.B"))
            return f"SELECT T.A, {agg} FROM T{where} GROUP BY T.A"
        if roll < 0.7:
            agg = self.maybe_arith(self.aggregate("T.B"))
            return f"SELECT {agg} FROM T{where}"
        distinct = "DISTINCT " if self.rng.random() < 0.5 else ""
        if roll < 0.85:
            return f"SELECT {distinct}T.A AS X, T.B FROM T{where} ORDER BY X"
        return f"SELECT {distinct}T.A, T.B FROM T{where}"

    def case(self, index: int | None = None) -> Case:
        rows = {
            name: self.rows_for(len(columns))
            for name, columns in TABLES.items()
        }
        return Case(rows=rows, sql=self.query(), seed=self.seed, index=index)
