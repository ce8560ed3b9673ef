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
  over one outer table or two (``U`` again, as ``X``);
* aliased bindings: the outer table as ``T T1``, and the inner table
  of a correlated type-J, type-JA, EXISTS or quantified block as
  ``U U1``, so a correlation reads ``U1.A op T1.B``.

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
        #: The outer table's binding in the query being drawn.
        self.t = "T"

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

    def inner_binding(self) -> str:
        """The inner table's binding: ``U``, or sometimes the alias
        ``U1``."""
        return "U1" if self.rng.random() < 0.3 else "U"

    @staticmethod
    def from_u(u: str) -> str:
        return "U" if u == "U" else f"U {u}"

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

    def _inner_where(self, correlated: bool, u: str = "U") -> str:
        conjuncts = []
        if correlated:
            conjuncts.append(f"{u}.A {self.op()} {self.t}.A")
        if self.rng.random() < 0.4:
            conjuncts.append(self.simple_predicate(u, TABLES["U"]))
        return " WHERE " + " AND ".join(conjuncts) if conjuncts else ""

    def _type_n(self) -> str:
        return f"{self.t}.A IN (SELECT U.A FROM U{self._inner_where(False)})"

    def _not_in(self) -> str:
        # Uncorrelated only: correlated NOT IN is documented untransformable.
        return f"{self.t}.A NOT IN (SELECT U.A FROM U{self._inner_where(False)})"

    def _type_j(self) -> str:
        t, u = self.t, self.inner_binding()
        correlation = self.rng.choice(
            (
                f"{u}.C {self.op()} {t}.B",
                f"{u}.C {self.op()} {t}.B",
                f"{u}.C <=> {t}.B",
                f"({u}.C = {t}.B OR {u}.A {self.op()} {t}.B)",
                f"{u}.C {self.op()} {t}.B AND {u}.A {self.op()} {t}.A",
            )
        )
        where = f" WHERE {correlation}"
        where += self.maybe_and_simple(u, TABLES["U"])
        item = self.rng.choice((f"{u}.A",) * 3 + (f"{u}.A + {t}.B", f"{t}.B"))
        return f"{t}.A IN (SELECT {item} FROM {self.from_u(u)}{where})"

    def _exists(self) -> str:
        u = self.inner_binding()
        keyword = "EXISTS" if self.rng.random() < 0.5 else "NOT EXISTS"
        where = self._inner_where(self.rng.random() < 0.8, u)
        return f"{keyword} (SELECT {u}.C FROM {self.from_u(u)}{where})"

    def _quantified(self) -> str:
        u = self.inner_binding()
        quantifier = self.rng.choice(("ANY", "ALL"))
        where = self._inner_where(self.rng.random() < 0.5, u)
        return (
            f"{self.t}.B {self.op()} {quantifier} "
            f"(SELECT {u}.C FROM {self.from_u(u)}{where})"
        )

    def _type_a(self) -> str:
        agg = self.maybe_arith(self.aggregate("U.C"))
        return (
            f"{self.t}.B {self.op()} "
            f"(SELECT {agg} FROM U{self._inner_where(False)})"
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
            f"{self.t}.B {self.op()} (SELECT {agg} FROM U WHERE U.C IN "
            f"(SELECT U2.C FROM U U2 WHERE {correlation}))"
        )

    def _type_ja(self) -> str:
        u = self.inner_binding()
        agg = self.aggregate(f"{u}.C")
        where = f" WHERE {u}.A {self.op()} {self.t}.A"
        where += self.maybe_and_simple(u, TABLES["U"])
        return f"{self.t}.B {self.op()} (SELECT {agg} FROM {self.from_u(u)}{where})"

    # -- whole queries ---------------------------------------------------

    def query(self) -> str:
        roll = self.rng.random()
        if roll < 0.15:
            self.t = "T"
            return self._flat_query()
        self.t = t = "T1" if self.rng.random() < 0.3 else "T"
        conjuncts = [self.nested_predicate()]
        if self.rng.random() < 0.4:
            conjuncts.append(self.simple_predicate(t, TABLES["T"]))
        tables = "T" if t == "T" else f"T {t}"
        if self.rng.random() < 0.25:
            # A second outer table: every T row once per partner.
            tables += ", U X"
            conjuncts.append(f"{t}.A {self.rng.choice(('=', '<='))} X.A")
        self.rng.shuffle(conjuncts)
        # What the root does with the rows the predicates let through.
        select, tail = f"{t}.A, {t}.B", ""
        roll = self.rng.random()
        if roll < 0.4:
            select = self.rng.choice(_AGGS).format(col=f"{t}.B")
            if roll < 0.2:
                select, tail = f"{t}.A, {select}", f" GROUP BY {t}.A"
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
