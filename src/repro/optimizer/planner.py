"""Cost-based strategy selection for nested queries.

The paper's position (section 1) is that a transformed query "could
then be examined by a query optimizer, such as that described in
[SEL 79], for alternative methods of processing".  This module is that
optimizer in miniature: it estimates, from catalog statistics and the
section-7 formulas, the page-I/O cost of

* nested iteration (buffer-aware, §7's ``Pi + f(i)·Ni·Pj`` vs ``Pi+Pj``),
* NEST-N-J transformation + merge join (type-N/J predicates), and
* the four NEST-JA2 evaluation variants (type-A/JA predicates),

and picks the cheapest.  Selectivity defaults follow System R's classic
magic numbers [SEL 79]: 1/10 for an equality predicate on a non-key
column, 1/3 for a range predicate.

:class:`Planner` estimates; ``Engine.run(..., method="cost")`` acts on
the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core.classify import NestedPredicate, NestingType, classify_block
from repro.core.pipeline import prepare_query
from repro.engine.relation import temp_rows_per_page
from repro.errors import PlanError
from repro.optimizer.cost import (
    CostParameters,
    hash_join_cost,
    ja2_costs,
    ja2_hash_cost,
    nested_iteration_cost_auto,
    transform_nj_cost,
)
from repro.sql.ast import (
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Select,
    binding_tables,
    column_refs,
    conjuncts,
)
from repro.sql.parser import parse

#: System R's default selectivities [SEL 79].
EQUALITY_SELECTIVITY = 0.10
RANGE_SELECTIVITY = 1.0 / 3.0
IN_LIST_SELECTIVITY = 0.25


@dataclass
class PlanChoice:
    """The planner's verdict for one query.

    Attributes:
        method: ``"nested_iteration"`` or ``"transform"``.
        join_method: join method for the transformed plan (``"merge"``
            or ``"nested"``); None when nested iteration wins.
        estimated_cost: page I/Os of the chosen strategy.
        alternatives: every strategy's estimate, for EXPLAIN output.
        parameters: the cost-model inputs the estimate used.
    """

    method: str
    join_method: str | None
    estimated_cost: float
    alternatives: dict[str, float] = field(default_factory=dict)
    parameters: CostParameters | None = None

    def describe(self) -> str:
        lines = [
            f"chosen: {self.method}"
            + (f" ({self.join_method} join)" if self.join_method else "")
            + f", estimated {self.estimated_cost:,.1f} page I/Os"
        ]
        for name in sorted(self.alternatives, key=self.alternatives.get):
            lines.append(f"  {name}: {self.alternatives[name]:,.1f}")
        return "\n".join(lines)


class Planner:
    """Estimates evaluation costs for single-level-nested queries.

    Estimation handles the common shape the paper analyzes — one outer
    relation, one nested predicate whose inner block scans one relation.
    Queries outside that shape get a conservative default (transform
    with merge joins), which is also what ``method="auto"`` does.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- public API --------------------------------------------------------

    def choose(self, query: str | Select) -> PlanChoice:
        """Estimate all strategies and pick the cheapest.

        Text is parsed and prepared here; a tree is
        taken as what ``prepare_query`` returned — ``build_plan``
        prepares a statement once and costs the very tree it runs.
        """
        if isinstance(query, str):
            query = prepare_query(parse(query), self.catalog)
        try:
            return self._choose_analyzed(query)
        except PlanError:
            return PlanChoice(
                method="transform",
                join_method="merge",
                estimated_cost=math.inf,
                alternatives={},
            )

    # -- analysis ------------------------------------------------------------

    def _choose_analyzed(self, select: Select) -> PlanChoice:
        nested = classify_block(select)
        if len(nested) != 1:
            raise PlanError("planner estimates single-nested-predicate queries")
        predicate = nested[0]
        # Statistics are kept per table; a reference names its binding.
        tables = binding_tables(select)
        params = self._parameters(select, predicate, tables)

        alternatives: dict[str, float] = {
            "nested_iteration": nested_iteration_cost_auto(params)
        }
        indexed = self._indexed_ni_cost(predicate, params)
        if indexed is not None:
            alternatives["nested_iteration (index probes)"] = indexed
        if predicate.nesting in (NestingType.TYPE_N, NestingType.TYPE_J):
            alternatives["transform (merge join)"] = transform_nj_cost(
                params.pi, params.pj, params.buffer_pages
            )
            alternatives["transform (hash join)"] = hash_join_cost(
                params.pi, params.pj
            )
        else:
            breakdown = ja2_costs(params)
            alternatives["transform (merge+merge)"] = breakdown.merge_merge
            alternatives["transform (merge+nested)"] = breakdown.merge_nested
            alternatives["transform (nested+merge)"] = breakdown.nested_merge
            alternatives["transform (nested+nested)"] = breakdown.nested_nested
            alternatives["transform (hash)"] = ja2_hash_cost(params)

        best_name = min(alternatives, key=alternatives.get)
        if best_name.startswith("nested_iteration"):
            # The executor probes registered indexes automatically, so
            # both nested-iteration alternatives run the same way.
            method, join_method = "nested_iteration", None
        else:
            method = "transform"
            if "hash" in best_name:
                join_method = "hash"
            elif "(nested" in best_name:
                join_method = "nested"
            else:
                join_method = "merge"
        return PlanChoice(
            method=method,
            join_method=join_method,
            estimated_cost=alternatives[best_name],
            alternatives=alternatives,
            parameters=params,
        )

    def _parameters(
        self, select: Select, predicate: NestedPredicate, tables: dict[str, str]
    ) -> CostParameters:
        outer = self._single_table(select, "outer")
        inner = self._single_table(predicate.query, "inner")

        outer_entry = self.catalog.get(outer)
        inner_entry = self.catalog.get(inner)
        pi = max(1, outer_entry.heap.num_pages)
        pj = max(1, inner_entry.heap.num_pages)
        ni = outer_entry.heap.num_rows

        selectivity = self._simple_selectivity(select, predicate, tables)
        fi_ni = max(1.0, selectivity * ni)

        # Temp-size estimates for the JA2 variants (section 7 notation).
        per_page_1col = temp_rows_per_page(1)
        per_page_2col = temp_rows_per_page(2)
        distinct_outer = max(
            1.0, min(fi_ni, self._distinct_outer_join_values(predicate, fi_ni, tables))
        )
        pt2 = max(1.0, distinct_outer / per_page_1col)
        inner_sel = self._inner_selectivity(predicate.query, tables)
        inner_kept = max(1.0, inner_sel * inner_entry.heap.num_rows)
        pt3 = max(1.0, inner_kept / per_page_2col)
        pt4 = max(pt2, pt3)
        pt = max(1.0, distinct_outer / per_page_2col)

        return CostParameters(
            pi=pi,
            pj=pj,
            pt2=pt2,
            pt3=pt3,
            pt4=pt4,
            pt=pt,
            buffer_pages=self.catalog.buffer.capacity,
            fi_ni=fi_ni,
            nt2=distinct_outer,
        )

    def _single_table(self, block: Select, label: str) -> str:
        if len(block.from_tables) != 1:
            raise PlanError(f"planner estimates single-{label}-relation blocks")
        name = block.from_tables[0].name
        if not self.catalog.has_table(name):
            raise PlanError(f"unknown table {name}")
        return name

    def _simple_selectivity(
        self, select: Select, predicate: NestedPredicate, tables: dict[str, str]
    ) -> float:
        """Combined selectivity of the outer block's simple predicates."""
        selectivity = 1.0
        for conjunct in conjuncts(select.where):
            if conjunct is predicate.node:
                continue
            selectivity *= self._conjunct_selectivity(conjunct, tables)
        return selectivity

    def _inner_selectivity(self, inner: Select, tables: dict[str, str]) -> float:
        """Selectivity of the inner block's non-correlated predicates."""
        local = set(inner.table_bindings)
        selectivity = 1.0
        for conjunct in conjuncts(inner.where):
            if not {ref.table for ref in column_refs(conjunct)} <= local:
                continue  # correlated join predicate
            selectivity *= self._conjunct_selectivity(conjunct, tables)
        return selectivity

    def _conjunct_selectivity(self, conjunct: Expr, tables: dict[str, str]) -> float:
        if isinstance(conjunct, Comparison):
            column, op, constant = self._column_op_constant(conjunct)
            if column is None:
                return 1.0
            stats = self._column_statistics(tables[column.table], column.column)
            if op == "=":
                if stats is not None:
                    return stats.equality_selectivity()
                return EQUALITY_SELECTIVITY
            if op == "<>":
                if stats is not None:
                    return 1.0 - stats.equality_selectivity()
                return 1.0 - EQUALITY_SELECTIVITY
            if stats is not None:
                interpolated = stats.range_selectivity(op, constant)
                if interpolated is not None:
                    return interpolated
            return RANGE_SELECTIVITY
        if isinstance(conjunct, Between):
            return RANGE_SELECTIVITY
        if isinstance(conjunct, InList):
            return min(1.0, IN_LIST_SELECTIVITY)
        return 1.0

    def _column_op_constant(
        self, conjunct: Comparison
    ) -> tuple[ColumnRef | None, str, object]:
        """Normalize ``col op const`` / ``const op col`` comparisons."""
        from repro.sql.ast import MIRRORED_OPS

        if isinstance(conjunct.left, ColumnRef) and isinstance(
            conjunct.right, Literal
        ):
            return conjunct.left, conjunct.op, conjunct.right.value
        if isinstance(conjunct.right, ColumnRef) and isinstance(
            conjunct.left, Literal
        ):
            return (
                conjunct.right,
                MIRRORED_OPS[conjunct.op],
                conjunct.left.value,
            )
        return None, conjunct.op, None

    def _column_statistics(self, table: str, column: str):
        """Column statistics, when ANALYZE has been run on the table."""
        stats = self.catalog.statistics.get(table)
        if stats is None:
            return None
        return stats.columns.get(column)

    def _indexed_ni_cost(
        self, predicate: NestedPredicate, params: CostParameters
    ) -> float | None:
        """Cost of nested iteration via an index on the inner join
        column, when such an index is registered."""
        from repro.core._ja_common import decompose_inner_block
        from repro.errors import TransformError
        from repro.optimizer.cost import nested_iteration_cost_indexed

        if not predicate.nesting.is_correlated:
            return None
        try:
            parts = decompose_inner_block(predicate.query)
        except TransformError:
            return None
        if len(parts.join_preds) != 1 or parts.join_preds[0].op != "=":
            return None
        # The inner block scans one table (_parameters), which the
        # predicate's inner column binds to.
        inner_col = parts.join_preds[0].inner_col
        inner_table = predicate.query.from_tables[0].name
        if self.catalog.index_for(inner_table, inner_col.column) is None:
            return None

        inner_rows = self.catalog.get(inner_table).heap.num_rows
        stats = self._column_statistics(inner_table, inner_col.column)
        if stats is not None and stats.distinct:
            matches = inner_rows / stats.distinct
        else:
            matches = inner_rows / max(1.0, params.nt2)
        return nested_iteration_cost_indexed(params, matches)

    def _distinct_outer_join_values(
        self, predicate: NestedPredicate, fi_ni: float, tables: dict[str, str]
    ) -> float:
        """Distinct values of the outer join column — NEST-JA2's TEMP1
        cardinality.  Exact when statistics exist, else a mild
        duplicate allowance over f(i)·Ni."""
        from repro.core._ja_common import decompose_inner_block
        from repro.errors import TransformError

        try:
            parts = decompose_inner_block(predicate.query)
        except TransformError:
            return fi_ni * 0.9
        distinct = 0.0
        for pred in parts.join_preds:
            outer_col = pred.outer_col
            stats = self._column_statistics(tables[outer_col.table], outer_col.column)
            if stats is None:
                return fi_ni * 0.9
            distinct = max(distinct, float(stats.distinct))
        return distinct if distinct else fi_ni * 0.9
