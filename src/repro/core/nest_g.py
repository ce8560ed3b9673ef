"""The recursive general transformation — procedure ``nest_g`` (section 9).

The paper models a nested query as a multi-way tree of query blocks and
transforms it by a *direct postorder recursive algorithm*: descend to
the innermost blocks, then, unwinding, apply the appropriate
transformation between each block and its parent:

* inner SELECT has an aggregate and a correlated join predicate →
  **type-JA**: ``nest_ja2()`` then immediately ``nest_nj()``;
* inner SELECT has an aggregate, no correlation → **type-A**: the block
  becomes a *value link* of the chain and the predicate reads a hidden
  parameter slot in its place (``PARTS.QOH < ?``); replay evaluates the
  block once per execution and binds the constant — or, for ``IN`` /
  an uncorrelated ``NOT IN``, the value list — into the slot;
* no aggregate → **type-N/J**: ``nest_nj()`` — for an ``IN``, over the
  restricted, projected, duplicate-free inner temp, merged as a
  semi-joined table (``FROM PARTS, SEMI JTEMP_3``): Kim's Lemma 1
  (``IN`` → ``=``) is a statement about sets, a semi-join is what
  ``IN`` means for bags.

Because the recursion transforms children first, a join predicate that
spans several levels (the paper's Figure 2, where block E references a
table of block A across the aggregate block B) is *inherited* upward by
the NEST-N-J merges until it sits directly inside the aggregate block —
at which point the single-level NEST-JA2 applies.  This is the paper's
resolution of Kiessling's "correlation level greater than 1" concern.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.catalog.catalog import Catalog
from repro.core.classify import ensure_transformable
from repro.core.nest_ja2 import apply_nest_ja2
from repro.core._ja_common import side_of
from repro.core.nest_nj import apply_nest_nj, inner_temp_setup, joined_plainly
from repro.core.transform import TempTableDef, TransformResult
from repro.errors import TransformError
from repro.sql.analysis import is_correlated
from repro.sql.ast import (
    Comparison,
    Expr,
    InList,
    InSubquery,
    MIRRORED_OPS,
    Parameter,
    ScalarSubquery,
    Select,
    column_refs,
    conjuncts,
    make_and,
    user_param_count,
    walk,
)
from repro.sql.printer import to_sql


@dataclass
class GeneralTransform:
    """Result of running ``nest_g`` on a query.

    Attributes:
        setup: the chain's links in build order: temp-table definitions
            and the value links of type-A blocks.
        query: the canonical (single-level) query.
        trace: step-by-step description of the transformation.
    """

    setup: list[TempTableDef]
    query: Select
    trace: list[str]


#: The step a type-JA block gets: ``(inner, fresh_name, outer_tables,
#: outer_block)`` → the rewritten, type-J inner block and
#: the temps it reads (:func:`~repro.core.nest_ja2.apply_nest_ja2`).
JaStep = Callable[..., TransformResult]


def nest_g(select: Select, catalog: Catalog) -> GeneralTransform:
    """Transform an arbitrarily nested query to canonical form.

    Reads no data: a type-A block becomes a value link, evaluated when
    the plan runs.

    Args:
        select: the (possibly nested) query as
            :func:`~repro.core.pipeline.prepare_query` returns it: bound,
            extended predicates (EXISTS/ANY/ALL) rewritten.
        catalog: resolves schemas and hands out temp names.

    Value links bind the slots after the statement's own.
    """
    return _NestG(catalog, apply_nest_ja2).run(select)


class _NestG:
    def __init__(self, catalog: Catalog, ja_step: JaStep) -> None:
        self.catalog = catalog
        self.ja_step = ja_step
        self.setup: list[TempTableDef] = []
        self.trace: list[str] = []
        self.next_slot = 0

    def run(self, select: Select) -> GeneralTransform:
        self.next_slot = user_param_count(select)
        canonical = self.transform(select, env={})
        _check_canonical(canonical)
        return GeneralTransform(setup=self.setup, query=canonical, trace=self.trace)

    # -- recursion ---------------------------------------------------------

    def transform(self, block: Select, env: dict[str, str]) -> Select:
        """Postorder transformation of one query block."""
        ensure_transformable(block)

        while True:
            # Re-normalize every iteration: a comparison of *two*
            # subqueries (the exact ALL rewrite produces one) exposes
            # its left-side subquery only after the right side has been
            # merged away.
            block = _normalize_scalar_sides(block)
            found = self._first_nested_conjunct(block)
            if found is None:
                return block
            node = found
            inner = _inner_of(node)

            inner_env = dict(env)
            for ref in block.from_tables:
                inner_env[ref.binding] = ref.name
            transformed_inner = self.transform(inner, inner_env)
            if transformed_inner is not inner:
                new_node = _with_inner(node, transformed_inner)
                block = _replace_conjunct(block, node, new_node)
                node = new_node
                inner = transformed_inner

            block = self._dispatch(block, node, inner, inner_env)

    def _dispatch(
        self,
        block: Select,
        node: Expr,
        inner: Select,
        inner_env: dict[str, str],
    ) -> Select:
        correlated = is_correlated(inner)
        aggregated = inner.has_aggregate_select()

        if aggregated and correlated:
            return self._apply_ja(block, node, inner, inner_env)
        if aggregated:
            return self._apply_a(block, node, inner)
        if isinstance(node, InSubquery) and node.negated:
            if correlated:
                raise TransformError(
                    "correlated NOT IN cannot be transformed "
                    "(no canonical join captures anti-join semantics)"
                )
            return self._apply_a(block, node, inner)
        kind = "J" if correlated else "N"
        merged_what = "inner block"
        if isinstance(node, InSubquery):
            # IN is a semi-join: merge the duplicate-free inner temp as a
            # SEMI table, so no outer row fans out (the Lemma-1 caveat).
            # A scalar comparison matches at most one row: merged flat.
            temp, over_temp = inner_temp_setup(node, self.catalog.create_temp_name)
            self.setup.append(temp)
            self.trace.append(f"NEST-{kind} inner temp: {temp.describe()}")
            block = _replace_conjunct(block, node, over_temp)
            node = over_temp
            merged_what = f"{temp.name} as a semi-join"
        merged = apply_nest_nj(block, node)
        self.trace.append(f"NEST-N-J (type-{kind}): merged {merged_what}")
        return merged

    def _apply_ja(
        self,
        block: Select,
        node: Expr,
        inner: Select,
        inner_env: dict[str, str],
    ) -> Select:
        if isinstance(node, InSubquery) and not node.negated:
            # The aggregate yields a single row, so IN degenerates to =.
            converted = Comparison(node.operand, "=", ScalarSubquery(inner))
            block = _replace_conjunct(block, node, converted)
            node = converted
        if not isinstance(node, Comparison):
            raise TransformError(
                "type-JA nesting requires a scalar comparison predicate"
            )
        # The step projects the inner columns its correlated predicates
        # read; a semi table's columns do not come out of its join, so a
        # table read there joins plainly.  (It can then fan out below
        # the aggregate: ROADMAP's open type-J-under-type-JA case.)
        local = set(inner.table_bindings)
        correlated = [
            conjunct
            for conjunct in conjuncts(inner.where)
            if any(
                side_of(ref, local) == "outer"
                for ref in column_refs(conjunct)
            )
        ]
        inner = joined_plainly(
            inner, {ref.table for c in correlated for ref in column_refs(c)}
        )
        result = self.ja_step(
            inner,
            lambda: self.catalog.create_temp_name("TEMP"),
            inner_env,
            block,
        )
        self.setup.extend(result.setup)
        self.trace.extend(result.trace)

        new_node = _with_inner(node, result.query)
        block = _replace_conjunct(block, node, new_node)
        merged = apply_nest_nj(block, new_node)
        self.trace.append("NEST-N-J: merged rewritten (type-J) inner block")
        return merged

    def _apply_a(self, block: Select, node: Expr, inner: Select) -> Select:
        """Type-A: the block becomes a value link; the predicate reads
        the slot its value binds at replay."""
        is_list = isinstance(node, InSubquery)
        link = TempTableDef(
            self.catalog.create_temp_name("ATEMP"), inner, self.next_slot, is_list
        )
        self.next_slot += 1
        self.setup.append(link)
        slot = Parameter(link.slot, is_list=is_list)
        if is_list:
            replacement: Expr = InList(node.operand, (slot,), node.negated)
        else:
            assert isinstance(node, Comparison)
            replacement = Comparison(node.left, node.op, slot)
        self.trace.append(f"NEST-A: value link {link.describe()}")
        return _replace_conjunct(block, node, replacement)

    # -- helpers -------------------------------------------------------------

    def _first_nested_conjunct(self, block: Select) -> Expr | None:
        for conjunct in conjuncts(block.where):
            if _embeds(conjunct):
                return conjunct
        return None


# ---------------------------------------------------------------------------
# AST surgery helpers
# ---------------------------------------------------------------------------


def _embeds(expr: Expr) -> bool:
    if isinstance(expr, InSubquery):
        return True
    if isinstance(expr, Comparison):
        return isinstance(expr.right, ScalarSubquery) or isinstance(
            expr.left, ScalarSubquery
        )
    return False


def _inner_of(node: Expr) -> Select:
    if isinstance(node, InSubquery):
        return node.query
    if isinstance(node, Comparison) and isinstance(node.right, ScalarSubquery):
        return node.right.query
    raise TransformError(f"not a nested predicate: {node!r}")


def _with_inner(node: Expr, new_inner: Select) -> Expr:
    if isinstance(node, InSubquery):
        return replace(node, query=new_inner)
    if isinstance(node, Comparison) and isinstance(node.right, ScalarSubquery):
        return Comparison(node.left, node.op, ScalarSubquery(new_inner), node.outer)
    raise TransformError(f"not a nested predicate: {node!r}")


def _replace_conjunct(block: Select, old: Expr, new: Expr) -> Select:
    parts: list[Expr] = []
    hit = False
    for conjunct in conjuncts(block.where):
        if conjunct is old:
            parts.append(new)
            hit = True
        else:
            parts.append(conjunct)
    if not hit:
        raise TransformError("conjunct to replace was not found")
    return replace(block, where=make_and(parts))


def _normalize_scalar_sides(block: Select) -> Select:
    """Mirror ``(SELECT ...) op x`` to ``x op' (SELECT ...)``."""
    changed = False
    parts: list[Expr] = []
    for conjunct in conjuncts(block.where):
        if (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, ScalarSubquery)
            and not isinstance(conjunct.right, ScalarSubquery)
        ):
            parts.append(
                Comparison(
                    conjunct.right,
                    MIRRORED_OPS[conjunct.op],
                    conjunct.left,
                    conjunct.outer,
                    conjunct.null_safe,
                )
            )
            changed = True
        else:
            parts.append(conjunct)
    if not changed:
        return block
    return replace(block, where=make_and(parts))


def _check_canonical(block: Select) -> None:
    for node in walk(block):
        if isinstance(node, Select) and node is not block:
            raise TransformError(
                "transformation left a nested block behind: " + to_sql(node)
            )
