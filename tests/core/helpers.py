"""Shared helpers for core-transformation tests."""

from collections import Counter

from repro.config import ExecConfig
from repro.core.nest_g import nest_g
from repro.core.nest_nj import apply_nest_nj
from repro.core.pipeline import Engine, prepare_query
from repro.engine.params import bound_params
from repro.engine.relation import Relation
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.plan import install_link, link_contents, run_transform
from repro.sql.ast import Select, column_refs, conjuncts, walk
from repro.sql.parser import parse


def run_both(catalog, sql, **engine_kwargs):
    """Run a query by nested iteration and by transformation."""
    engine = Engine(catalog, **engine_kwargs)
    ni = engine.run(sql, method="nested_iteration")
    tr = engine.run(sql, method="transform")
    return ni, tr


def assert_equivalent(catalog, sql, **engine_kwargs):
    """Transformed result must equal the nested-iteration oracle (bag)."""
    ni, tr = run_both(catalog, sql, **engine_kwargs)
    assert Counter(tr.result.rows) == Counter(ni.result.rows), (
        f"transform={sorted(tr.result.rows)} oracle={sorted(ni.result.rows)}"
    )
    return ni, tr


def transform_with(catalog, sql, algorithm=nest_g):
    """``algorithm`` — NEST-G or a section 5 demonstrator
    (``kim_nest_g``, ``naive_outer_nest_g``) — over the prepared
    ``sql``.  Builds nothing."""
    return algorithm(prepare_query(parse(sql), catalog), catalog)


def run_with(catalog, sql, algorithm, join_method="merge"):
    """The report of ``algorithm``'s plan for ``sql``, replayed once as
    ``Engine.run`` replays a plan (``run_transform``)."""
    return run_transform(catalog, transform_with(catalog, sql, algorithm), join_method)


def literal_nest_nj(catalog, sql, join_method="merge"):
    """Rows of Kim's literal NEST-N-J (section 3.1: merge the FROM
    clauses, ``IN`` → ``=``) applied to the one nested predicate of
    ``sql`` and run as the flat join it is — the Lemma-1 caveat, shown
    by calling the pure function; NEST-G merges a semi table instead."""
    block = prepare_query(parse(sql), catalog)
    (node,) = [
        conjunct
        for conjunct in conjuncts(block.where)
        if any(isinstance(n, Select) for n in walk(conjunct))
    ]
    executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
    return executor.execute(apply_nest_nj(block, node), Relation.to_list)


def assert_in_merges_are_semi(plan):
    """One rule, no fork: every ``IN`` merge NEST-G makes is a semi
    table, except inside a DISTINCT definition and where a NEST-JA2
    step projects the inner temp's column.  Returns the semi tables."""
    semi = []
    for block in (*(d.query for d in plan.setup), plan.final_query):
        for ref in block.from_tables:
            if not ref.name.startswith(("NTEMP", "JTEMP")):
                assert not ref.semi, ref
                continue
            projected = any(
                column.table == ref.binding
                for item in block.items
                for column in column_refs(item.expr)
            )
            assert ref.semi == (not block.distinct and not projected), (
                plan.describe()
            )
            semi.extend([ref.name] if ref.semi else [])
    return semi


def build_temps(catalog, transform, join_method="merge"):
    """Install a GeneralTransform's links (temps, and value links bound
    for the links after them).

    Returns {name: list of rows} for inspection against the paper's
    printed temp-table contents.
    """
    with bound_params(()):
        for link in transform.setup:
            executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
            install_link(executor, link, link.query)
        return {
            link.name: link_contents(catalog, link)[0] for link in transform.setup
        }
