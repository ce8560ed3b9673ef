"""Fuzzing NEST-G: random multi-level nested queries vs. the oracle.

A Hypothesis strategy builds random query trees (depth ≤ 3) over three
small relations, mixing type-A/N/J/JA predicates, aggregates, operators
and simple predicates; every generated query is evaluated by nested
iteration and by the full transformation pipeline, and the result bags
must match.

The generator stays inside the semantic space where full bag
equivalence is guaranteed (each constraint mirrors a documented
caveat):

* aggregate blocks that contain further nesting use MAX/MIN only —
  duplicate-*insensitive* aggregates, immune to the fan-out of an
  ``IN`` merge whose semi mark an enclosing NEST-JA2 step had to clear
  (COUNT/SUM/AVG appear in leaf aggregate blocks);
* correlated NOT IN is never generated (no canonical form exists);
* scalar comparisons always face aggregate blocks (cardinality ≤ 1).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import schema
from repro.core.pipeline import Engine
from repro.workloads.paper_data import fresh_catalog

TABLES = ("R1", "R2", "R3")
COLUMNS = ("K", "V")

#: Duplicate-insensitive aggregates, safe above further nesting.
SAFE_AGGS = ("MAX", "MIN")
ALL_AGGS = ("MAX", "MIN", "COUNT", "SUM")

COMPARISON_OPS = ("=", "<", "<=", ">", ">=", "<>")


def make_catalog(rows_by_table):
    catalog = fresh_catalog(buffer_pages=4)
    for table in TABLES:
        catalog.create_table(schema(table, *COLUMNS), rows_per_page=2)
        catalog.insert(table, rows_by_table[table])
    return catalog


@st.composite
def query_trees(draw, depth, alias_counter, outer_alias=None):
    """Generate the SQL text of one query block.

    Args:
        depth: remaining nesting budget.
        alias_counter: mutable one-element list for fresh aliases.
        outer_alias: the enclosing block's binding, for correlated
            predicates (None at the root).
    """
    alias_counter[0] += 1
    alias = f"A{alias_counter[0]}"
    table = draw(st.sampled_from(TABLES))

    conjuncts = []

    # Optional simple predicate.
    if draw(st.booleans()):
        column = draw(st.sampled_from(COLUMNS))
        op = draw(st.sampled_from(COMPARISON_OPS))
        value = draw(st.integers(0, 3))
        conjuncts.append(f"{alias}.{column} {op} {value}")

    # Optional correlated join predicate (type-J/JA ingredient).
    correlated = False
    if outer_alias is not None and draw(st.booleans()):
        my_col = draw(st.sampled_from(COLUMNS))
        outer_col = draw(st.sampled_from(COLUMNS))
        op = draw(st.sampled_from(("=", "<", ">")))
        conjuncts.append(f"{alias}.{my_col} {op} {outer_alias}.{outer_col}")
        correlated = True

    # Optional nested predicate.
    has_inner = depth > 0 and draw(st.booleans())
    inner_kind = None
    if has_inner:
        inner_kind = draw(st.sampled_from(("in", "scalar")))
        inner = draw(
            query_trees(
                depth=depth - 1,
                alias_counter=alias_counter,
                outer_alias=alias,
            )
        )
        probe = draw(st.sampled_from(COLUMNS))
        if inner_kind == "in":
            conjuncts.append(f"{alias}.{probe} IN ({inner['column_form']})")
        else:
            aggs = SAFE_AGGS if inner["has_nested"] else ALL_AGGS
            agg = draw(st.sampled_from(aggs))
            op = draw(st.sampled_from(COMPARISON_OPS))
            conjuncts.append(
                f"{alias}.{probe} {op} ({inner['agg_forms'][agg]})"
            )

    # SELECT clause: an aggregate when this block will be compared as a
    # scalar is decided by the *parent*; here we decide for inner use.
    # The parent passes through inner_kind; at generation time we make
    # this block aggregate-producing iff it may face a scalar operator.
    select_col = draw(st.sampled_from(COLUMNS))
    where = (" WHERE " + " AND ".join(conjuncts)) if conjuncts else ""
    body = f"FROM {table} {alias}{where}"

    # Root and IN-facing blocks return a column; scalar-facing blocks
    # must aggregate.  We cannot know our consumer here, so we return
    # both forms and let the consumer pick.
    return {
        "column_form": f"SELECT {alias}.{select_col} {body}",
        "agg_forms": {
            agg: f"SELECT {agg}({alias}.{select_col}) {body}"
            for agg in ALL_AGGS
        },
        "has_nested": has_inner or correlated,
    }


@st.composite
def nested_queries(draw):
    """A full random query: root block plus nested structure."""
    counter = [0]
    root_alias = f"A{counter[0] + 1}"

    # Build the root with a guaranteed nested predicate so every run
    # exercises the transformation.
    counter[0] += 1
    table = draw(st.sampled_from(TABLES))
    conjuncts = []
    if draw(st.booleans()):
        column = draw(st.sampled_from(COLUMNS))
        conjuncts.append(
            f"{root_alias}.{column} "
            f"{draw(st.sampled_from(COMPARISON_OPS))} {draw(st.integers(0, 3))}"
        )

    inner = draw(
        query_trees(depth=draw(st.integers(0, 2)), alias_counter=counter,
                    outer_alias=root_alias)
    )
    probe = draw(st.sampled_from(COLUMNS))
    use_in = draw(st.booleans())
    if use_in:
        conjuncts.append(f"{root_alias}.{probe} IN ({inner['column_form']})")
    else:
        # Scalar comparison: the inner must aggregate.  Blocks with
        # further nesting may only use duplicate-insensitive MAX/MIN.
        aggs = SAFE_AGGS if inner["has_nested"] else ALL_AGGS
        agg = draw(st.sampled_from(aggs))
        op = draw(st.sampled_from(COMPARISON_OPS))
        conjuncts.append(
            f"{root_alias}.{probe} {op} ({inner['agg_forms'][agg]})"
        )

    select_cols = f"{root_alias}.K, {root_alias}.V"
    where = " WHERE " + " AND ".join(conjuncts)
    return f"SELECT {select_cols} FROM {table} {root_alias}{where}"


rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=6
)


import os

#: Raise with e.g. ``REPRO_FUZZ_EXAMPLES=1000 pytest ...`` for deep runs.
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "120"))


@given(
    sql=nested_queries(),
    r1=rows_strategy,
    r2=rows_strategy,
    r3=rows_strategy,
)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
def test_random_nested_queries_match_oracle(sql, r1, r2, r3):
    from repro.errors import TransformError

    catalog = make_catalog({"R1": r1, "R2": r2, "R3": r3})
    engine = Engine(catalog)

    oracle = engine.run(sql, method="nested_iteration")
    try:
        transformed = engine.run(sql, method="transform")
    except TransformError:
        # Correlated NOT IN etc. are out of the algorithms' reach and
        # never generated; any TransformError here is a real failure.
        raise

    assert Counter(transformed.result.rows) == Counter(oracle.result.rows), sql
