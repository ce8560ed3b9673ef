"""Property test: the nullability inference is *sound*.

The inference promises that a column it marks NOT NULL never produces
NULL at runtime (the reverse — nullable columns actually producing
NULLs — is allowed: the pass is sound, not complete).  Hypothesis
drives the difftest grammar, which was built to stress exactly the
NULL-heavy territory the paper cares about: COUNT over empty groups,
correlated aggregates, NOT IN over NULLs, duplicate-heavy relations.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.nullability import infer_query_nullability
from repro.core.pipeline import Engine
from repro.difftest.grammar import CaseGenerator
from repro.errors import ReproError
from repro.sql.parser import parse


@given(seed=st.integers(0, 2**16), index=st.integers(0, 31))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_not_null_columns_never_produce_null(seed, index):
    case = CaseGenerator(seed).case(index)
    catalog = case.build_catalog()
    select = parse(case.sql)
    inferred = infer_query_nullability(select, catalog)

    engine = Engine(catalog)
    try:
        report = engine.run(select, method="nested_iteration")
    except ReproError:
        assume(False)  # outside the engine's reach: property is vacuous
        return

    for position, (name, fact) in enumerate(inferred):
        if fact.nullable:
            continue
        for row in report.result.rows:
            assert row[position] is not None, (
                f"column {name} inferred NOT NULL but row {row} has NULL "
                f"at position {position} for query: {case.sql}"
            )
