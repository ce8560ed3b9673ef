"""Unit tests for the Kim-bug lint (KB001–KB003).

Each rule must fire on the plan of the section 5 demonstrator that
exhibits the paper's bug (``kim_nest_g``, ``naive_outer_nest_g``) and
stay silent on NEST-G's own output.
"""

from dataclasses import replace
from types import SimpleNamespace

from repro.analysis.lint import lint_transform
from repro.core.nest_g import nest_g
from repro.core.nest_ja import kim_nest_g, naive_outer_nest_g
from repro.core.pipeline import Engine
from repro.sql.ast import And, Comparison
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    KIESSLING_Q2_COUNT_STAR,
    QUERY_Q5,
    load_kiessling_instance,
    load_operator_bug_instance,
)

from tests.core.helpers import transform_with


def lint_rules(catalog, sql, algorithm):
    transform = transform_with(catalog, sql, algorithm)
    return lint_transform(transform, catalog).rules()


def _strip_null_safe(expr):
    """Downgrade every null-safe equality in ``expr`` to a plain =."""
    if isinstance(expr, And):
        return And(tuple(_strip_null_safe(op) for op in expr.operands))
    if isinstance(expr, Comparison) and expr.null_safe:
        return replace(expr, null_safe=False)
    return expr


def with_plain_rejoin(transform):
    """The transform with its canonical rejoin made non-null-safe."""
    broken = replace(
        transform.query, where=_strip_null_safe(transform.query.where)
    )
    return SimpleNamespace(setup=transform.setup, query=broken)


class TestKB001CountBug:
    def test_kim_count_temp_fires(self):
        # Section 5.1: the temp groups SUPPLY alone; parts with no
        # shipments have no group and Q2 loses them.
        catalog = load_kiessling_instance()
        assert "KB001" in lint_rules(catalog, KIESSLING_Q2, kim_nest_g)

    def test_kim_count_star_fires(self):
        catalog = load_kiessling_instance()
        assert "KB001" in lint_rules(catalog, KIESSLING_Q2_COUNT_STAR, kim_nest_g)

    def test_ja2_is_silent(self):
        catalog = load_kiessling_instance()
        assert "KB001" not in lint_rules(catalog, KIESSLING_Q2, nest_g)

    def test_plain_rejoin_on_nullable_key_fires(self):
        # Half-fixed shape: outer join built the COUNT=0 groups, but a
        # plain `=` on a *nullable* group key drops the NULL-keyed one
        # again.  Correlating on QOH (not a key, so nullable) and then
        # stripping the null-safe rejoin must fire.
        catalog = load_kiessling_instance()
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.QUAN = PARTS.QOH)"
        )
        transform = transform_with(catalog, sql, nest_g)
        findings = lint_transform(with_plain_rejoin(transform), catalog)
        assert "KB001" in findings.rules()

    def test_plain_rejoin_on_not_null_key_is_silent(self):
        # Same surgery on Kiessling's Q2: the group key is PARTS.PNUM,
        # a primary-key column the inference proves NOT NULL — plain
        # `=` is safe there and the rule must hold its fire.
        catalog = load_kiessling_instance()
        transform = transform_with(catalog, KIESSLING_Q2, nest_g)
        findings = lint_transform(with_plain_rejoin(transform), catalog)
        assert "KB001" not in findings.rules()


class TestKB002OperatorBug:
    def test_kim_non_equality_rejoin_fires(self):
        # Section 5.3: Q5 correlates with `<`; Kim's rejoin keeps the
        # operator against the temp's group key.
        catalog = load_operator_bug_instance()
        assert "KB002" in lint_rules(catalog, QUERY_Q5, kim_nest_g)

    def test_ja2_moves_the_operator_into_the_temp(self):
        catalog = load_operator_bug_instance()
        assert "KB002" not in lint_rules(catalog, QUERY_Q5, nest_g)

    def test_equality_correlation_never_fires(self):
        catalog = load_kiessling_instance()
        assert "KB002" not in lint_rules(catalog, KIESSLING_Q2, kim_nest_g)


class TestKB003DuplicatesBug:
    def test_kim_outer_without_distinct_fires(self):
        # Section 5.4: joining the raw outer projection (duplicates
        # intact) into the aggregating temp inflates COUNT.
        catalog = load_kiessling_instance()
        assert "KB003" in lint_rules(catalog, KIESSLING_Q2, naive_outer_nest_g)

    def test_ja2_distinct_projection_cuts_the_chain(self):
        catalog = load_kiessling_instance()
        assert "KB003" not in lint_rules(catalog, KIESSLING_Q2, nest_g)

    def test_plain_kim_single_source_temp_is_exempt(self):
        # Kim's original temp groups the inner relation alone; its
        # duplicates are the data being aggregated, not inflation.
        catalog = load_kiessling_instance()
        assert "KB003" not in lint_rules(catalog, KIESSLING_Q2, kim_nest_g)


class TestJa2CleanAcrossJoinMethods:
    def test_no_errors_for_any_join_method(self):
        from repro.analysis.verifier import verify_transform

        for join_method in ("merge", "nested", "hash"):
            catalog = load_kiessling_instance()
            engine = Engine(catalog, join_method=join_method)
            transform = engine.transform(KIESSLING_Q2)
            findings, temps = verify_transform(
                transform, catalog, join_method=join_method
            )
            findings.extend(lint_transform(transform, catalog, temps))
            assert not findings.errors, join_method
