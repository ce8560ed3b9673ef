"""Tests for the cost-based planner and Engine method="cost"."""

from collections import Counter

import pytest

from repro.core.pipeline import Engine
from repro.optimizer.planner import (
    EQUALITY_SELECTIVITY,
    RANGE_SELECTIVITY,
    Planner,
)
from repro.workloads.generators import (
    GENERATED_JA_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    load_kiessling_instance,
)


def big_catalog(num_supply=600, buffer_pages=4):
    spec = PartsSupplySpec(
        num_parts=40, num_supply=num_supply, rows_per_page=10,
        buffer_pages=buffer_pages, seed=51,
    )
    return build_parts_supply(spec)


def small_inner_catalog():
    # SUPPLY fits comfortably in the buffer: rescans are free.
    spec = PartsSupplySpec(
        num_parts=40, num_supply=20, rows_per_page=10, buffer_pages=8, seed=52,
    )
    return build_parts_supply(spec)


class TestPlannerChoices:
    def test_large_inner_prefers_transformation(self):
        choice = Planner(big_catalog()).choose(GENERATED_JA_QUERY)
        assert choice.method == "transform"
        assert choice.estimated_cost < choice.alternatives["nested_iteration"]

    def test_small_inner_prefers_nested_iteration(self):
        choice = Planner(small_inner_catalog()).choose(GENERATED_JA_QUERY)
        assert choice.method == "nested_iteration"

    def test_ja_choice_lists_all_variants(self):
        choice = Planner(big_catalog()).choose(GENERATED_JA_QUERY)
        variant_names = [n for n in choice.alternatives if "transform" in n]
        # The four section-7 merge/nested combinations plus the hash plan.
        assert len(variant_names) == 5
        assert "transform (hash)" in choice.alternatives

    def test_type_n_choice_lists_merge_and_hash_transform(self):
        catalog = big_catalog()
        choice = Planner(catalog).choose(
            "SELECT PNUM FROM PARTS WHERE PNUM IN "
            "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1980-01-01')"
        )
        assert "transform (merge join)" in choice.alternatives
        assert "transform (hash join)" in choice.alternatives

    def test_hash_choice_sets_hash_join_method(self):
        choice = Planner(big_catalog()).choose(GENERATED_JA_QUERY)
        if choice.method == "transform" and "hash" in min(
            (n for n in choice.alternatives if "transform" in n),
            key=choice.alternatives.get,
        ):
            assert choice.join_method == "hash"

    def test_describe_mentions_all_alternatives(self):
        choice = Planner(big_catalog()).choose(GENERATED_JA_QUERY)
        text = choice.describe()
        assert "chosen:" in text
        assert "nested_iteration" in text

    def test_simple_predicate_reduces_fi_ni(self):
        catalog = big_catalog()
        unrestricted = Planner(catalog).choose(GENERATED_JA_QUERY)
        restricted = Planner(catalog).choose(
            GENERATED_JA_QUERY.replace(
                "WHERE QOH =", "WHERE PNUM = 3 AND QOH ="
            )
        )
        ratio = (
            restricted.parameters.fi_ni / unrestricted.parameters.fi_ni
        )
        assert ratio == pytest.approx(EQUALITY_SELECTIVITY)

    def test_range_predicate_selectivity(self):
        catalog = big_catalog()
        restricted = Planner(catalog).choose(
            GENERATED_JA_QUERY.replace(
                "WHERE QOH =", "WHERE PNUM < 100 AND QOH ="
            )
        )
        base = Planner(catalog).choose(GENERATED_JA_QUERY)
        assert restricted.parameters.fi_ni == pytest.approx(
            base.parameters.fi_ni * RANGE_SELECTIVITY
        )

    def test_unsupported_shape_defaults_to_transform(self):
        catalog = big_catalog()
        choice = Planner(catalog).choose(
            "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM AND QOH IN "
            "(SELECT QUAN FROM SUPPLY X WHERE X.PNUM = PARTS.PNUM)"
        )
        assert choice.method == "transform"


class TestCostBasedExecution:
    def test_cost_method_runs_and_matches_oracle(self):
        catalog = load_kiessling_instance()
        engine = Engine(catalog)
        oracle = engine.run(KIESSLING_Q2, method="nested_iteration")
        chosen = engine.run(KIESSLING_Q2, method="cost")
        assert Counter(chosen.result.rows) == Counter(oracle.result.rows)
        assert any("chosen:" in line for line in chosen.trace)

    def test_cost_method_picks_cheap_strategy_at_scale(self):
        catalog = big_catalog()
        engine = Engine(catalog)
        catalog.buffer.evict_all()
        catalog.buffer.reset_stats()
        report = engine.run(GENERATED_JA_QUERY, method="cost")
        assert report.method == "transform"

    def test_cost_method_respects_small_buffer_economy(self):
        catalog = small_inner_catalog()
        engine = Engine(catalog)
        report = engine.run(GENERATED_JA_QUERY, method="cost")
        assert report.method == "nested_iteration"

    def test_planner_agrees_with_measurement(self):
        """On both extremes the planner's pick is the measured winner."""
        from repro.bench.harness import compare_methods

        for catalog_factory in (big_catalog, small_inner_catalog):
            catalog = catalog_factory()
            choice = Planner(catalog).choose(GENERATED_JA_QUERY)
            ni, tr = compare_methods(catalog, GENERATED_JA_QUERY)
            measured_winner = (
                "nested_iteration" if ni.page_ios < tr.page_ios else "transform"
            )
            assert choice.method == measured_winner


class TestStatisticsUnderAliases:
    def test_an_aliased_statement_is_costed_as_its_unaliased_form(self):
        """ANALYZE keeps statistics per table, and a reference names its
        binding: the planner maps each binding to its table, so ``P``
        finds PARTS's statistics."""
        from repro.catalog.statistics import analyze_all

        catalog = build_parts_supply(
            PartsSupplySpec(
                num_parts=500, num_supply=3000, rows_per_page=10,
                buffer_pages=4, seed=51,
            )
        )
        analyze_all(catalog)
        plain = Planner(catalog).choose(
            "SELECT PNUM FROM PARTS WHERE QOH = 1 AND QOH = "
            "(SELECT COUNT(*) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN < 3)"
        )
        aliased = Planner(catalog).choose(
            "SELECT P.PNUM FROM PARTS P WHERE P.QOH = 1 AND P.QOH = "
            "(SELECT COUNT(*) FROM SUPPLY S WHERE S.PNUM = P.PNUM AND S.QUAN < 3)"
        )
        assert aliased.alternatives == plain.alternatives
