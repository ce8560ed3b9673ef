"""Tests for index-aware nested iteration (System R access paths)."""

from collections import Counter

import pytest

from repro import Database
from repro.bench.harness import measure
from repro.engine.nested_iteration import NestedIterationExecutor
from repro.optimizer.planner import Planner
from repro.sql.parser import parse
from repro.workloads.generators import (
    GENERATED_JA_QUERY,
    PartsSupplySpec,
    build_parts_supply,
)
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    QUERY_Q5,
    load_kiessling_instance,
    load_operator_bug_instance,
)


def big_catalog():
    spec = PartsSupplySpec(
        num_parts=100, num_supply=600, rows_per_page=10, buffer_pages=6,
        seed=91,
    )
    return build_parts_supply(spec)


class TestCorrectness:
    def test_same_results_with_and_without_index(self):
        catalog = big_catalog()
        plain = measure(catalog, GENERATED_JA_QUERY, "nested_iteration")
        catalog.create_index("SUPPLY", "PNUM")
        indexed = measure(catalog, GENERATED_JA_QUERY, "nested_iteration")
        assert Counter(indexed.rows) == Counter(plain.rows)

    def test_kiessling_q2_with_index(self):
        catalog = load_kiessling_instance()
        catalog.create_index("SUPPLY", "PNUM")
        result = NestedIterationExecutor(catalog).execute(parse(KIESSLING_Q2))
        assert Counter(result.rows) == Counter([(10,), (8,)])

    def test_non_equality_correlation_does_not_use_index(self):
        """Q5's ``<`` join predicate cannot be probed; results must
        still be correct (the plan simply falls back to scans)."""
        catalog = load_operator_bug_instance()
        catalog.create_index("SUPPLY", "PNUM")
        result = NestedIterationExecutor(catalog).execute(parse(QUERY_Q5))
        assert Counter(result.rows) == Counter([(8,)])

    def test_index_usable_for_constant_equality_too(self):
        catalog = load_kiessling_instance()
        catalog.create_index("SUPPLY", "PNUM")
        result = NestedIterationExecutor(catalog).execute(
            parse("SELECT QUAN FROM SUPPLY WHERE PNUM = 3")
        )
        assert Counter(result.rows) == Counter([(4,), (2,)])

    def test_use_indexes_false_disables_fast_path(self):
        """Without an index nested iteration scans; with one it probes."""
        catalog = big_catalog()
        scans = measure(catalog, GENERATED_JA_QUERY, "nested_iteration")
        catalog.create_index("SUPPLY", "PNUM")
        probes = measure(catalog, GENERATED_JA_QUERY, "nested_iteration")
        assert Counter(probes.rows) == Counter(scans.rows)
        assert probes.io.page_reads < scans.io.page_reads / 4

    def test_index_survives_inserts_via_rebuild(self):
        db = Database()
        db.create_table("T", ["K", "V"])
        db.insert("T", [(1, 10)])
        db.create_index("T", "K")
        db.insert("T", [(2, 20)])
        result = db.query("SELECT V FROM T WHERE K = 2")
        assert result.rows == [(20,)]


class TestPlannerIndexAwareness:
    def test_index_adds_an_alternative(self):
        catalog = big_catalog()
        without = Planner(catalog).choose(GENERATED_JA_QUERY)
        assert "nested_iteration (index probes)" not in without.alternatives
        catalog.create_index("SUPPLY", "PNUM")
        with_index = Planner(catalog).choose(GENERATED_JA_QUERY)
        assert "nested_iteration (index probes)" in with_index.alternatives
        indexed_cost = with_index.alternatives["nested_iteration (index probes)"]
        assert indexed_cost < with_index.alternatives["nested_iteration"]

    def test_cost_method_exploits_the_index(self):
        from repro.core.pipeline import Engine

        catalog = big_catalog()
        catalog.create_index("SUPPLY", "PNUM")
        from repro.catalog.statistics import analyze_all

        analyze_all(catalog)
        engine = Engine(catalog)
        catalog.buffer.evict_all()
        catalog.buffer.reset_stats()
        report = engine.run(GENERATED_JA_QUERY, method="cost")
        # Whatever the planner picked, the run must be far below the
        # plain-rescan nested iteration cost (6 010 page I/Os here).
        assert report.io.page_ios < 1500


class TestCliIndexCommand:
    def test_index_command(self):
        from tests.test_cli import run_session

        _, out = run_session(
            ["\\load kiessling", "\\index supply pnum", "\\quit"]
        )
        assert "index built on SUPPLY.PNUM" in out

    def test_index_usage(self):
        from tests.test_cli import run_session

        _, out = run_session(["\\index supply", "\\quit"])
        assert "usage: \\index" in out
