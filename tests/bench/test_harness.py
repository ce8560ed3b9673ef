"""Tests for the benchmark harness and reporting helpers."""

from collections import Counter

import pytest

from repro.bench.harness import (
    MeasuredRun,
    compare_methods,
    measure,
    measure_transform,
)
from repro.core.nest_ja import kim_nest_g
from repro.bench.reporting import format_table, savings_percent
from repro.workloads.paper_data import (
    KIESSLING_Q2,
    load_kiessling_instance,
    load_supplier_parts,
    TYPE_J_QUERY,
)
from tests.core.helpers import literal_nest_nj


class TestMeasure:
    def test_measure_is_cold(self):
        catalog = load_kiessling_instance(rows_per_page=1)
        # Warm everything up first; measure must still see cold reads.
        list(catalog.heap_of("PARTS").scan())
        run = measure(catalog, "SELECT PNUM FROM PARTS", "nested_iteration")
        assert run.io.page_reads >= catalog.heap_of("PARTS").num_pages

    def test_measure_reports_rows_and_time(self):
        catalog = load_kiessling_instance()
        run = measure(catalog, KIESSLING_Q2, "nested_iteration")
        assert sorted(run.rows) == [(8,), (10,)]
        assert run.seconds >= 0
        assert run.page_ios == run.io.page_ios

    def test_repeated_measurements_are_stable(self):
        catalog = load_kiessling_instance()
        first = measure(catalog, KIESSLING_Q2, "transform")
        second = measure(catalog, KIESSLING_Q2, "transform")
        assert first.page_ios == second.page_ios
        assert first.rows == second.rows


class TestCompareMethods:
    def test_bag_check_passes_for_ja2(self):
        catalog = load_kiessling_instance()
        ni, tr = compare_methods(catalog, KIESSLING_Q2)
        assert sorted(ni.rows) == sorted(tr.rows)

    def test_bag_check_fails_loudly_for_type_j_duplicates(self):
        """What the bag check is for: Kim's literal NEST-N-J fans a
        type-J match out (sets agree, bags do not).  The engine's own
        plan is a semi-join and passes it."""
        catalog = load_supplier_parts()
        baseline = measure(catalog, TYPE_J_QUERY, "nested_iteration")
        literal = literal_nest_nj(catalog, TYPE_J_QUERY)
        assert set(literal) == set(baseline.rows)
        assert Counter(literal) != Counter(baseline.rows)
        compare_methods(catalog, TYPE_J_QUERY)

    def test_kim_algorithm_disables_checking(self):
        """Kim's plan is measured by ``measure_transform``, which checks
        nothing; ``compare_methods`` has no way to run it."""
        catalog = load_kiessling_instance()
        ni = measure(catalog, KIESSLING_Q2, "nested_iteration")
        tr = measure_transform(catalog, KIESSLING_Q2, kim_nest_g)
        assert sorted(ni.rows) != sorted(tr.rows)  # the bug, unchecked
        assert tr.page_ios == 5  # bugs_count_bug's "Kim NEST-JA" column
        with pytest.raises(TypeError):
            compare_methods(catalog, KIESSLING_Q2, ja_algorithm="kim")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["long-name", 12345]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "12,345" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_float_formatting(self):
        text = format_table(["x"], [[478.649]])
        assert "478.6" in text

    def test_savings_percent(self):
        assert savings_percent(100, 20) == pytest.approx(80.0)
        assert savings_percent(0, 5) == 0.0
        assert savings_percent(100, 100) == 0.0
        assert savings_percent(100, 150) == pytest.approx(-50.0)
