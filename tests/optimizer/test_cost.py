"""Tests for the section-7 cost model, pinned to the paper's numbers."""

import math

import pytest

from repro.optimizer.cost import (
    LOG_CEIL,
    LOG_CONTINUOUS,
    CostParameters,
    final_join_cost_hash,
    final_join_cost_merge,
    final_join_cost_nested,
    hash_aggregate_cost,
    hash_join_cost,
    ja2_costs,
    ja2_hash_cost,
    log_passes,
    nested_iteration_cost,
    nested_iteration_cost_auto,
    nested_iteration_cost_buffered,
    outer_projection_cost,
    outer_projection_cost_hash,
    sort_cost,
    temp_creation_cost_hash,
    temp_creation_cost_merge,
    temp_creation_cost_nested,
    transform_nj_cost,
)


class TestPrimitives:
    def test_log_passes_continuous(self):
        assert log_passes(25, 6) == pytest.approx(2.0)  # log_5(25)
        assert log_passes(1, 6) == 0.0
        assert log_passes(0.5, 6) == 0.0

    def test_log_passes_ceil(self):
        assert log_passes(26, 6, LOG_CEIL) == 3.0
        assert log_passes(25, 6, LOG_CEIL) == 2.0

    def test_sort_cost_formula(self):
        assert sort_cost(50, 6) == pytest.approx(2 * 50 * math.log(50, 5))


class TestSection74Example:
    """The paper's worked example: 3 050 vs about 475."""

    def setup_method(self):
        self.params = CostParameters.paper_section_7_4()

    def test_nested_iteration_is_3050(self):
        assert nested_iteration_cost(self.params) == 3050

    def test_two_merge_join_total_is_about_475(self):
        total = ja2_costs(self.params).merge_merge
        # Continuous logs give 478.6; the paper rounds to "about 475".
        assert total == pytest.approx(478.6, abs=0.5)
        assert abs(total - 475) < 10

    def test_component_values(self):
        assert outer_projection_cost(self.params) == pytest.approx(
            50 + 7 + 2 * 7 * math.log(7, 5)
        )
        assert temp_creation_cost_merge(self.params) == pytest.approx(
            30 + 10 + 2 * 10 * math.log(10, 5) + 7 + 10 + 16 + 5
        )
        assert final_join_cost_merge(self.params) == pytest.approx(
            2 * 50 * math.log(50, 5) + 50 + 5
        )

    def test_savings_ratio_in_paper_band(self):
        """Section 4: '80% to 95% savings are possible'."""
        total = ja2_costs(self.params).merge_merge
        saving = 1 - total / nested_iteration_cost(self.params)
        assert 0.80 <= saving <= 0.95

    def test_four_variants_ordering(self):
        breakdown = ja2_costs(self.params)
        variants = breakdown.variants()
        assert set(variants) == {
            "merge+merge", "merge+nested", "nested+merge", "nested+nested"
        }
        # With Rt3 (10 pages) larger than B-1=5, the nested-loop temp
        # build pays Nt2·Pt3 = 1000 extra I/Os and must lose.
        assert variants["nested+merge"] > variants["merge+merge"]
        # Rt (5 pages) fits in the buffer, so the nested final join is
        # cheap — cheaper than sorting Ri for a merge join.
        assert variants["merge+nested"] < variants["merge+merge"]
        name, value = breakdown.best()
        assert value == min(variants.values())

    def test_every_variant_beats_nested_iteration(self):
        breakdown = ja2_costs(self.params)
        for total in breakdown.variants().values():
            assert total < nested_iteration_cost(self.params)


class TestNestedIterationVariants:
    def test_buffered_case(self):
        params = CostParameters(pi=50, pj=4, buffer_pages=6, fi_ni=100)
        assert nested_iteration_cost_buffered(params) == 54
        assert nested_iteration_cost_auto(params) == 54

    def test_unbuffered_case(self):
        params = CostParameters(pi=50, pj=30, buffer_pages=6, fi_ni=100)
        assert nested_iteration_cost_auto(params) == 3050


class TestTempCreationNested:
    def test_small_rt3_builds_in_memory(self):
        params = CostParameters(
            pi=50, pj=30, pt2=7, pt3=4, pt4=8, pt=5, buffer_pages=6, nt2=100
        )
        # Pj + Pt2 + Pt4 (join) + Pt4 + Pt (group by)
        assert temp_creation_cost_nested(params) == 30 + 7 + 8 + 8 + 5

    def test_large_rt3_rescans(self):
        params = CostParameters.paper_section_7_4()
        expected = 30 + 10 + 7 + 100 * 10 + 8 + (8 + 5)
        assert temp_creation_cost_nested(params) == expected


class TestFinalJoinNested:
    def test_rt_fits_in_buffer(self):
        params = CostParameters.paper_section_7_4()
        assert final_join_cost_nested(params) == 50 + 5

    def test_rt_does_not_fit(self):
        params = CostParameters(
            pi=50, pj=30, pt=9, buffer_pages=6, fi_ni=100
        )
        assert final_join_cost_nested(params) == 50 + 100 * 9


class TestTransformNJ:
    def test_kim_style_example_shape(self):
        """Type-N example at Kim scale: transformation wins hugely."""
        pi, pj, fi_ni, b = 20, 100, 102, 11
        ni_cost = pi + fi_ni * pj
        assert ni_cost == 10220  # Figure 1, type-N nested iteration
        tr_cost = transform_nj_cost(pi, pj, b, mode=LOG_CEIL)
        assert tr_cost == 720  # Figure 1, type-N transformation
        assert 1 - tr_cost / ni_cost > 0.9

    def test_continuous_mode_close_to_ceil(self):
        ceil_cost = transform_nj_cost(20, 100, 11, mode=LOG_CEIL)
        cont_cost = transform_nj_cost(20, 100, 11, mode=LOG_CONTINUOUS)
        assert cont_cost <= ceil_cost


class TestHashOperators:
    """Model = machine: ``hash_join`` / ``hash_group_aggregate`` /
    ``hash_distinct`` build in memory whatever ``B`` is, so the model
    charges one read per input and one write per output and never a
    partitioning pass — at any buffer size."""

    def test_join_and_aggregate_are_one_pass(self):
        assert hash_join_cost(30, 50) == 80
        assert hash_join_cost(30, 50, result_pages=7) == 87
        assert hash_join_cost(2200, 20) == 2220  # scan_big scale: no 3x
        assert hash_aggregate_cost(40) == 40
        assert hash_aggregate_cost(40, result_pages=5) == 45

    def test_ja2_hash_steps_on_the_section_7_4_example(self):
        params = CostParameters.paper_section_7_4()
        assert outer_projection_cost_hash(params) == params.pi + params.pt2
        assert temp_creation_cost_hash(params) == (
            params.pj + params.pt3  # restrict and project Rj
            + params.pt2 + params.pt3 + params.pt4  # join, write Rt4
            + params.pt4 + params.pt  # aggregate, write Rt
        )
        assert final_join_cost_hash(params) == params.pt + params.pi
        assert ja2_hash_cost(params) == (
            outer_projection_cost_hash(params)
            + temp_creation_cost_hash(params)
            + final_join_cost_hash(params)
        )

    def test_cost_does_not_depend_on_the_buffer(self):
        from dataclasses import replace

        params = CostParameters.paper_section_7_4()
        tiny = replace(params, buffer_pages=3)
        assert ja2_hash_cost(tiny) == ja2_hash_cost(params)
