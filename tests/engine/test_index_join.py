"""Tests for index nested-loop joins and the section 5.2 index trap."""

from collections import Counter

import pytest

from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    group_aggregate,
    index_nested_loop_join,
    merge_join,
    nested_loop_join,
    restrict_project,
    scan_table,
)
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.sql.parser import parse_expression
from repro.storage.index import IsamIndex
from repro.workloads.paper_data import load_kiessling_instance


def setup_indexed_supply(catalog):
    supply = catalog.get("SUPPLY")
    index = IsamIndex(
        supply.heap,
        key_column=supply.schema.column_index("PNUM"),
        buffer=catalog.buffer,
    )
    return supply, index


class TestIndexNestedLoopJoin:
    def test_equals_merge_join(self):
        catalog = load_kiessling_instance()
        supply, index = setup_indexed_supply(catalog)
        parts = scan_table(catalog.get("PARTS"))
        supply_schema = RowSchema.for_table("SUPPLY", supply.schema.column_names)

        via_index = index_nested_loop_join(
            parts, index, supply_schema, left_key=0
        )
        via_loop = nested_loop_join(
            parts, scan_table(supply),
            predicate=parse_expression("PARTS.PNUM = SUPPLY.PNUM"),
        )
        assert Counter(via_index.to_list()) == Counter(via_loop.to_list())

    def test_left_outer_mode(self):
        catalog = load_kiessling_instance()
        supply, index = setup_indexed_supply(catalog)
        parts = scan_table(catalog.get("PARTS"))
        supply_schema = RowSchema.for_table("SUPPLY", supply.schema.column_names)

        out = index_nested_loop_join(
            parts, index, supply_schema, left_key=0, mode="left"
        )
        # Every part has at least one shipment in this instance, so the
        # outer mode matches the inner result here.
        assert all(row[2] is not None for row in out)

    def test_probes_cost_less_than_rescans(self):
        catalog = load_kiessling_instance(buffer_pages=3, rows_per_page=1)
        supply, index = setup_indexed_supply(catalog)
        parts = scan_table(catalog.get("PARTS"))
        supply_schema = RowSchema.for_table("SUPPLY", supply.schema.column_names)

        catalog.buffer.evict_all()
        catalog.buffer.reset_stats()
        index_nested_loop_join(
            parts, index, supply_schema, left_key=0
        ).to_list()
        probe_reads = catalog.buffer.stats().page_reads

        catalog.buffer.evict_all()
        catalog.buffer.reset_stats()
        nested_loop_join(
            parts, scan_table(supply),
            predicate=parse_expression("PARTS.PNUM = SUPPLY.PNUM"),
        ).to_list()
        rescan_reads = catalog.buffer.stats().page_reads
        assert probe_reads < rescan_reads


class TestSection52IndexTrap:
    """Section 5.2: 'the condition which applies to only one relation
    must be applied before the join is performed. ... This may happen if
    the join is performed first to take advantage of indices on the
    join columns.'

    Both plans below compute TEMP3 (per-part COUNT of pre-1980
    shipments).  The tempting index plan outer-joins first and filters
    afterwards — and silently loses the zero-count group."""

    def correct_temp3(self, catalog):
        """Restrict SUPPLY first, then outer join, then group."""
        buffer = catalog.buffer
        parts = scan_table(catalog.get("PARTS"))
        supply = scan_table(catalog.get("SUPPLY"))
        temp1 = external_sort(
            restrict_project(
                parts,
                projections=[(parse_expression("PARTS.PNUM"), "T1", "PNUM")],
            ),
            [0], buffer, unique=True,
        )
        temp2 = external_sort(
            restrict_project(
                supply,
                predicate=parse_expression("SHIPDATE < '1980-01-01'"),
                projections=[(parse_expression("SUPPLY.PNUM"), "T2", "PNUM"),
                             (parse_expression("SUPPLY.SHIPDATE"), "T2", "VAL")],
            ),
            [0], buffer,
        )
        joined = merge_join(temp1, temp2, [0], [0], mode="left")
        return group_aggregate(
            joined, [0], [AggSpec("COUNT", 2)],
            [("G", "PNUM"), ("G", "CT")],
        )

    def trap_temp3(self, catalog):
        """Outer join via the index first, filter SHIPDATE afterwards."""
        buffer = catalog.buffer
        supply_entry, index = setup_indexed_supply(catalog)
        parts = scan_table(catalog.get("PARTS"))
        supply_schema = RowSchema.for_table(
            "SUPPLY", supply_entry.schema.column_names
        )
        temp1 = external_sort(
            restrict_project(
                parts,
                projections=[(parse_expression("PARTS.PNUM"), "T1", "PNUM")],
            ),
            [0], buffer, unique=True,
        )
        joined = index_nested_loop_join(
            temp1, index, supply_schema, left_key=0, mode="left"
        )
        filtered = restrict_project(
            joined,
            predicate=parse_expression("SHIPDATE < '1980-01-01'"),
        )
        sorted_rel = external_sort(filtered, [0], buffer)
        return group_aggregate(
            sorted_rel, [0], [AggSpec("COUNT", 3)],
            [("G", "PNUM"), ("G", "CT")],
        )

    def test_correct_plan_matches_paper_table(self):
        catalog = load_kiessling_instance()
        temp3 = self.correct_temp3(catalog)
        assert Counter(temp3.to_list()) == Counter([(3, 2), (10, 1), (8, 0)])

    def test_index_trap_loses_the_zero_count_group(self):
        catalog = load_kiessling_instance()
        temp3 = self.trap_temp3(catalog)
        # Part 8's NULL-padded row fails SHIPDATE < cutoff (unknown)
        # and is filtered out — exactly the failure the paper warns of.
        rows = temp3.to_list()
        assert Counter(rows) == Counter([(3, 2), (10, 1)])
        assert (8, 0) not in rows
