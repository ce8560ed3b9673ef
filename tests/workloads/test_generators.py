"""Tests for the synthetic workload generators and paper instances."""

from collections import Counter

import pytest

from repro.workloads.generators import (
    GENERATED_J_QUERY,
    GENERATED_JA_QUERY,
    GENERATED_N_QUERY,
    PartsSupplySpec,
    SupplierSpec,
    build_parts_supply,
    build_supplier_parts,
    skewed_keys,
)
from repro.workloads.paper_data import (
    DUPLICATES_PARTS,
    KIESSLING_PARTS,
    KIESSLING_SUPPLY,
    OPERATOR_BUG_PARTS,
    load_duplicates_instance,
    load_kiessling_instance,
    load_supplier_parts,
)


class TestPaperInstances:
    def test_kiessling_tables_exact(self):
        catalog = load_kiessling_instance()
        assert list(catalog.heap_of("PARTS").scan()) == KIESSLING_PARTS
        assert list(catalog.heap_of("SUPPLY").scan()) == KIESSLING_SUPPLY

    def test_instances_are_independent(self):
        a = load_kiessling_instance()
        b = load_kiessling_instance()
        a.insert("PARTS", [(99, 99)])
        assert b.heap_of("PARTS").num_rows == len(KIESSLING_PARTS)

    def test_duplicates_instance_has_duplicate_pnums(self):
        pnums = [row[0] for row in DUPLICATES_PARTS]
        assert len(pnums) != len(set(pnums))

    def test_operator_instance_has_dangling_supply_pnum(self):
        # PNUM 9 appears in SUPPLY but not PARTS: the range-join fodder.
        parts_pnums = {row[0] for row in OPERATOR_BUG_PARTS}
        assert 9 not in parts_pnums

    def test_supplier_parts_referential_integrity(self):
        catalog = load_supplier_parts()
        snos = {row[0] for row in catalog.heap_of("S").scan()}
        pnos = {row[0] for row in catalog.heap_of("P").scan()}
        for sno, pno, _, _ in catalog.heap_of("SP").scan():
            assert sno in snos
            assert pno in pnos


class TestPartsSupplyGenerator:
    def test_deterministic_for_same_seed(self):
        spec = PartsSupplySpec(seed=7)
        a = build_parts_supply(spec)
        b = build_parts_supply(spec)
        assert list(a.heap_of("SUPPLY").scan()) == list(b.heap_of("SUPPLY").scan())

    def test_different_seeds_differ(self):
        a = build_parts_supply(PartsSupplySpec(seed=1))
        b = build_parts_supply(PartsSupplySpec(seed=2))
        assert list(a.heap_of("SUPPLY").scan()) != list(b.heap_of("SUPPLY").scan())

    def test_sizes_match_spec(self):
        spec = PartsSupplySpec(num_parts=30, num_supply=120, rows_per_page=10)
        catalog = build_parts_supply(spec)
        assert catalog.heap_of("PARTS").num_rows == 30
        assert catalog.heap_of("SUPPLY").num_rows == 120
        assert catalog.heap_of("PARTS").num_pages == 3
        assert catalog.heap_of("SUPPLY").num_pages == 12

    def test_buffer_capacity_matches_spec(self):
        catalog = build_parts_supply(PartsSupplySpec(buffer_pages=5))
        assert catalog.buffer.capacity == 5

    def test_duplicate_fraction_adds_duplicate_pnums(self):
        spec = PartsSupplySpec(num_parts=20, duplicate_fraction=0.5, seed=3)
        catalog = build_parts_supply(spec)
        pnums = [row[0] for row in catalog.heap_of("PARTS").scan()]
        assert len(pnums) == 30
        assert len(set(pnums)) == 20

    def test_match_fraction_zero_gives_all_dangling(self):
        spec = PartsSupplySpec(num_parts=10, num_supply=50,
                               match_fraction=0.0, seed=4)
        catalog = build_parts_supply(spec)
        parts_pnums = {row[0] for row in catalog.heap_of("PARTS").scan()}
        supply_pnums = {row[0] for row in catalog.heap_of("SUPPLY").scan()}
        assert not (parts_pnums & supply_pnums)

    def test_generated_queries_have_nonempty_results(self):
        from repro.core.pipeline import Engine

        catalog = build_parts_supply(PartsSupplySpec(seed=5))
        engine = Engine(catalog)
        for sql in (GENERATED_JA_QUERY, GENERATED_N_QUERY, GENERATED_J_QUERY):
            result = engine.run(sql, method="nested_iteration")
            assert len(result.result.rows) > 0, sql

    def test_dates_straddle_the_cutoff(self):
        spec = PartsSupplySpec(num_supply=200, before_cutoff_fraction=0.5, seed=6)
        catalog = build_parts_supply(spec)
        dates = [row[2] for row in catalog.heap_of("SUPPLY").scan()]
        before = sum(1 for d in dates if d < "1980-01-01")
        assert 0 < before < len(dates)


class TestSupplierGenerator:
    def test_sizes(self):
        spec = SupplierSpec(num_suppliers=12, num_parts=15, num_shipments=40)
        catalog = build_supplier_parts(spec)
        assert catalog.heap_of("S").num_rows == 12
        assert catalog.heap_of("P").num_rows == 15
        assert catalog.heap_of("SP").num_rows == 40

    def test_referential_integrity(self):
        catalog = build_supplier_parts(SupplierSpec(seed=9))
        snos = {row[0] for row in catalog.heap_of("S").scan()}
        pnos = {row[0] for row in catalog.heap_of("P").scan()}
        for sno, pno, _, _ in catalog.heap_of("SP").scan():
            assert sno in snos
            assert pno in pnos

    def test_deterministic(self):
        a = build_supplier_parts(SupplierSpec(seed=11))
        b = build_supplier_parts(SupplierSpec(seed=11))
        assert list(a.heap_of("SP").scan()) == list(b.heap_of("SP").scan())


class TestSkewedKeys:
    def test_zero_skew_is_uniformish_and_deterministic(self):
        import random

        universe = list(range(100))
        a = skewed_keys(random.Random(7), universe, 1000, 0.0)
        b = skewed_keys(random.Random(7), universe, 1000, 0.0)
        assert a == b
        assert len(a) == 1000
        assert set(a) <= set(universe)

    def test_skew_concentrates_mass_on_head_keys(self):
        import random

        universe = list(range(1, 201))
        draws = skewed_keys(random.Random(3), universe, 5000, 1.2)
        counts = Counter(draws)
        head = sum(counts[k] for k in universe[:10])
        # Zipf s=1.2 over 200 keys puts well over a third of the mass
        # on the first 10 ranks; uniform would put 5% there.
        assert head > 0.35 * 5000
        assert counts[universe[0]] == max(counts.values())

    def test_empty_universe(self):
        import random

        assert skewed_keys(random.Random(0), [], 10, 1.0) == []
