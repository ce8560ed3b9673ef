"""Tests for the single-level physical executor."""

from collections import Counter

import pytest

from repro.config import ExecConfig
from repro.engine.relation import Relation
from repro.analysis.verifier import verify_single_level
from repro.errors import PlanError, VerificationError
from repro.core.pipeline import prepare_query
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.parser import parse
from repro.workloads.paper_data import (
    load_duplicates_instance,
    load_kiessling_instance,
    load_supplier_parts,
)


def run(catalog, sql, join_method="merge"):
    """The block's rows, collected as a chain collects its final
    block's: nothing is written for them."""
    executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
    return executor.execute(prepare_query(parse(sql), catalog), Relation.to_list)


@pytest.fixture(params=["merge", "nested"])
def join_method(request):
    return request.param


class TestScanAndFilter:
    def test_projection(self, join_method):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS", join_method)
        assert result == [(3,), (10,), (8,)]

    def test_restriction(self, join_method):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT PNUM FROM PARTS WHERE QOH > 0", join_method)
        assert result == [(3,), (10,)]

    def test_distinct(self, join_method):
        catalog = load_duplicates_instance()
        result = run(catalog, "SELECT DISTINCT PNUM FROM PARTS", join_method)
        assert result == [(3,), (8,), (10,)]

    def test_output_names_respect_aliases(self):
        catalog = load_kiessling_instance()
        executor = SingleLevelExecutor(catalog)
        block = prepare_query(
            parse("SELECT PNUM AS SUPPNUM, COUNT(QUAN) AS CT FROM SUPPLY GROUP BY PNUM"),
            catalog,
        )
        executor.materialize("T_NAMES", block)
        assert list(catalog.column_names("T_NAMES")) == ["SUPPNUM", "CT"]

    def test_rejects_nested_queries(self):
        """PV010 when the block is planned: the verifier reports what
        the executor's planning raises."""
        catalog = load_kiessling_instance()
        sql = "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)"
        assert verify_single_level(parse(sql), catalog).rules() == {"PV010"}
        with pytest.raises(VerificationError, match="PV010") as excinfo:
            run(catalog, sql)
        assert [d.rule for d in excinfo.value.diagnostics] == ["PV010"]


class TestJoins:
    def test_equi_join_both_methods_agree(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM AND SHIPDATE < '1980-01-01'",
            join_method,
        )
        assert Counter(result) == Counter([(3, 4), (3, 2), (10, 1)])

    def test_theta_join(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, SUPPLY.PNUM FROM PARTS, SUPPLY "
            "WHERE SUPPLY.PNUM < PARTS.PNUM",
            join_method,
        )
        expected = Counter(
            [(10, 3), (10, 3), (10, 8), (8, 3), (8, 3)]
        )
        assert Counter(result) == expected

    def test_left_outer_join(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM =+ SUPPLY.PNUM AND SHIPDATE < '1980-01-01'",
            join_method,
        )
        # Part 8 has no pre-1980 shipments: padded with NULL.
        assert Counter(result) == Counter(
            [(3, 4), (3, 2), (10, 1), (8, None)]
        )

    def test_simple_predicates_applied_before_outer_join(self, join_method):
        """Section 5.2's ordering requirement: restricting SUPPLY by
        SHIPDATE *after* the outer join would lose the (8, NULL) row."""
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM =+ SUPPLY.PNUM AND SHIPDATE < '1980-01-01'",
            join_method,
        )
        assert (8, None) in result

    def test_three_table_join(self, join_method):
        catalog = load_supplier_parts()
        result = run(
            catalog,
            "SELECT S.SNAME, P.PNAME FROM S, SP, P "
            "WHERE S.SNO = SP.SNO AND SP.PNO = P.PNO AND P.WEIGHT > 18",
            join_method,
        )
        assert Counter(result) == Counter([("Smith", "Cog")])

    def test_cross_product(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PARTS.PNUM, X.PNUM FROM PARTS, PARTS X",
            join_method,
        )
        assert len(result) == 9


class TestGrouping:
    def test_group_by_count(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY "
            "WHERE SHIPDATE < '1980-01-01' GROUP BY PNUM",
            join_method,
        )
        assert Counter(result) == Counter([(3, 2), (10, 1)])

    def test_group_by_join_column_after_merge_join_skips_sort(self):
        catalog = load_kiessling_instance()
        executor = SingleLevelExecutor(catalog, ExecConfig("merge"))
        result = executor.execute(
            parse(
                "SELECT PARTS.PNUM, COUNT(SUPPLY.SHIPDATE) FROM PARTS, SUPPLY "
                "WHERE PARTS.PNUM = SUPPLY.PNUM GROUP BY PARTS.PNUM"
            ),
            Relation.to_list,
        )
        assert Counter(result) == Counter([(3, 2), (8, 1), (10, 2)])
        assert any("no sort" in step for step in executor.steps)

    def test_scalar_aggregate(self, join_method):
        catalog = load_kiessling_instance()
        result = run(catalog, "SELECT COUNT(*) FROM SUPPLY", join_method)
        assert result == [(5,)]

    def test_scalar_aggregate_empty_input(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog, "SELECT COUNT(*), MAX(QUAN) FROM SUPPLY WHERE QUAN > 99",
            join_method,
        )
        assert result == [(0, None)]

    def test_aggregate_order_mixed_with_group_column(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT COUNT(QUAN), PNUM FROM SUPPLY GROUP BY PNUM",
            join_method,
        )
        assert Counter(result) == Counter([(2, 3), (2, 10), (1, 8)])

    def test_non_grouped_column_raises(self, join_method):
        catalog = load_kiessling_instance()
        with pytest.raises(PlanError):
            run(catalog, "SELECT QUAN, PNUM FROM SUPPLY GROUP BY PNUM", join_method)


class TestPaperTempTables:
    """The exact temp-table queries of section 6.1 run correctly."""

    def test_temp1(self, join_method):
        catalog = load_duplicates_instance()
        result = run(catalog, "SELECT DISTINCT PNUM FROM PARTS", join_method)
        assert result == [(3,), (8,), (10,)]

    def test_temp2(self, join_method):
        catalog = load_kiessling_instance()
        result = run(
            catalog,
            "SELECT PNUM, SHIPDATE FROM SUPPLY WHERE SHIPDATE < '1980-01-01'",
            join_method,
        )
        assert Counter(result) == Counter(
            [(3, "1979-07-03"), (3, "1978-10-01"), (10, "1978-06-08")]
        )

    def test_temp3_outer_join_group_by(self, join_method):
        """TEMP3 from section 6.1 — the COUNT-preserving outer join."""
        catalog = load_kiessling_instance()
        catalog.create_table(
            __import__("repro.catalog.schema", fromlist=["schema"]).schema(
                "TEMP1", "PNUM"
            )
        )
        catalog.insert("TEMP1", [(3,), (10,), (8,)])
        catalog.create_table(
            __import__("repro.catalog.schema", fromlist=["schema"]).schema(
                "TEMP2", "PNUM"
            )
        )
        catalog.insert("TEMP2", [(3,), (3,), (10,)])
        result = run(
            catalog,
            "SELECT TEMP1.PNUM, COUNT(TEMP2.PNUM) AS CT FROM TEMP1, TEMP2 "
            "WHERE TEMP1.PNUM =+ TEMP2.PNUM GROUP BY TEMP1.PNUM",
            join_method,
        )
        assert Counter(result) == Counter([(3, 2), (10, 1), (8, 0)])


class TestOnePassPerBlock:
    """A block's operators stream; it writes a nested-loop inner, its
    sort runs and — when it builds a temp — its result, and nothing
    else.  A final block's rows go to the caller unwritten."""

    SQL = (
        "SELECT A.K, COUNT(B.Z) FROM A, B "
        "WHERE A.K = B.K AND A.X > 1 AND B.Y > 2 GROUP BY A.K"
    )

    def catalog(self):
        from repro.catalog.schema import schema
        from repro.workloads.paper_data import fresh_catalog

        catalog = fresh_catalog(4)
        catalog.create_table(schema("A", "K", "X"), rows_per_page=4)
        catalog.create_table(schema("B", "K", "Y", "Z", "W"), rows_per_page=4)
        catalog.insert("A", [(k % 10, k % 5) for k in range(40)])
        catalog.insert("B", [(k % 12, k % 7, k, -k) for k in range(60)])
        return catalog

    def stores(self, monkeypatch):
        """Every relation the executor writes through ``Relation.store``:
        ``(name, fields, rows)``."""
        written = []
        store = Relation.store

        def spy(self, buffer):
            stored = store(self, buffer)
            written.append((self.name, stored.schema.fields, stored.num_rows))
            return stored

        monkeypatch.setattr(Relation, "store", spy)
        return written

    def built(self, sql, join_method):
        """The block's rows, built as the temp ``T``."""
        catalog = self.catalog()
        executor = SingleLevelExecutor(catalog, ExecConfig(join_method))
        executor.materialize("T", prepare_query(parse(sql), catalog))
        return catalog.heap_of("T").scan()

    def expected(self):
        a = [(k % 10, k % 5) for k in range(40)]
        b = [(k % 12, k % 7, k, -k) for k in range(60)]
        counts = Counter(
            ak for ak, x in a if x > 1 for bk, y, _, _ in b if bk == ak and y > 2
        )
        return Counter(counts.items())

    @pytest.mark.parametrize("method", ["merge", "hash"])
    def test_only_the_result_is_written(self, monkeypatch, method):
        written = self.stores(monkeypatch)
        assert Counter(run(self.catalog(), self.SQL, method)) == self.expected()
        assert written == []
        assert Counter(self.built(self.SQL, method)) == self.expected()
        assert [name for name, _, _ in written] == ["result"]

    def test_nested_loop_inner_written_once_at_its_projected_width(
        self, monkeypatch
    ):
        written = self.stores(monkeypatch)
        assert Counter(run(self.catalog(), self.SQL, "nested")) == self.expected()
        # B.Y is read only by B's own restriction, B.W by nobody.
        inner = sum(1 for k in range(60) if k % 7 > 2)
        assert written == [("restrict(B)", (("B", "K"), ("B", "Z")), inner)]
        assert Counter(self.built(self.SQL, "nested")) == self.expected()
        assert [name for name, _, _ in written] == [
            "restrict(B)", "restrict(B)", "result",
        ]

    def test_an_unrestricted_inner_is_rescanned_where_it_is_stored(
        self, monkeypatch
    ):
        written = self.stores(monkeypatch)
        result = run(
            self.catalog(),
            "SELECT A.K, B.Z FROM A, B WHERE A.K = B.K AND A.X > 3",
            "nested",
        )
        assert len(result) == sum(
            1 for k in range(40) if k % 5 > 3 for j in range(60)
            if j % 12 == k % 10
        )
        assert written == []
