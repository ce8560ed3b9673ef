"""Order is a property of every relation — and every claim is true.

An operator's output, and every temp the catalog registers, carries
``(column positions, unique)``.  Downstream blocks skip sorts on the
strength of it, so a false claim is a wrong answer waiting for the
right data.  Here every claim made while the 12 suite shapes run —
three join methods, one client and four at once — is checked against
the rows: non-decreasing under ``sort.order_key`` on the claimed
columns, strictly increasing when the claim says they are a key.

The second half holds the machine to section 7.3's cost for the final
merge join of NEST-JA2: ``sort(Ri) + Pi + Pt`` — the temp is already in
join-column order and is *not* sorted.
"""

from __future__ import annotations

from itertools import pairwise

import pytest

import repro.optimizer.executor as executor_module
from repro import Database
from repro.catalog.catalog import Catalog
from repro.core.pipeline import Engine
from repro.engine.relation import Relation
from repro.engine.sort import column_profile, external_sort, order_key
from repro.optimizer.cost import sort_cost
from repro.optimizer.executor import SingleLevelExecutor
from repro.workloads.generators import CUTOFF as DATE_CUTOFF
from repro.workloads.generators import PartsSupplySpec, build_parts_supply
from tests.clients import run_clients
from tests.core.test_page_schedule import CUTOFF, JOINS, PARTS, SHAPES, SUPPLY


def assert_ordered(rows: list[tuple], order, what: str) -> None:
    columns, unique = order
    key = order_key(column_profile(rows), columns, tiebreak=False)
    # No key: the claimed columns are the whole row, in row order.
    keys = rows if key is None else list(map(key, rows))
    for before, after in pairwise(keys):
        assert before <= after, f"{what}: claimed {order}, {before} > {after}"
        assert not unique or before < after, f"{what}: {before} repeats"


@pytest.fixture
def claims(monkeypatch):
    """Check every order claimed by an operator or a registered temp;
    yields the list of non-empty ones.  A stream is read here, checked,
    and handed on as a stream of the rows read."""
    seen: list[tuple[str, tuple]] = []
    run = SingleLevelExecutor._run
    register = Catalog.register_temp

    def checked_run(self, operator, *args, **kwargs):
        relation = run(self, operator, *args, **kwargs)
        if relation.order[0]:
            rows = relation.to_list()
            assert_ordered(rows, relation.order, operator.__name__)
            seen.append((operator.__name__, relation.order))
            if relation.is_stream:
                return Relation.stream(
                    relation.schema, [rows], relation.name, relation.order
                )
        return relation

    def checked_register(self, name, heap, column_names, order=((), False)):
        if order[0]:
            assert_ordered(list(heap.scan()), order, name)
            seen.append((name, order))
        return register(self, name, heap, column_names, order)

    monkeypatch.setattr(SingleLevelExecutor, "_run", checked_run)
    monkeypatch.setattr(Catalog, "register_temp", checked_register)
    return seen


@pytest.mark.parametrize("clients", [1, 4])
@pytest.mark.parametrize("join_method", JOINS)
def test_every_claimed_order_is_true(claims, join_method, clients):
    db = Database(buffer_pages=8, join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    # Each client takes every ``clients``-th shape: all twelve run once,
    # on ``clients`` threads at once.
    shares = iter(range(clients))

    def client():
        for sql in list(SHAPES.values())[next(shares) :: clients]:
            db.engine.run(sql.format(c=CUTOFF), method="auto")

    run_clients(clients, client)
    temps = {name for name, _ in claims if "TEMP" in name}
    if join_method == "hash":
        # Hash operators need no order and sort nothing; only the theta
        # fallback (ja_neq) and ORDER BY ever produce one.
        return
    assert len(temps) >= 10, sorted(temps)
    assert any(unique for _, (_, unique) in claims)


def test_claims_with_nulls_and_mixed_types(claims):
    """NULL and text keys order under the engine's total order, not
    Python's: the claims must hold there too."""
    db = Database(buffer_pages=8)
    db.create_table("R", [("A", "any"), "B"])
    db.create_table("S", [("A", "any"), "C"])
    db.insert("R", [(None, 1), (2, None), ("x", 0), (2, 2), (1, 1), (None, None)])
    db.insert("S", [(2, 1), (None, 5), ("x", 2), (3, 3), (2, 4), (None, 0)])
    db.engine.run(
        "SELECT A FROM R WHERE B = (SELECT COUNT(C) FROM S WHERE S.A = R.A)"
    )
    db.engine.run("SELECT A FROM R WHERE A IN (SELECT A FROM S WHERE C < 5)")
    assert claims


# -- section 7.3: model = machine -------------------------------------------


def test_final_merge_join_costs_what_section_7_3_charges(monkeypatch):
    """The section 7.4 instance (Pi = 50, Pj = 30, B = 6), Kiessling's
    COUNT query, merge joins at both steps.  Section 7.3 prices the
    final join at ``sort(Ri) + Pi + Pt`` because "Rt is already in
    join-column order, only Ri must be sorted"; section 7.1 has Rt2
    "emerge in join-column order".  The machine does exactly that, and
    nothing more: the answer goes to the caller unwritten, so the block
    costs the model's three terms with equality.  (Before order claims
    the same block cost 5 605 page I/Os: Rt was sorted, and
    ``PNUM <=> C1`` filtered 27 000 joined rows; while the answer was
    still written it cost the three terms plus the result's pages.)"""
    catalog = build_parts_supply(
        PartsSupplySpec(
            num_parts=500, num_supply=300, rows_per_page=10, buffer_pages=6,
            match_fraction=0.95, seed=74,
        )
    )
    buffer = catalog.buffer
    blocks, sorts = [], []

    def timed(record, function):
        def wrapper(*args, **kwargs):
            before = buffer.stats()
            result = function(*args, **kwargs)
            io = buffer.stats() - before
            record.append((args, io.page_reads + io.page_writes))
            return result

        return wrapper

    monkeypatch.setattr(
        SingleLevelExecutor, "execute", timed(blocks, SingleLevelExecutor.execute)
    )
    monkeypatch.setattr(executor_module, "external_sort", timed(sorts, external_sort))
    buffer.evict_all()
    report = Engine(catalog, join_method="merge").run(
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY "
        f"WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '{DATE_CUTOFF}')",
        method="transform",
    )
    rt2, _rt3, rt = report.temp_pages
    assert f"{rt2} already ordered on ({rt2}.C1) (unique) (no sort)" in report.steps[2]
    assert f"{rt} already ordered on ({rt}.C1) (unique) (no sort)" in report.steps[3]
    # DISTINCT's own sort-unique, Rt3 for the temp's merge join, Ri for
    # the final one: no temp that is in order by construction is sorted.
    assert [args[0].name for args, _ in sorts] == ["result", _rt3, "PARTS"]

    pi = catalog.heap_of("PARTS").num_pages
    pt = report.temp_pages[rt]
    sort_ri = sorts[-1][1]
    passes = sort_ri / (2 * pi)  # run formation + merge passes, whole
    assert passes == int(passes) and sort_ri >= sort_cost(pi, buffer.capacity)
    _, final_io = blocks[-1]
    assert final_io == sort_ri + pi + pt
