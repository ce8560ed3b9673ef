"""The temp-chain driver resolves a chain on demand: a replay leases,
pins, refreshes and rebuilds only what its final block — or a link it
must build — reads.

Before, ``run_chain`` walked the chain forwards and leased every link:
a hot NEST-JA2 statement held three entries to read one, the zipf
working set of the serving shapes (22 cutoffs x 7 entries + 3) exceeded
the registry's 128-entry cap, LRU never converged, and a replay whose
last link was still registered rebuilt an evicted upstream temp nothing
read.
"""

import random
from collections import Counter

from repro import Database
from repro.difftest.leaks import leaked_pages
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.sharing import DEFAULT_SHARED_CAP
from tests.core.test_page_schedule import SHAPES

JA = SHAPES["ja_count"].format(c="?")
CUTOFF = "1980-07-15"


def make_db(n_parts: int = 40, n_supply: int = 200) -> Database:
    rng = random.Random(18)
    db = Database(buffer_pages=256)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", [(p, rng.randrange(0, 8)) for p in range(1, n_parts + 1)])
    db.insert(
        "SUPPLY",
        [
            (
                rng.randrange(1, n_parts + 5),
                rng.randrange(1, 8),
                f"{rng.randrange(1977, 1985)}-{rng.randrange(1, 13):02d}-15",
            )
            for _ in range(n_supply)
        ],
    )
    return db


def evict(registry, doomed: list[tuple]) -> None:
    """Age ``doomed`` to the LRU end and let the registry's own
    over-capacity eviction take exactly them."""
    with registry._lock:
        entries = registry._entries
        kept = {key: entry for key, entry in entries.items() if key not in doomed}
        registry._entries = {**{key: entries[key] for key in doomed}, **kept}
        capacity, registry.capacity = registry.capacity, len(kept)
        registry._evict_over_capacity_locked()
        registry.capacity = capacity


def link_keys(registry, plan) -> list[tuple]:
    """Registry keys of the plan's registered chain links, in chain order
    (the parameterized interior link of a NEST-JA2 chain is never
    registered)."""
    by_fingerprint = {key[0]: key for key in registry._entries}
    return [
        by_fingerprint[spec.fingerprint]
        for spec in plan.share_specs
        if spec.fingerprint in by_fingerprint
    ]


def test_zipf_deck_working_set_fits_the_default_cap():
    """The serving mix of ``benchmarks/suite``: 22 cutoffs, six shapes,
    the cutoff of rank r dealt round(24 / r) times a deck.  Its hot set
    is one entry a shape and cutoff that has its own last link (NTEMP,
    JTEMP, three NEST-JA2 chains; EXISTS and NOT EXISTS share theirs),
    the DISTINCT outer keys and the sorted PARTS run: 22 x 5 + 2 = 112
    <= 128.  The parameterized interior links are never published, so
    the first deck publishes exactly that set and nothing is ever built
    again.  (With every link leased the set was 22 x 7 + 3 = 157 and
    each deck rebuilt 70-100 temps, forever.)"""
    shapes = ("n", "j", "ja_count", "ja_max", "exists", "not_exists")
    cutoffs = [f"{1978 + q // 4}-{1 + 3 * (q % 4):02d}-15" for q in range(22)]
    middle_out = sorted(range(22), key=lambda i: (abs(2 * i - 21), i))
    deck = [
        (shape, cutoffs[index])
        for shape in shapes
        for rank, index in enumerate(middle_out, start=1)
        for _ in range(max(1, round(24 / rank)))
    ]
    assert len(deck) == 528
    db = make_db()
    statements = {s: db.prepare(SHAPES[s].format(c="?")) for s in shapes}
    registry = db.plan_cache.sharing
    assert registry.capacity == DEFAULT_SHARED_CAP == 128
    rng = random.Random(7)
    answers: dict[tuple, Counter] = {}
    built = []
    for _ in range(5):
        rng.shuffle(deck)
        before = registry.materializations
        for shape, cutoff in deck:
            rows = Counter(statements[shape].execute((cutoff,)).result.rows)
            assert answers.setdefault((shape, cutoff), rows) == rows
        built.append(registry.materializations - before)
        assert len(registry) <= 128
    assert built == [22 * 5 + 2, 0, 0, 0, 0], built
    assert all(entry.active == 0 for entry in registry._entries.values())
    for shape, statement in statements.items():
        oracle = db.run(SHAPES[shape].format(c=f"'{cutoffs[11]}'"), "nested_iteration")
        assert answers[shape, cutoffs[11]] == Counter(oracle.result.rows)
        statement.close()
    db.plan_cache.clear()
    assert len(registry) == 0 and leaked_pages(db.catalog) == 0


def test_leased_last_link_leaves_upstream_entries_alone(monkeypatch):
    db = make_db()
    statement = db.prepare(JA)
    first = statement.execute((CUTOFF,))
    registry = db.plan_cache.sharing
    plan = statement._resolve()
    upstream = link_keys(registry, plan)[:1]
    assert list(registry._entries)[:1] == upstream  # built first: oldest

    pinned: list[list[int]] = []
    real = SingleLevelExecutor.execute

    def watching(self, select, consume):
        pinned.append([registry._entries[key].active for key in upstream])
        return real(self, select, consume)

    with monkeypatch.context() as patch:
        patch.setattr(SingleLevelExecutor, "execute", watching)
        second = statement.execute((CUTOFF,))
    # One block ran — the final one — with no lease on the upstream
    # temp, which also kept its (least recently used) place.
    assert pinned == [[0]]
    assert list(registry._entries)[:1] == upstream
    names = [sql.split()[0] for sql in second.setup_sql]
    assert second.steps[:-1] == [
        f"shared {names[2]}", f"{names[0]}, {names[1]} not read"
    ]
    assert list(second.temp_pages) == [names[2]]
    assert "last replay: not read" in statement.describe()
    assert "last replay: shared" in statement.describe()

    # Evicted, the upstream temps are not missed: nothing is rebuilt.
    evict(registry, upstream)
    assert len(registry) == 2
    published = registry.materializations
    third = statement.execute((CUTOFF,))
    assert registry.materializations == published and len(registry) == 2
    assert third.steps[:-1] == second.steps[:-1]
    assert Counter(third.result.rows) == Counter(first.result.rows)
    assert all(entry.active == 0 for entry in registry._entries.values())


def test_rebuilding_the_last_link_leases_what_it_reads(monkeypatch):
    db = make_db()
    statement = db.prepare(JA)
    first = statement.execute((CUTOFF,))
    registry = db.plan_cache.sharing
    keys = link_keys(registry, statement._resolve())
    evict(registry, keys[1:])
    blocks: list[str] = []
    real = SingleLevelExecutor.execute

    def counting(self, block, consume):
        blocks.append(block.select.from_tables[0].name)
        return real(self, block, consume)

    monkeypatch.setattr(SingleLevelExecutor, "execute", counting)
    published = registry.materializations
    again = statement.execute((CUTOFF,))
    names = [sql.split()[0] for sql in again.setup_sql]
    # The interior link was never registered: it is built again, and
    # only the last link is published.
    assert [step.split(":")[0] for step in again.steps] == [
        f"shared {names[0]}", f"built {names[1]}", f"built {names[2]}", "final"
    ]
    assert len(blocks) == 3  # two links and the final block
    assert registry.materializations == published + 1
    assert list(again.temp_pages) == names
    assert Counter(again.result.rows) == Counter(first.result.rows)


def test_present_links_are_read_and_transactions_stay_private():
    db = make_db()
    sql = SHAPES["ja_count"].format(c=f"'{CUTOFF}'")
    # Planning builds nothing: the replay builds the chain and then
    # evaluates the type-A block's value link, in chain order.
    folded = db.run(sql + " AND QOH <= (SELECT MAX(QUAN) FROM SUPPLY)")
    assert [step.split()[0] for step in folded.steps] == [
        "built", "built", "built", "evaluated", "final:"
    ]
    assert len(folded.temp_pages) == 3
    registry = db.plan_cache.sharing
    assert len(registry) == 0

    db.execute_cached(sql)
    published, entries = registry.materializations, list(registry._entries)
    with db.begin() as txn:
        txn.insert("PARTS", [(999, 0)])
        with db.catalog.snapshots.pinned(txn.snapshot()):
            inside = db.execute_cached(sql)
        assert (999,) in inside.result.rows
        assert [step.split()[0] for step in inside.steps] == [
            "built", "built", "built", "final:"
        ]
        txn.rollback()
    assert registry.materializations == published
    assert list(registry._entries) == entries  # not even refreshed
    assert all(entry.active == 0 for entry in registry._entries.values())
    db.plan_cache.clear()
    assert len(registry) == 0 and leaked_pages(db.catalog) == 0
