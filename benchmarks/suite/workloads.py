"""Workload definitions: schema, generated rows, statement shapes, op blocks.

Everything the program sees comes from here and from ``--seed``: the
harness generates its own rows and SQL and imports nothing from
``repro.bench``, ``repro.workloads`` or ``repro.difftest``.

The dimensions varied are the ones the engine's behaviour depends on:
data size relative to the buffer pool ``B`` (the paper's cost
parameter), how often a parameter binding repeats (uniform vs. zipf
cutoffs), how much work statements share (ad-hoc text vs. the serving
path's memoized and cross-query-shared temps), and the read/write mix.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

#: rows per page for both base tables (the paper's example geometry).
ROWS_PER_PAGE = 10

#: Statement shapes, named after the paper's nesting types.  ``{c}`` is
#: the SHIPDATE cutoff: a quoted literal for ad-hoc text, ``?`` when
#: prepared.
SHAPES: dict[str, str] = {
    "n": "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {c})",
    "j": "SELECT PNUM FROM PARTS WHERE QOH IN "
    "(SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    "ja_count": "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    "ja_max": "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT MAX(QUAN) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    "a": "SELECT PNUM FROM PARTS WHERE QOH < "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < {c})",
    "exists": "SELECT PNUM FROM PARTS WHERE EXISTS "
    "(SELECT * FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    "not_exists": "SELECT PNUM FROM PARTS WHERE NOT EXISTS "
    "(SELECT * FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    "ja_neq": "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT MAX(QUAN) FROM SUPPLY "
    "WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < {c})",
    "not_in": "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {c})",
    "two_preds": "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {c}) AND QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
    # type-N over type-JA
    "depth2": "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY S1 WHERE QUAN = "
    "(SELECT MAX(QUAN) FROM SUPPLY S2 "
    "WHERE S2.PNUM = S1.PNUM AND S2.SHIPDATE < {c}))",
    # A disjunction is outside NEST-G's reach: nested iteration, which
    # probes the ISAM index on SUPPLY.PNUM when there is one.
    "or_fallback": "SELECT PNUM FROM PARTS WHERE QOH = 0 OR QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
}

_SERVING_SHAPES = ("n", "j", "ja_count", "ja_max", "exists", "not_exists")

#: The 22 cutoff literals: the 15th of each quarter, 1978Q1..1983Q2.
DATE_POOL: tuple[str, ...] = tuple(
    f"{1978 + q // 4}-{1 + 3 * (q % 4):02d}-15" for q in range(22)
)

# zipf(1) popularity: the date of rank r is drawn round(24/r) times per
# deck of 88 cards, decks are shuffled by the seed and dealt without
# replacement, so every 88 reads have exactly the same cutoff mix.
# Which date holds which rank is fixed (middle of the pool outwards),
# not drawn from the seed: a statement's cost grows with its cutoff, so
# a seeded ranking would make the cost profile differ from seed to seed.
_MIDDLE_OUT = sorted(range(len(DATE_POOL)), key=lambda i: (abs(2 * i - 21), i))
ZIPF_DECK: tuple[str, ...] = tuple(
    DATE_POOL[index]
    for rank, index in enumerate(_MIDDLE_OUT, start=1)
    for _ in range(max(1, round(24 / rank)))
)


class Op(NamedTuple):
    """One client operation: ``kind`` is the public API call used."""

    kind: str  # "query" | "cached" | "prepared" | "insert"
    shape: str  # a SHAPES key, or "insert"
    arg: object  # the cutoff date, or the tuple of rows to insert


@dataclass(frozen=True)
class Instance:
    parts: list[tuple[int, int]]
    supply: list[tuple[int, int, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_parts: int
    n_supply: int
    #: Database kwargs the workload asks for (see runner.make_db).
    config: dict = field(hash=False)
    index: bool
    shapes: tuple[str, ...]
    #: API call of each read of one shape within a block.
    read_kinds: tuple[str, ...]
    writes_per_block: int
    zipf: bool
    #: Fixed op count of ``python -m benchmarks.suite run``.
    ops: int
    #: Commits go to a WAL file (fsync per commit) and recovery is timed.
    durable: bool = False
    setup_reps: int = 9
    #: Untimed blocks run first, so that timing starts in the steady
    #: state of the program's caches (memoized and shared temps).
    warm_blocks: int = 0
    #: ``peak_rss_mb`` is read when this op of the timed section is
    #: done, so it does not depend on how many ops the time allowed.
    rss_at_op: int = 0

    @property
    def block_size(self) -> int:
        return len(self.shapes) * len(self.read_kinds) + self.writes_per_block


_DEDUPE = {"dedupe_inner": True, "dedupe_outer": True}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="adhoc_tiny",
            why="10/30 rows, B=32, ad-hoc text: execution is at its fixed floor, "
            "so parse, qualify, NEST-G, verify and per-block set-up show; "
            "plan cache bypassed",
            n_parts=10,
            n_supply=30,
            config={"buffer_pages": 32, **_DEDUPE},
            index=True,
            shapes=tuple(SHAPES),
            read_kinds=("query",),
            writes_per_block=0,
            zipf=False,
            ops=7200,
            setup_reps=25,
            rss_at_op=2400,
        ),
        Workload(
            name="scan_big",
            why="2000/20000 rows (2200 pages) against B=64, hash join, vectorized: "
            "operators and buffer/disk dominate; the larger-than-cache case",
            n_parts=2000,
            n_supply=20000,
            config={
                "buffer_pages": 64,
                "join_method": "hash",
                "engine": "vectorized",
                **_DEDUPE,
            },
            index=False,
            shapes=("n", "j", "ja_count", "ja_max", "a", "exists", "not_exists"),
            read_kinds=("query",),
            writes_per_block=0,
            zipf=False,
            ops=420,
            rss_at_op=105,
        ),
        Workload(
            name="serve_hot",
            why="500/5000 rows (550 pages) in B=1024, execute_cached and prepared, "
            "zipf cutoffs: plan-cache hits replaying memoized and shared temps",
            n_parts=500,
            n_supply=5000,
            config={"buffer_pages": 1024, **_DEDUPE},
            index=False,
            shapes=_SERVING_SHAPES,
            read_kinds=("cached", "prepared"),
            writes_per_block=0,
            zipf=True,
            ops=720,
            warm_blocks=20,
            rss_at_op=120,
        ),
        Workload(
            name="mixed_rw",
            why="serve_hot's data, 90% prepared reads, 10% 5-row autocommit inserts "
            "to a WAL file: every commit flushes memos and shared temps; runs txn",
            n_parts=500,
            n_supply=5000,
            config={"buffer_pages": 1024, **_DEDUPE},
            index=False,
            shapes=_SERVING_SHAPES,
            read_kinds=("prepared",) * 3,
            writes_per_block=2,
            zipf=True,
            ops=1000,
            durable=True,
            warm_blocks=2,
            rss_at_op=120,
        ),
    )
}

#: Rows per autocommit insert on ``mixed_rw``.
INSERT_ROWS = 5


def workload_rng(seed: int, name: str) -> random.Random:
    """The one generator a workload's rows and ops are drawn from."""
    return random.Random(f"{seed}:{name}")


def _supply_row(rng: random.Random, n_parts: int) -> tuple[int, int, str]:
    # A tenth of the shipments name parts that do not exist, and some
    # parts get no shipment: both sides of every outer join are hit.
    pnum = rng.randrange(1, n_parts + 1 + n_parts // 10)
    date = f"{rng.randrange(1977, 1985)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
    return (pnum, rng.randrange(1, 8), date)


def make_instance(workload: Workload, rng: random.Random) -> Instance:
    parts = [(pnum, rng.randrange(0, 8)) for pnum in range(1, workload.n_parts + 1)]
    supply = [_supply_row(rng, workload.n_parts) for _ in range(workload.n_supply)]
    return Instance(parts, supply)


def _cutoffs(workload: Workload, rng: random.Random) -> Iterator[str]:
    if not workload.zipf:
        while True:
            yield rng.choice(DATE_POOL)
    deck = list(ZIPF_DECK)
    while True:
        rng.shuffle(deck)
        yield from deck


def op_blocks(workload: Workload, rng: random.Random) -> Iterator[list[Op]]:
    """Endless stream of shuffled blocks.

    Every block holds each shape once per entry of ``read_kinds`` (plus
    the block's writes), so any whole number of blocks has exactly the
    same statement mix: per-statement means do not depend on where the
    run stopped.
    """
    cutoffs = _cutoffs(workload, rng)
    while True:
        block = [
            Op(kind, shape, next(cutoffs))
            for shape in workload.shapes
            for kind in workload.read_kinds
        ]
        for _ in range(workload.writes_per_block):
            rows = tuple(_supply_row(rng, workload.n_parts) for _ in range(INSERT_ROWS))
            block.append(Op("insert", "insert", rows))
        rng.shuffle(block)
        yield block


def sql_text(shape: str, cutoff: str) -> str:
    return SHAPES[shape].format(c=f"'{cutoff}'")


def prepared_text(shape: str) -> str:
    return SHAPES[shape].format(c="?")


def ops_digest(workload: Workload, seed: int, blocks: int = 20) -> str:
    """Digest of the generated rows and the first ``blocks`` op blocks."""
    rng = workload_rng(seed, workload.name)
    instance = make_instance(workload, rng)
    digest = hashlib.sha256(repr((instance.parts, instance.supply)).encode())
    for block in itertools.islice(op_blocks(workload, rng), blocks):
        digest.update(repr(block).encode())
    return digest.hexdigest()
