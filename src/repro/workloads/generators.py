"""Synthetic workload generators for the benchmarks.

The paper's evaluation is parameterized by relation sizes in pages
(``Pi``, ``Pj``), buffer size ``B``, and selectivities.  These
generators build scalable PARTS/SUPPLY-style instances with controlled
page geometry so the measured page I/O can be compared against the
section 7 formulas.

Determinism: every generator takes a ``seed`` and uses its own
:class:`random.Random`, so benchmark runs are reproducible.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType, schema
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

#: The date cutoff used by generated correlated queries.
CUTOFF = "1980-01-01"

_DATES_BEFORE = ["1975-03-01", "1977-08-14", "1978-06-08", "1979-12-30"]
_DATES_AFTER = ["1981-08-10", "1983-05-07", "1985-01-15"]


@dataclass(frozen=True)
class PartsSupplySpec:
    """Shape of a synthetic PARTS/SUPPLY instance.

    Attributes:
        num_parts: rows in PARTS (one per distinct PNUM unless
            ``duplicate_fraction`` > 0).
        num_supply: rows in SUPPLY.
        rows_per_page: page geometry for both tables.
        buffer_pages: buffer pool size ``B``.
        match_fraction: fraction of SUPPLY rows whose PNUM exists in
            PARTS (the rest dangle — they exercise outer-join paths).
        before_cutoff_fraction: fraction of SHIPDATEs before the cutoff.
        duplicate_fraction: fraction of extra duplicate-PNUM rows to
            append to PARTS (the section 5.4 scenario).
        seed: RNG seed.
        io_delay: simulated per-page-read latency in seconds, passed to
            the instance's :class:`DiskManager` (models I/O-bound
            scans — reads sleep outside all locks, so concurrent
            readers overlap their waits).
        skew: when > 0, draw SUPPLY's matching PNUMs from a zipf-ish
            distribution instead of uniformly (see :func:`skewed_keys`);
            higher values concentrate shipments on a few hot parts,
            which stresses hash-join build chains.
    """

    num_parts: int = 50
    num_supply: int = 200
    rows_per_page: int = 10
    buffer_pages: int = 6
    match_fraction: float = 0.9
    before_cutoff_fraction: float = 0.7
    duplicate_fraction: float = 0.0
    seed: int = 0
    io_delay: float = 0.0
    skew: float = 0.0


def skewed_keys(
    rng: random.Random, universe: list, count: int, skew: float
) -> list:
    """Draw ``count`` keys from ``universe`` with zipf-ish skew.

    ``skew`` is the Zipf exponent ``s``: key rank ``r`` (1-based) gets
    weight ``1 / r**s``.  ``s = 0`` is uniform; ``s = 1`` is classic
    Zipf (the hottest key drawn ~``H_n`` times more often than the
    coldest); larger ``s`` concentrates harder.  Uses inverse-CDF
    sampling over the precomputed cumulative weights, so it needs no
    external dependencies and stays deterministic under the caller's
    ``rng``.
    """
    if not universe:
        return []
    if skew <= 0.0:
        return [rng.choice(universe) for _ in range(count)]
    weights = [1.0 / (rank**skew) for rank in range(1, len(universe) + 1)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    picks = []
    for _ in range(count):
        point = rng.random() * total
        picks.append(universe[bisect.bisect_left(cumulative, point)])
    return picks


def build_parts_supply(spec: PartsSupplySpec) -> Catalog:
    """Materialize a PARTS/SUPPLY instance per the spec.

    QOH values are drawn to match plausible per-part shipment counts so
    that COUNT-style correlated queries return non-trivial results
    (including zero-count parts).
    """
    rng = random.Random(spec.seed)
    catalog = Catalog(
        BufferPool(
            DiskManager(io_delay=spec.io_delay), capacity=spec.buffer_pages
        )
    )
    catalog.create_table(
        schema("PARTS", "PNUM", "QOH", key=("PNUM",)),
        rows_per_page=spec.rows_per_page,
    )
    catalog.create_table(
        schema("SUPPLY", "PNUM", "QUAN", ("SHIPDATE", ColumnType.DATE)),
        rows_per_page=spec.rows_per_page,
    )

    pnums = list(range(1, spec.num_parts + 1))
    expected = spec.num_supply / max(1, spec.num_parts)
    parts_rows = [
        (pnum, rng.randint(0, max(2, int(2 * expected)))) for pnum in pnums
    ]
    extra = int(spec.duplicate_fraction * spec.num_parts)
    for _ in range(extra):
        pnum = rng.choice(pnums)
        parts_rows.append((pnum, rng.randint(0, max(2, int(2 * expected)))))
    catalog.insert("PARTS", parts_rows)

    # Skewed draws are pre-sampled (skew=0 keeps the legacy call order,
    # so existing seeds reproduce byte-identical instances).
    hot = (
        iter(skewed_keys(rng, pnums, spec.num_supply, spec.skew))
        if spec.skew > 0
        else None
    )
    supply_rows = []
    for _ in range(spec.num_supply):
        if rng.random() < spec.match_fraction:
            pnum = next(hot) if hot is not None else rng.choice(pnums)
        else:
            pnum = spec.num_parts + rng.randint(1, 10)  # dangling
        quan = rng.randint(1, 9)
        if rng.random() < spec.before_cutoff_fraction:
            date = rng.choice(_DATES_BEFORE)
        else:
            date = rng.choice(_DATES_AFTER)
        supply_rows.append((pnum, quan, date))
    catalog.insert("SUPPLY", supply_rows)
    return catalog


#: The type-JA query the generated instances are benchmarked with —
#: Kiessling's Q2 shape at scale.
GENERATED_JA_QUERY = f"""
    SELECT PNUM FROM PARTS
    WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
                 WHERE SUPPLY.PNUM = PARTS.PNUM AND
                       SHIPDATE < '{CUTOFF}')
"""

#: A type-JA query with MAX (Kim's Q3 shape, the section 7.4 example).
GENERATED_JA_MAX_QUERY = f"""
    SELECT PNUM FROM PARTS
    WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY
                 WHERE SUPPLY.PNUM = PARTS.PNUM AND
                       SHIPDATE < '{CUTOFF}')
"""

#: A type-N query over the same schema.
GENERATED_N_QUERY = f"""
    SELECT PNUM FROM PARTS
    WHERE PNUM IN (SELECT PNUM FROM SUPPLY
                   WHERE SHIPDATE < '{CUTOFF}')
"""

#: A type-J query over the same schema (correlated, no aggregate).
GENERATED_J_QUERY = """
    SELECT PNUM FROM PARTS
    WHERE QOH IN (SELECT QUAN FROM SUPPLY
                  WHERE SUPPLY.PNUM = PARTS.PNUM)
"""


@dataclass(frozen=True)
class SupplierSpec:
    """Shape of a scaled S/P/SP (suppliers-parts-shipments) instance."""

    num_suppliers: int = 30
    num_parts: int = 40
    num_shipments: int = 150
    rows_per_page: int = 8
    buffer_pages: int = 8
    seed: int = 0


_CITIES = ["London", "Paris", "Oslo", "Athens", "Rome", "Madrid"]


def build_supplier_parts(spec: SupplierSpec) -> Catalog:
    """A scaled version of the introduction's S/P/SP database."""
    rng = random.Random(spec.seed)
    catalog = Catalog(BufferPool(DiskManager(), capacity=spec.buffer_pages))
    catalog.create_table(
        schema(
            "S",
            ("SNO", ColumnType.TEXT),
            ("SNAME", ColumnType.TEXT),
            "STATUS",
            ("CITY", ColumnType.TEXT),
            key=("SNO",),
        ),
        rows_per_page=spec.rows_per_page,
    )
    catalog.create_table(
        schema(
            "P",
            ("PNO", ColumnType.TEXT),
            ("PNAME", ColumnType.TEXT),
            "WEIGHT",
            ("CITY", ColumnType.TEXT),
            key=("PNO",),
        ),
        rows_per_page=spec.rows_per_page,
    )
    catalog.create_table(
        schema(
            "SP",
            ("SNO", ColumnType.TEXT),
            ("PNO", ColumnType.TEXT),
            "QTY",
            ("ORIGIN", ColumnType.TEXT),
        ),
        rows_per_page=spec.rows_per_page,
    )

    suppliers = [
        (f"S{i}", f"Supplier{i}", rng.choice([10, 20, 30]), rng.choice(_CITIES))
        for i in range(1, spec.num_suppliers + 1)
    ]
    parts = [
        (f"P{i:04d}", f"Part{i}", rng.randint(5, 30), rng.choice(_CITIES))
        for i in range(1, spec.num_parts + 1)
    ]
    shipments = [
        (
            rng.choice(suppliers)[0],
            rng.choice(parts)[0],
            rng.randrange(50, 500, 50),
            rng.choice(_CITIES),
        )
        for _ in range(spec.num_shipments)
    ]
    catalog.insert("S", suppliers)
    catalog.insert("P", parts)
    catalog.insert("SP", shipments)
    return catalog
