"""The paper's analytical page-I/O cost model (section 7).

Notation follows Kim [KIM 82:462] as the paper restates it:

* ``Ri`` — outer relation, ``Pi`` pages, ``Ni`` tuples;
* ``Rj`` — inner relation, ``Pj`` pages;
* ``Rt2`` — projection/restriction of Ri's join column, ``Pt2`` pages,
  ``Nt2`` tuples;
* ``Rt3`` — projection/restriction of Rj, ``Pt3`` pages;
* ``Rt4`` — the join of Rt2 with Rt3, ``Pt4`` pages;
* ``Rt`` — the grouped temporary (aggregate per join-column value),
  ``Pt`` pages;
* ``B`` — buffer pages; ``f(i)`` — selectivity of Ri's simple
  predicates (the model uses the product ``f(i)·Ni`` directly);
* a sort costs ``2·P·log_{B-1}(P)`` page I/Os.

The paper's worked example (section 7.4): with Pi=50, Pj=30, Pt2=7,
Pt3=10, Pt4=8, Pt=5, B=6 and f(i)·Ni=100, nested iteration costs
**3 050** page fetches while the transformation with two merge joins
costs **about 475** (the formulas below give 478.6 with continuous
logarithms — see DESIGN.md, "Cost-model logarithms").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PlanError

#: Logarithm modes.  The paper's own section 7.4 arithmetic implies
#: continuous logs; Kim's 1982 figures are consistent with ceiling logs
#: (whole merge passes).  Both are provided.
LOG_CONTINUOUS = "continuous"
LOG_CEIL = "ceil"


def log_passes(pages: float, buffer_pages: int, mode: str = LOG_CONTINUOUS) -> float:
    """``log_{B-1}(P)`` — the number of merge passes over a P-page file."""
    if pages <= 1:
        return 0.0
    base = max(2, buffer_pages - 1)
    value = math.log(pages, base)
    if mode == LOG_CEIL:
        return float(math.ceil(value))
    if mode == LOG_CONTINUOUS:
        return value
    raise PlanError(f"unknown log mode {mode!r}")


def sort_cost(pages: float, buffer_pages: int, mode: str = LOG_CONTINUOUS) -> float:
    """``2·P·log_{B-1}(P)`` — the paper's sort cost."""
    return 2.0 * pages * log_passes(pages, buffer_pages, mode)


@dataclass(frozen=True)
class CostParameters:
    """Inputs to the section-7 cost formulas.

    ``fi_ni`` is the paper's ``f(i)·Ni`` — the number of outer tuples
    that survive the simple predicates and therefore drive one inner
    evaluation each under nested iteration.
    """

    pi: float
    pj: float
    pt2: float = 0.0
    pt3: float = 0.0
    pt4: float = 0.0
    pt: float = 0.0
    buffer_pages: int = 6
    fi_ni: float = 0.0
    nt2: float = 0.0

    #: Section 7.4's example parameters (Kim's query Q3 with MAX()).
    @classmethod
    def paper_section_7_4(cls) -> "CostParameters":
        return cls(
            pi=50, pj=30, pt2=7, pt3=10, pt4=8, pt=5,
            buffer_pages=6, fi_ni=100, nt2=100,
        )


# ---------------------------------------------------------------------------
# Nested iteration
# ---------------------------------------------------------------------------


def nested_iteration_cost(params: CostParameters) -> float:
    """Worst-case nested iteration for a correlated nested query.

    The inner relation is retrieved once per qualifying outer tuple:
    ``Pi + f(i)·Ni·Pj`` (section 7.4's 3 050 = 50 + 100·30).
    """
    return params.pi + params.fi_ni * params.pj


def nested_iteration_cost_buffered(params: CostParameters) -> float:
    """Best case: the inner relation fits in ``B - 1`` buffer pages, so
    rescans are free after the first read — ``Pi + Pj``."""
    return params.pi + params.pj


def nested_iteration_cost_auto(params: CostParameters) -> float:
    """Nested iteration with the buffer taken into account."""
    if params.pj <= params.buffer_pages - 1:
        return nested_iteration_cost_buffered(params)
    return nested_iteration_cost(params)


def nested_iteration_cost_indexed(
    params: CostParameters, matches_per_probe: float
) -> float:
    """Nested iteration probing an index on the inner join column.

    Each qualifying outer tuple costs roughly one index-leaf page plus
    the heap pages of its matching tuples (assumed uncluttered: one
    page per match, capped at the whole relation):
    ``Pi + f(i)·Ni · (1 + min(Pj, ⌈matches⌉))``.
    """
    per_probe = 1.0 + min(params.pj, math.ceil(max(0.0, matches_per_probe)))
    return params.pi + params.fi_ni * per_probe


# ---------------------------------------------------------------------------
# NEST-N-J transformation (type-N / type-J)
# ---------------------------------------------------------------------------


def transform_nj_cost(
    pi: float,
    pj: float,
    buffer_pages: int,
    result_pages: float = 0.0,
    mode: str = LOG_CONTINUOUS,
) -> float:
    """Canonical-query evaluation by sort + merge join.

    Sort both relations, scan both for the merge, and write the result:
    ``2·Pi·log(Pi) + 2·Pj·log(Pj) + 2·(Pi + Pj) + Presult`` — the
    ``2·(Pi+Pj)`` covers the initial read into the sort plus the merge
    scan (the paper folds the first read into the sort term's runs).
    """
    return (
        sort_cost(pi, buffer_pages, mode)
        + sort_cost(pj, buffer_pages, mode)
        + 2 * (pi + pj)
        + result_pages
    )


# ---------------------------------------------------------------------------
# NEST-JA2 (section 7.1–7.4)
# ---------------------------------------------------------------------------


def outer_projection_cost(params: CostParameters, mode: str = LOG_CONTINUOUS) -> float:
    """Section 7.1 — create Rt2 from Ri with duplicates removed:
    ``Pi + Pt2 + 2·Pt2·log(Pt2)``; Rt2 emerges in join-column order."""
    return params.pi + params.pt2 + sort_cost(params.pt2, params.buffer_pages, mode)


def temp_creation_cost_merge(params: CostParameters, mode: str = LOG_CONTINUOUS) -> float:
    """Section 7.2, merge-join method — create Rt from Rj:

    ``Pj + Pt3 + 2·Pt3·log(Pt3) + Pt2 + Pt3 + 2·Pt4 + Pt``

    Reading Rj and writing Rt3 (projection/restriction), sorting Rt3,
    merge-joining Rt2 with Rt3 (read both, write Rt4), then the GROUP BY:
    Rt4 is already in group order (it was produced by a merge join on
    the grouping column), so it is read once and Rt written.
    """
    return (
        params.pj
        + params.pt3
        + sort_cost(params.pt3, params.buffer_pages, mode)
        + params.pt2
        + params.pt3
        + 2 * params.pt4
        + params.pt
    )


def temp_creation_cost_nested(params: CostParameters, mode: str = LOG_CONTINUOUS) -> float:
    """Section 7.2, nested-loop method — create Rt from Rj.

    If Rt3 fits into ``B - 1`` pages the join costs ``Pj + Pt2 + Pt4``
    (Rt3 is built in memory while scanning Rj).  Otherwise Rt3 is
    materialized and rescanned per Rt2 tuple:
    ``Pj + Pt3 + Pt2 + Nt2·Pt3 + Pt4``.

    Either way the GROUP BY then reads Rt4 and writes Rt (the nested
    loop iterates Rt2 — which is in group-column order — as the outer,
    so no extra sort is needed).
    """
    group_by = params.pt4 + params.pt
    if params.pt3 <= params.buffer_pages - 1:
        return params.pj + params.pt2 + params.pt4 + group_by
    return (
        params.pj
        + params.pt3
        + params.pt2
        + params.nt2 * params.pt3
        + params.pt4
        + group_by
    )


def final_join_cost_merge(params: CostParameters, mode: str = LOG_CONTINUOUS) -> float:
    """Section 7.3, merge join of Rt with Ri:
    ``2·Pi·log(Pi) + Pi + Pt`` — Rt is already in join-column order,
    only Ri must be sorted (assuming Ri is not reduced in size)."""
    return sort_cost(params.pi, params.buffer_pages, mode) + params.pi + params.pt


def final_join_cost_nested(params: CostParameters) -> float:
    """Section 7.3, nested-iteration join of Rt with Ri:
    ``Pi + Pt`` when Rt fits in the buffer, else ``Pi + f(i)·Ni·Pt``."""
    if params.pt <= params.buffer_pages - 1:
        return params.pi + params.pt
    return params.pi + params.fi_ni * params.pt


@dataclass(frozen=True)
class Ja2CostBreakdown:
    """The four total costs of section 7.4 plus their shared pieces."""

    outer_projection: float
    temp_merge: float
    temp_nested: float
    final_merge: float
    final_nested: float

    @property
    def merge_merge(self) -> float:
        return self.outer_projection + self.temp_merge + self.final_merge

    @property
    def merge_nested(self) -> float:
        return self.outer_projection + self.temp_merge + self.final_nested

    @property
    def nested_merge(self) -> float:
        return self.outer_projection + self.temp_nested + self.final_merge

    @property
    def nested_nested(self) -> float:
        return self.outer_projection + self.temp_nested + self.final_nested

    def variants(self) -> dict[str, float]:
        return {
            "merge+merge": self.merge_merge,
            "merge+nested": self.merge_nested,
            "nested+merge": self.nested_merge,
            "nested+nested": self.nested_nested,
        }

    def best(self) -> tuple[str, float]:
        return min(self.variants().items(), key=lambda kv: kv[1])


def ja2_costs(params: CostParameters, mode: str = LOG_CONTINUOUS) -> Ja2CostBreakdown:
    """All NEST-JA2 evaluation costs for one parameter set."""
    return Ja2CostBreakdown(
        outer_projection=outer_projection_cost(params, mode),
        temp_merge=temp_creation_cost_merge(params, mode),
        temp_nested=temp_creation_cost_nested(params, mode),
        final_merge=final_join_cost_merge(params, mode),
        final_nested=final_join_cost_nested(params),
    )


# ---------------------------------------------------------------------------
# Hash-based operators (an extension beyond section 7's repertoire)
# ---------------------------------------------------------------------------
#
# The paper costs only sort-merge and nested-loop evaluation.  The
# executor's ``join_method="hash"`` adds hash operators that build their
# table in memory whatever ``B`` is (``hash_join``,
# ``hash_group_aggregate`` and ``hash_distinct`` never spill), so the
# model charges what runs: each input read once, each output written
# once.  No sort terms, and no partitioning pass either.


def hash_join_cost(
    p_build: float, p_probe: float, result_pages: float = 0.0
) -> float:
    """Hash equi join building on ``p_build``, probing with ``p_probe``:
    ``Pbuild + Pprobe + Presult``.  No sort terms — that is the whole
    point versus :func:`transform_nj_cost`."""
    return p_build + p_probe + result_pages


def hash_aggregate_cost(p_in: float, result_pages: float = 0.0) -> float:
    """Hash GROUP BY / DISTINCT over a ``p_in``-page input: one scan,
    ``Pin + Presult``."""
    return p_in + result_pages


def outer_projection_cost_hash(params: CostParameters) -> float:
    """Section 7.1's Rt2 creation with hash dedup instead of a sort:
    read Ri, write Rt2 (``Pi + Pt2``)."""
    return params.pi + params.pt2


def temp_creation_cost_hash(params: CostParameters) -> float:
    """Section 7.2's Rt creation with hash join + hash GROUP BY:

    ``Pj + Pt3`` (projection/restriction of Rj), the hash join of Rt2
    with Rt3 writing Rt4, then hash aggregation of Rt4 writing Rt —
    no sort of Rt3 and no reliance on Rt2's order.
    """
    return (
        params.pj
        + params.pt3
        + hash_join_cost(params.pt2, params.pt3, params.pt4)
        + hash_aggregate_cost(params.pt4, params.pt)
    )


def final_join_cost_hash(params: CostParameters) -> float:
    """Section 7.3's final join by hash: build on Rt (the small grouped
    temp), probe with Ri — ``Ri`` needs no sort."""
    return hash_join_cost(params.pt, params.pi)


def ja2_hash_cost(params: CostParameters) -> float:
    """Total NEST-JA2 cost with hash operators throughout."""
    return (
        outer_projection_cost_hash(params)
        + temp_creation_cost_hash(params)
        + final_join_cost_hash(params)
    )
