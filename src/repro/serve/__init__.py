"""Query serving layer: plan cache, prepared statements, concurrency.

The paper's transformations (NEST-N-J, NEST-JA2, NEST-G) are static
rewrites: they depend only on the SQL text and on the catalog's schema
and statistics.  This package memoizes exactly that work.  A query
served from the cache skips parse → qualify → rewrite → transform →
verify → lint and goes straight to temp-table builds plus the final
canonical execution, with per-row expressions reusing memoized compiled
closures (:mod:`repro.engine.compile`).

Layers:

* :mod:`repro.serve.session` — a per-execution catalog overlay so N
  threads can replay the same plan (with its fixed temp-table names)
  concurrently;
* :mod:`repro.serve.normalize` — literal parameterization and the
  normalized-SQL fingerprint that keys the cache;
* :mod:`repro.serve.plan` — building and replaying plans (the one
  statement path; ``Engine.run`` is this with no cache);
* :mod:`repro.serve.binding` — verifier-derived type/nullability
  checks applied to parameter vectors at bind time;
* :mod:`repro.serve.cache` — the LRU plan cache, the one store of kept
  plans and the rule that resolves a statement to its plan, with
  hit/miss/invalidation counters, wired to
  :class:`~repro.catalog.catalog.Catalog` change hooks;
* :mod:`repro.serve.prepared` — prepared statements: the text; the
  plans, and the bind contracts with them, are the cache's.
"""

from repro.serve.cache import CacheStats, PlanCache
from repro.serve.plan import CachedPlan, build_plan
from repro.serve.prepared import PreparedStatement
from repro.serve.session import SessionCatalog

__all__ = [
    "CacheStats",
    "CachedPlan",
    "PlanCache",
    "PreparedStatement",
    "SessionCatalog",
    "build_plan",
]
