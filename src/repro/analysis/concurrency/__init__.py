"""Concurrency correctness toolkit.

Three cooperating layers over the concurrent parts of the codebase
(the serving read path, the buffer pool and the WAL/MVCC commit
path):

* :mod:`repro.analysis.concurrency.lockgraph` — a **static lock-order
  lint** (rules ``CC001``–``CC004``): an AST pass over ``src/repro``
  that recognizes lock objects, builds an interprocedural
  lock-acquisition graph, and reports order cycles, I/O under latches,
  non-guaranteed releases, and unguarded shared module state.
* :mod:`repro.analysis.concurrency.witness` — a **runtime lock
  witness**: an opt-in shim (``REPRO_WITNESS=1`` or
  :func:`witness.enable`) that wraps every recognized lock, records
  per-thread acquisition order into a process-wide graph, and raises on
  the first observed order cycle or reader→writer upgrade.
* :mod:`repro.txn.monitors` — **transaction invariant monitors**
  (rules ``TX001``–``TX004``): cheap always-on assertions on the
  WAL/MVCC commit path (LSN monotonicity, flush-before-publish,
  horizon monotonicity, snapshot immutability).

``python -m repro check --concurrency`` runs the static rules over the
source tree against a curated-clean baseline; ``--selftest`` addition
ally proves each analyzer detects its seeded-bug fixture.
"""

from repro.analysis.concurrency.lockgraph import (
    FileFinding,
    analyze_paths,
    analyze_tree,
)
from repro.analysis.concurrency.witness import (
    LockOrderError,
    LockWitness,
    witness,
)

__all__ = [
    "FileFinding",
    "LockOrderError",
    "LockWitness",
    "analyze_paths",
    "analyze_tree",
    "witness",
]
