"""Page-leak accounting: every live page must have an owner.

A page on the simulated disk is *owned* when a catalog can name it: it
belongs to a table's heap (base or registered temp) or to an index's
leaves.  Everything a query builds on the way — operator scratch, the
result heap, session temps, memoized and shared temps — must be freed
by whoever owns it (DESIGN.md, "Who frees what"), so once the plan
cache is cleared the disk holds owned pages and nothing else.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog


def leaked_pages(catalog: Catalog) -> int:
    """Live disk pages no table or index of ``catalog`` accounts for."""
    owned = sum(
        catalog.heap_of(name).num_pages for name in catalog.table_names()
    ) + sum(index.num_pages for index in catalog.indexes.values())
    return catalog.buffer.disk.num_pages - owned
