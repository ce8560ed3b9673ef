"""The uncached page schedule, pinned.

``Engine.run`` is plan-then-replay since PR 16.  The table below was
captured at the commit *before* that move (367f607, where ``Engine.run``
still walked its own temp chain) and must never change because of how a
statement is driven: page reads, page writes, the pages of every temp,
the method label, and how many steps and set-up definitions a report
carries.

Regenerate (only when the physical operators themselves change)::

    PYTHONPATH=src python tests/core/test_page_schedule.py

It prints the table and marks each cell that moved against
``EXPECTED``: ``fell``, ``ROSE`` (reads or writes up), or ``CHANGED``
(a temp, the method, the steps or the rows).

PR 17 did change them (order is a property of every relation; composite
NULL-regime merge keys) and regenerated 30 ``merge`` / ``nested`` cells;
``test_order_tracking_only_saved_pages`` holds the new table to the old:
no cell reads or writes more, no ``hash`` cell moved at all.

PR 18 changed the *plan* of one shape: a type-J ``IN`` block is a restricted, projected, duplicate-free temp
(``JTEMP``) instead of a flat merge with a rowid fix-up on top.  The six
``j`` cells were regenerated; ``test_type_j_temp_costs_its_pages`` holds
them to the old ones.  The other 66 cells did not move: without a
registry the chain driver builds every link, in the order it always did.

PR 23 made every ``IN`` merge a semi-join (``FROM PARTS, SEMI NTEMP_1``)
and retired the two flags that used to ask for the inner temp and the
rowid fix-up.  The 24 cells of the four shapes that merge an ``IN`` were
regenerated; ``test_semi_join_only_saved_pages`` holds them to the old
ones.  The other 48 are bit-identical.

Since a type-A block became a value link of the chain, planning reads no
data: ``Engine.run`` evaluates the block at replay, where NEST-A used to
evaluate it while transforming, and keeps its value in memory.  The 12
``a`` / ``not_in`` cells each gained one step (``evaluated ATEMP_n``)
and one set-up definition (the link itself);
``test_value_links_moved_no_page`` holds their reads and writes, temp
pages and rows to the old ones.

The counts above are over two widths, 1 and 4 threads per query.  A
query now runs on the thread that issued it: the width-4 half of every
table is gone (33 of its cells read 1–11 pages fewer than their width-1
twins, the three ``or_fallback`` ones a different count on each run),
and the width-1 cells did not move.  Each cell runs one
or four times on one database, and every run must match it.

Then a block became one pass: every operator but the sort returns a
stream, a block writes only its result, a nested-loop inner and its
sort runs, and each restriction keeps only the columns the rest of the
block reads.  33 of the 36 cells fell (reads 12 556 → 7 715, writes
4 312 → 961 over the table); the three ``or_fallback`` cells run by
nested iteration and did not move.  ``BEFORE_ONE_PASS`` keeps the old
table, ``test_one_pass_only_saved_pages`` holds the new one to it, and
the tests of the earlier moves compare their ``BEFORE_*`` tables with
it — the table as it stood when they were pinned.

Then the answer stopped being written: a statement's final block hands
its rows to the caller, where it used to store them on a heap that the
chain driver read back and freed (section 7.3 charges nothing for the
answer).  30 cells fell (reads 7 715 → 7 579, writes 961 → 922); the
three ``ja_neq`` cells return no row and the three ``or_fallback`` ones
run by nested iteration, so those six did not move.
``BEFORE_RESULT_ROWS`` keeps the old table,
``test_result_rows_only_saved_pages`` holds the new one to it, and
``test_one_pass_only_saved_pages`` now compares ``BEFORE_ONE_PASS`` with
it.
"""

from __future__ import annotations

import pytest

from repro import Database

#: The 12 statement shapes of ``benchmarks/suite`` (copied, so tier-1
#: does not import the benchmark), with one fixed SHIPDATE cutoff.
SHAPES = {
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
    "depth2": "SELECT PNUM FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY S1 WHERE QUAN = "
    "(SELECT MAX(QUAN) FROM SUPPLY S2 "
    "WHERE S2.PNUM = S1.PNUM AND S2.SHIPDATE < {c}))",
    "or_fallback": "SELECT PNUM FROM PARTS WHERE QOH = 0 OR QOH = "
    "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {c})",
}
CUTOFF = "'1980-07-15'"
JOINS = ("merge", "nested", "hash")
#: How many cold runs of one statement a cell makes on one database:
#: every run must read and write what the first did.
RUNS = (1, 4)

#: 200 parts on 20 pages, 800 shipments on 80 pages, against B=8:
#: nothing fits, so re-reads and write-backs are part of the schedule,
#: and the NEST-JA2 temps span several pages.  Only odd part numbers
#: ship; a tenth of the shipments name parts that do not exist, so both
#: sides of every outer join are hit.
PARTS = [(p, p % 4) for p in range(1, 201)]
SUPPLY = [
    (
        (s * 7) % 110 * 2 + 1,
        (s * 3) % 7,
        f"{1978 + s % 5}-{1 + (s * 7) % 12:02d}-{1 + (s * 11) % 28:02d}",
    )
    for s in range(800)
]


def measure(shape: str, join_method: str, runs: int = 1) -> list[tuple]:
    db = Database(buffer_pages=8, join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    db.create_index("SUPPLY", "PNUM")
    cells = []
    for _ in range(runs):
        db.cold_cache()
        report = db.engine.run(SHAPES[shape].format(c=CUTOFF), method="auto")
        assert not [t for t in db.tables() if t not in ("PARTS", "SUPPLY")]
        cells.append(
            (
                report.io.page_reads,
                report.io.page_writes,
                tuple(report.temp_pages.values()),
                report.method,
                len(report.steps),
                len(report.setup_sql),
                len(report.result.rows),
            )
        )
    return cells


# (reads, writes, temp pages, method, steps, set-up definitions, rows).
EXPECTED: dict[tuple[str, str], tuple] = {
    ('n', 'merge'): (140, 41, (1,), 'transform', 2, 1, 60),
    ('n', 'nested'): (100, 1, (1,), 'transform', 2, 1, 60),
    ('n', 'hash'): (100, 1, (1,), 'transform', 2, 1, 60),
    ('j', 'merge'): (145, 47, (7,), 'transform', 2, 1, 52),
    ('j', 'nested'): (100, 7, (7,), 'transform', 2, 1, 52),
    ('j', 'hash'): (105, 7, (7,), 'transform', 2, 1, 52),
    ('ja_count', 'merge'): (172, 60, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'nested'): (135, 13, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'hash'): (127, 13, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_max', 'merge'): (169, 57, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'nested'): (134, 10, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'hash'): (127, 10, (2, 7, 1), 'transform', 4, 3, 1),
    ('a', 'merge'): (100, 0, (), 'transform', 2, 1, 200),
    ('a', 'nested'): (100, 0, (), 'transform', 2, 1, 200),
    ('a', 'hash'): (100, 0, (), 'transform', 2, 1, 200),
    ('exists', 'merge'): (167, 54, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'nested'): (125, 11, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'hash'): (124, 10, (2, 4, 4), 'transform', 4, 3, 60),
    ('not_exists', 'merge'): (167, 54, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'nested'): (125, 12, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'hash'): (124, 10, (2, 4, 4), 'transform', 4, 3, 140),
    ('ja_neq', 'merge'): (170, 60, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'nested'): (135, 13, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'hash'): (131, 22, (2, 7, 4), 'transform', 4, 3, 0),
    ('not_in', 'merge'): (100, 0, (), 'transform', 2, 1, 140),
    ('not_in', 'nested'): (100, 0, (), 'transform', 2, 1, 140),
    ('not_in', 'hash'): (100, 0, (), 'transform', 2, 1, 140),
    ('two_preds', 'merge'): (253, 61, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'nested'): (216, 14, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'hash'): (208, 14, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('depth2', 'merge'): (548, 298, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'nested'): (266, 11, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'hash'): (266, 11, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('or_fallback', 'merge'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'nested'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'hash'): (795, 0, (), 'nested_iteration', 0, 0, 55),
}

#: The whole table as pinned while every reader took one heap page per
#: batch, before a reader of one input took runs of whole pages.
BEFORE_RUNS: dict[tuple[str, str], tuple] = {
    ('n', 'merge'): (140, 41, (1,), 'transform', 2, 1, 60),
    ('n', 'nested'): (100, 1, (1,), 'transform', 2, 1, 60),
    ('n', 'hash'): (100, 1, (1,), 'transform', 2, 1, 60),
    ('j', 'merge'): (145, 47, (7,), 'transform', 2, 1, 52),
    ('j', 'nested'): (100, 7, (7,), 'transform', 2, 1, 52),
    ('j', 'hash'): (106, 7, (7,), 'transform', 2, 1, 52),
    ('ja_count', 'merge'): (173, 60, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'nested'): (136, 13, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'hash'): (128, 13, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_max', 'merge'): (170, 57, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'nested'): (135, 10, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'hash'): (128, 10, (2, 7, 1), 'transform', 4, 3, 1),
    ('a', 'merge'): (100, 0, (), 'transform', 2, 1, 200),
    ('a', 'nested'): (100, 0, (), 'transform', 2, 1, 200),
    ('a', 'hash'): (100, 0, (), 'transform', 2, 1, 200),
    ('exists', 'merge'): (167, 54, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'nested'): (125, 11, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'hash'): (124, 10, (2, 4, 4), 'transform', 4, 3, 60),
    ('not_exists', 'merge'): (167, 54, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'nested'): (125, 12, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'hash'): (124, 10, (2, 4, 4), 'transform', 4, 3, 140),
    ('ja_neq', 'merge'): (171, 60, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'nested'): (136, 13, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'hash'): (131, 22, (2, 7, 4), 'transform', 4, 3, 0),
    ('not_in', 'merge'): (100, 0, (), 'transform', 2, 1, 140),
    ('not_in', 'nested'): (100, 0, (), 'transform', 2, 1, 140),
    ('not_in', 'hash'): (100, 0, (), 'transform', 2, 1, 140),
    ('two_preds', 'merge'): (254, 61, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'nested'): (217, 14, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'hash'): (209, 14, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('depth2', 'merge'): (549, 298, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'nested'): (267, 11, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'hash'): (267, 11, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('or_fallback', 'merge'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'nested'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'hash'): (795, 0, (), 'nested_iteration', 0, 0, 55),
}

#: The whole table as pinned while a statement's final block still
#: wrote its answer to a heap, which the chain driver read back and
#: freed.
BEFORE_RESULT_ROWS: dict[tuple[str, str], tuple] = {
    ('n', 'merge'): (140, 42, (1,), 'transform', 2, 1, 60),
    ('n', 'nested'): (100, 2, (1,), 'transform', 2, 1, 60),
    ('n', 'hash'): (100, 2, (1,), 'transform', 2, 1, 60),
    ('j', 'merge'): (145, 48, (7,), 'transform', 2, 1, 52),
    ('j', 'nested'): (233, 8, (7,), 'transform', 2, 1, 52),
    ('j', 'hash'): (106, 8, (7,), 'transform', 2, 1, 52),
    ('ja_count', 'merge'): (173, 61, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'nested'): (136, 14, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'hash'): (128, 14, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_max', 'merge'): (170, 58, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'nested'): (135, 11, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'hash'): (128, 11, (2, 7, 1), 'transform', 4, 3, 1),
    ('a', 'merge'): (101, 2, (), 'transform', 2, 1, 200),
    ('a', 'nested'): (101, 2, (), 'transform', 2, 1, 200),
    ('a', 'hash'): (101, 2, (), 'transform', 2, 1, 200),
    ('exists', 'merge'): (167, 55, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'nested'): (125, 12, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'hash'): (124, 11, (2, 4, 4), 'transform', 4, 3, 60),
    ('not_exists', 'merge'): (167, 56, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'nested'): (125, 14, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'hash'): (124, 12, (2, 4, 4), 'transform', 4, 3, 140),
    ('ja_neq', 'merge'): (171, 60, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'nested'): (136, 13, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'hash'): (131, 22, (2, 7, 4), 'transform', 4, 3, 0),
    ('not_in', 'merge'): (100, 2, (), 'transform', 2, 1, 140),
    ('not_in', 'nested'): (100, 2, (), 'transform', 2, 1, 140),
    ('not_in', 'hash'): (100, 2, (), 'transform', 2, 1, 140),
    ('two_preds', 'merge'): (254, 62, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'nested'): (217, 15, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'hash'): (209, 15, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('depth2', 'merge'): (549, 299, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'nested'): (267, 12, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'hash'): (267, 12, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('or_fallback', 'merge'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'nested'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'hash'): (795, 0, (), 'nested_iteration', 0, 0, 55),
}

#: The whole table as pinned before a block's operators streamed: every
#: operator wrote its output to a heap and the next one read it back,
#: each restriction kept every column, and a build side was a temp.
BEFORE_ONE_PASS: dict[tuple[str, str], tuple] = {
    ('n', 'merge'): (151, 57, (1,), 'transform', 2, 1, 60),
    ('n', 'nested'): (111, 17, (1,), 'transform', 2, 1, 60),
    ('n', 'hash'): (111, 17, (1,), 'transform', 2, 1, 60),
    ('j', 'merge'): (160, 66, (7,), 'transform', 2, 1, 52),
    ('j', 'nested'): (254, 26, (7,), 'transform', 2, 1, 52),
    ('j', 'hash'): (119, 26, (7,), 'transform', 2, 1, 52),
    ('ja_count', 'merge'): (198, 88, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'nested'): (246, 41, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_count', 'hash'): (150, 41, (2, 7, 4), 'transform', 4, 3, 55),
    ('ja_max', 'merge'): (190, 80, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'nested'): (212, 33, (2, 7, 1), 'transform', 4, 3, 1),
    ('ja_max', 'hash'): (145, 33, (2, 7, 1), 'transform', 4, 3, 1),
    ('a', 'merge'): (102, 6, (), 'transform', 2, 1, 200),
    ('a', 'nested'): (102, 6, (), 'transform', 2, 1, 200),
    ('a', 'hash'): (102, 6, (), 'transform', 2, 1, 200),
    ('exists', 'merge'): (185, 78, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'nested'): (144, 34, (2, 4, 4), 'transform', 4, 3, 60),
    ('exists', 'hash'): (140, 34, (2, 4, 4), 'transform', 4, 3, 60),
    ('not_exists', 'merge'): (189, 84, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'nested'): (147, 40, (2, 4, 4), 'transform', 4, 3, 140),
    ('not_exists', 'hash'): (142, 40, (2, 4, 4), 'transform', 4, 3, 140),
    ('ja_neq', 'merge'): (1072, 965, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'nested'): (2353, 918, (2, 7, 4), 'transform', 4, 3, 0),
    ('ja_neq', 'hash'): (1038, 927, (2, 7, 4), 'transform', 4, 3, 0),
    ('not_in', 'merge'): (101, 5, (), 'transform', 2, 1, 140),
    ('not_in', 'nested'): (101, 5, (), 'transform', 2, 1, 140),
    ('not_in', 'hash'): (101, 5, (), 'transform', 2, 1, 140),
    ('two_preds', 'merge'): (289, 103, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'nested'): (340, 56, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('two_preds', 'hash'): (245, 56, (1, 2, 7, 4), 'transform', 5, 4, 5),
    ('depth2', 'merge'): (580, 331, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'nested'): (359, 44, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('depth2', 'hash'): (292, 44, (1, 7, 2, 1), 'transform', 5, 4, 60),
    ('or_fallback', 'merge'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'nested'): (795, 0, (), 'nested_iteration', 0, 0, 55),
    ('or_fallback', 'hash'): (795, 0, (), 'nested_iteration', 0, 0, 55),
}

#: (reads, writes) of the cells PR 17 moved, as pinned at 367f607, before
#: sort order survived ``register_temp`` and the merge join took mixed
#: ``=`` / ``<=>`` keys whole.  Everything else in those cells — temp
#: pages, method, steps, definitions, rows — did not move.
BEFORE_ORDERS: dict[tuple[str, str], tuple[int, int]] = {
    ('n', 'merge'): (151, 59),
    ('ja_count', 'merge'): (434, 324),
    ('ja_count', 'nested'): (271, 67),
    ('ja_max', 'merge'): (196, 83),
    ('ja_max', 'nested'): (229, 51),
    ('exists', 'merge'): (187, 81),
    ('exists', 'nested'): (150, 42),
    ('not_exists', 'merge'): (193, 89),
    ('not_exists', 'nested'): (153, 48),
    ('ja_neq', 'merge'): (1078, 971),
    ('ja_neq', 'nested'): (5925, 4490),
    ('two_preds', 'merge'): (306, 122),
    ('two_preds', 'nested'): (365, 83),
    ('depth2', 'merge'): (585, 336),
    ('depth2', 'nested'): (378, 65),
}


#: The ``j`` cells as pinned before type-J got its inner temp: one
#: block, no definition, the fan-out collapsed by a rowid + DISTINCT.
BEFORE_JTEMP: dict[tuple[str, str], tuple] = {
    ('j', 'merge'): (165, 75, (), 'transform', 1, 0, 52),
    ('j', 'nested'): (2102, 15, (), 'transform', 1, 0, 52),
    ('j', 'hash'): (111, 15, (), 'transform', 1, 0, 52),
}


#: (reads, writes) of the cells PR 23 moved, as pinned before an ``IN``
#: merge became a semi-join: the inner temp was joined plainly, so the
#: join wrote its columns beside the outer row's.
BEFORE_SEMI: dict[tuple[str, str], tuple[int, int]] = {
    ('n', 'merge'): (151, 58),
    ('n', 'nested'): (111, 18),
    ('n', 'hash'): (111, 18),
    ('j', 'merge'): (161, 67),
    ('j', 'nested'): (262, 27),
    ('j', 'hash'): (120, 27),
    ('two_preds', 'merge'): (289, 106),
    ('two_preds', 'nested'): (340, 57),
    ('two_preds', 'hash'): (246, 57),
    ('depth2', 'merge'): (580, 332),
    ('depth2', 'nested'): (359, 45),
    ('depth2', 'hash'): (292, 45),
}


#: The ``a`` / ``not_in`` cells as pinned while NEST-A evaluated a
#: type-A block at plan time and folded its value into the plan: no
#: set-up definition, one step.
BEFORE_VALUE_LINKS: dict[tuple[str, str], tuple] = {
    ('a', 'merge'): (102, 6, (), 'transform', 1, 0, 200),
    ('a', 'nested'): (102, 6, (), 'transform', 1, 0, 200),
    ('a', 'hash'): (102, 6, (), 'transform', 1, 0, 200),
    ('not_in', 'merge'): (101, 5, (), 'transform', 1, 0, 140),
    ('not_in', 'nested'): (101, 5, (), 'transform', 1, 0, 140),
    ('not_in', 'hash'): (101, 5, (), 'transform', 1, 0, 140),
}


@pytest.mark.parametrize("runs", RUNS)
@pytest.mark.parametrize("join_method", JOINS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_uncached_page_schedule(shape, join_method, runs):
    """The schedule is a function of the plan: a run leaves nothing
    behind (no temp, no memo, no lease) that moves the next one."""
    expected = EXPECTED[shape, join_method]
    assert measure(shape, join_method, runs) == [expected] * runs


@pytest.mark.parametrize("shape", list(SHAPES))
def test_default_database_returns_the_nested_iteration_bag(shape):
    """No flag has to ask for it: ``n`` and ``depth2`` came out a row
    or two long under the old defaults (Kim's literal merge)."""
    from collections import Counter

    db = Database()
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", PARTS[:40])
    db.insert("SUPPLY", SUPPLY[:160])
    sql = SHAPES[shape].format(c=CUTOFF)
    assert Counter(db.query(sql, method="auto").rows) == Counter(
        db.query(sql, method="nested_iteration").rows
    )


def test_order_tracking_only_saved_pages():
    assert not [key for key in BEFORE_ORDERS if key[1] == "hash"]
    for key, (reads, writes) in BEFORE_ORDERS.items():
        now = BEFORE_ONE_PASS[key]
        assert now[0] <= reads and now[1] <= writes, key
        assert (now[0], now[1]) != (reads, writes), key


def test_semi_join_only_saved_pages():
    """A semi-join writes no right columns, and a nested-loop one stops
    rescanning at the first match: the 12 cells whose plan merges an
    ``IN`` (``n``, ``j``, ``two_preds``, ``depth2``) fell, nothing else
    about them moved, and the other 24 cells were not touched."""
    assert {key[0] for key in BEFORE_SEMI} == {"n", "j", "two_preds", "depth2"}
    assert len(BEFORE_SEMI) == 12
    for key, (reads, writes) in BEFORE_SEMI.items():
        now = BEFORE_ONE_PASS[key]
        assert now[0] <= reads and now[1] < writes, key


def test_value_links_moved_no_page():
    """The block is evaluated at replay instead of while planning, by
    the same nested-iteration run, in memory: every page read and write
    is where it was, and only the value link's own definition and step
    were added."""
    assert {key[0] for key in BEFORE_VALUE_LINKS} == {"a", "not_in"}
    assert len(BEFORE_VALUE_LINKS) == 6
    for key, before in BEFORE_VALUE_LINKS.items():
        now = BEFORE_ONE_PASS[key]
        assert now[:4] == before[:4], key
        assert now[4:6] == (before[4] + 1, before[5] + 1), key
        assert now[6] == before[6], key


def test_type_j_temp_costs_its_pages():
    """One more block and one definition, the same rows.  Merge and
    nested loops read less (the inner relation is joined restricted,
    projected and duplicate-free; no rowid sort, no sort-unique on
    top) — nested loops eight times less.  The hash join never sorted,
    so it only pays for the temp: written once, read back once."""
    assert {key for key in BEFORE_ONE_PASS if key[0] == "j"} == set(BEFORE_JTEMP)
    for key, before in BEFORE_JTEMP.items():
        now = BEFORE_ONE_PASS[key]
        (jtemp,) = now[2]
        assert now[3:] == ("transform", before[4] + 1, before[5] + 1, before[6])
        if key[1] == "hash":
            assert before[0] <= now[0] <= before[0] + 2 * jtemp, key
            assert before[1] < now[1] <= before[1] + 2 * jtemp, key
        else:
            assert now[0] < before[0], key
    assert BEFORE_ONE_PASS['j', 'merge'][1] < BEFORE_JTEMP['j', 'merge'][1]
    assert BEFORE_ONE_PASS['j', 'nested'][0] * 8 < BEFORE_JTEMP['j', 'nested'][0]


def test_one_pass_only_saved_pages():
    """Streaming moves no temp, no step and no row: each cell reads and
    writes at most what it did when every operator wrote its output,
    its temps are as large as they were (a temp is a block's result,
    written once), and only nested iteration — which runs no block
    operator — did not move at all."""
    assert set(BEFORE_RESULT_ROWS) == set(BEFORE_ONE_PASS)
    for key, before in BEFORE_ONE_PASS.items():
        now = BEFORE_RESULT_ROWS[key]
        assert now[0] <= before[0] and now[1] <= before[1], key
        assert now[2:] == before[2:], key
        moved = now[:2] != before[:2]
        assert moved == (now[3] == "transform"), key
    # The writes that are left are results, nested-loop inners and sort
    # runs: under a quarter of what every operator's output cost.
    assert 4 * sum(cell[1] for cell in BEFORE_RESULT_ROWS.values()) < sum(
        cell[1] for cell in BEFORE_ONE_PASS.values()
    )


def test_result_rows_only_saved_pages():
    """The answer is handed to the caller instead of written, read back
    and freed: no cell reads or writes more, nothing else about a cell
    moved, and only the cells whose final block writes no page anyway —
    ``ja_neq`` returns no row — or that run by nested iteration stayed
    put.  What the write of the answer no longer evicts, a nested-loop
    inner no longer re-reads (``j`` / ``nested``)."""
    assert set(BEFORE_RUNS) == set(BEFORE_RESULT_ROWS)
    unmoved = set()
    for key, before in BEFORE_RESULT_ROWS.items():
        now = BEFORE_RUNS[key]
        assert now[0] <= before[0] and now[1] <= before[1], key
        assert now[2:] == before[2:], key
        if now[:2] == before[:2]:
            unmoved.add(key)
    assert {shape for shape, _ in unmoved} == {"ja_neq", "or_fallback"}
    assert len(unmoved) == 6
    totals = [
        tuple(sum(cell[i] for cell in table.values()) for i in (0, 1))
        for table in (BEFORE_RESULT_ROWS, BEFORE_RUNS)
    ]
    assert totals == [(7715, 961), (7579, 922)]
    assert BEFORE_RUNS["j", "nested"][0] < BEFORE_RESULT_ROWS["j", "nested"][0] / 2


def test_runs_only_saved_pages():
    """A run reads the pages a page at a time would, in the same order,
    and holds none of them: no cell reads more and none writes anything
    else.  Only the result write moves, later, onto pages the LRU then
    keeps longer: 15 cells read exactly one page fewer, each of them a
    block that restricts, hash-joins or groups before its result write.
    Nested iteration (``or_fallback``) and the plans whose one block
    writes nothing (``a``, ``not_in``) did not move."""
    assert set(EXPECTED) == set(BEFORE_RUNS)
    fell = set()
    for key, before in BEFORE_RUNS.items():
        now = EXPECTED[key]
        assert now[1:] == before[1:], key
        assert now[0] in (before[0], before[0] - 1), key
        if now[0] < before[0]:
            fell.add(key)
    assert len(fell) == 15
    assert not {shape for shape, _ in fell} & {"a", "not_in", "or_fallback"}
    totals = [sum(cell[0] for cell in table.values()) for table in (BEFORE_RUNS, EXPECTED)]
    assert totals == [7579, 7564]


def _moved(before: tuple, now: tuple) -> str:
    """How a regenerated cell moved against the pinned one."""
    if now == before:
        return ""
    if now[2:] != before[2:]:
        return f"  # CHANGED, was {before!r}"
    if now[0] <= before[0] and now[1] <= before[1]:
        return f"  # fell, was {before[:2]!r}"
    return f"  # ROSE, was {before[:2]!r}"


if __name__ == "__main__":
    for shape in SHAPES:
        for join_method in JOINS:
            key = (shape, join_method)
            cell = measure(*key)[0]
            print(f"    {key!r}: {cell!r},{_moved(EXPECTED[key], cell)}")
