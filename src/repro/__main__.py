"""Command-line entry point: ``python -m repro [difftest|check ...]``.

Without arguments, an interactive SQL REPL over a fresh
:class:`~repro.api.Database`.  With the ``difftest`` subcommand, the
differential tester against SQLite; with ``check``, the static plan
verifier + Kim-bug lint::

    python -m repro difftest --examples 500 --seed 0
    python -m repro check --figure1
    python -m repro check --instance kiessling "SELECT ..."
    python -m repro serve                 # REPL with the plan cache on
    python -m repro bench-throughput --smoke

In the REPL, statements end with ``;``.  Backslash commands control
the session::

    \\load kiessling        load a paper instance (kiessling | operator |
                            duplicates | suppliers)
    \\method M              nested_iteration | transform | auto | cost
    \\join M                merge | nested | hash (for transformed plans)
    \\explain SELECT ...;   show the NEST-G transformation plan
    \\plan SELECT ...;      show the cost-based planner's estimates
    \\analyze [TABLE]       collect optimizer statistics
    \\index TABLE COLUMN    build an index (used by nested iteration)
    \\tables                list tables
    \\cache                 plan-cache counters (hits/misses/...,
                            snapshot-pin hits, memo flushes, shared
                            materializations / cross-query hits /
                            shared purges / maintained)
    \\txn                   transaction/WAL status (commits, aborts,
                            versions, pinned reads, log size)
    \\txn begin             open a transaction: INSERTs buffer in it,
                            SELECTs read your writes
    \\txn commit            publish the open transaction's rows
    \\txn rollback          undo the open transaction
    \\io                    cumulative page-I/O counters
    \\reset                 zero the counters and cool the cache
    \\help                  this text
    \\quit                  exit

Example session::

    $ python -m repro
    repro> \\load kiessling
    repro> SELECT PNUM FROM PARTS
    .....> WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
    .....>              WHERE SUPPLY.PNUM = PARTS.PNUM
    .....>                AND SHIPDATE < '1980-01-01');
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.api import Database
from repro.bench.reporting import format_table
from repro.config import CHOICES
from repro.errors import ReproError
from repro.workloads import paper_data

BANNER = (
    "repro — Optimization of Nested SQL Queries Revisited (SIGMOD 1987)\n"
    "Type \\help for commands; statements end with ';'."
)

PROMPT = "repro> "
CONTINUATION = ".....> "

_LOADERS = {
    "kiessling": (
        paper_data.load_kiessling_instance,
        "section 5.1 PARTS/SUPPLY (the COUNT-bug instance)",
    ),
    "operator": (
        paper_data.load_operator_bug_instance,
        "section 5.3 PARTS/SUPPLY (query Q5's instance)",
    ),
    "duplicates": (
        paper_data.load_duplicates_instance,
        "section 5.4 PARTS/SUPPLY (duplicate outer PNUMs)",
    ),
    "suppliers": (
        paper_data.load_supplier_parts,
        "the introduction's S / P / SP database",
    ),
}


class Shell:
    """State and command dispatch for the REPL.

    With ``serve=True`` (the ``python -m repro serve`` subcommand),
    SELECT statements run through the plan cache: repeated queries —
    even with different predicate literals — replay an already-verified
    plan instead of re-planning.  ``\\cache`` shows the counters.
    """

    def __init__(self, out=sys.stdout, serve: bool = False) -> None:
        self.db = Database(buffer_pages=8)
        self.method = "auto"
        self.out = out
        self.done = False
        self.serve = serve
        self.txn_handle = None  # open \txn begin transaction, if any

    # -- I/O helpers ---------------------------------------------------------

    def say(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- dispatch --------------------------------------------------------------

    def handle(self, line: str) -> None:
        stripped = line.strip()
        if not stripped:
            return
        if stripped.startswith("\\"):
            self._command(stripped)
        else:
            self._statement(stripped)

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0][1:].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            self.say(f"unknown command \\{name}; try \\help")
            return
        handler(argument)

    # -- commands --------------------------------------------------------------

    def _cmd_help(self, _argument: str) -> None:
        self.say(__doc__.replace("\\\\", "\\"))

    def _cmd_quit(self, _argument: str) -> None:
        self.done = True

    def _cmd_exit(self, _argument: str) -> None:
        self.done = True

    def _cmd_load(self, argument: str) -> None:
        loader = _LOADERS.get(argument.lower())
        if loader is None:
            self.say(f"unknown instance {argument!r}; "
                     f"options: {', '.join(sorted(_LOADERS))}")
            return
        if self.txn_handle is not None:
            self.say("an open transaction holds the old instance; "
                     "\\txn commit or \\txn rollback first")
            return
        factory, description = loader
        catalog = factory(buffer_pages=self.db.buffer.capacity)
        # Rebind the session database to the loaded catalog — including
        # the transaction manager and the plan cache's change hook,
        # which would otherwise keep watching the abandoned catalog.
        from repro.txn import TransactionManager, WriteAheadLog

        self.db.catalog = catalog
        self.db.buffer = catalog.buffer
        self.db.disk = catalog.buffer.disk
        self.db.engine.catalog = catalog
        self.db.wal = WriteAheadLog(None)
        self.db.txn = TransactionManager(catalog, self.db.wal)
        self.db.plan_cache.clear()
        self.db.plan_cache.attach(catalog)
        self.say(f"loaded {description}")
        self.say(f"tables: {', '.join(catalog.table_names())}")

    def _cmd_method(self, argument: str) -> None:
        if argument not in ("nested_iteration", "transform", "auto", "cost"):
            self.say("method must be nested_iteration | transform | auto | cost")
            return
        self.method = argument
        self.say(f"evaluation method: {argument}")

    def _cmd_join(self, argument: str) -> None:
        engine = self.db.engine
        try:
            engine.config = replace(engine.config, join_method=argument)
        except ReproError:
            methods = " | ".join(CHOICES["join_method"])
            self.say(f"join method must be {methods}")
            return
        self.say(f"transformed-plan join method: {argument}")

    def _cmd_tables(self, _argument: str) -> None:
        names = self.db.tables()
        if not names:
            self.say("(no tables; try \\load kiessling)")
            return
        for name in names:
            entry = self.db.catalog.get(name)
            self.say(
                f"{name}({', '.join(entry.schema.column_names)}) — "
                f"{entry.heap.num_rows} rows, {entry.heap.num_pages} pages"
            )

    def _cmd_index(self, argument: str) -> None:
        parts = argument.split()
        if len(parts) != 2:
            self.say("usage: \\index TABLE COLUMN")
            return
        try:
            self.db.create_index(parts[0], parts[1])
        except ReproError as error:
            self.say(f"error: {error}")
            return
        self.say(f"index built on {parts[0].upper()}.{parts[1].upper()}")

    def _cmd_analyze(self, argument: str) -> None:
        try:
            self.db.analyze(argument or None)
        except ReproError as error:
            self.say(f"error: {error}")
            return
        analyzed = argument.upper() if argument else "all tables"
        self.say(f"statistics collected for {analyzed}")

    def _cmd_io(self, _argument: str) -> None:
        self.say(self.db.io_stats().format())

    def _cmd_reset(self, _argument: str) -> None:
        self.db.cold_cache()
        self.db.reset_io_stats()
        self.say("counters zeroed, cache cold")

    def _cmd_explain(self, argument: str) -> None:
        if not argument:
            self.say("usage: \\explain SELECT ...;")
            return
        try:
            self.say(self.db.explain(argument.rstrip(";")))
        except ReproError as error:
            self.say(f"error: {error}")

    def _cmd_plan(self, argument: str) -> None:
        """Show the cost-based planner's estimates for a query."""
        if not argument:
            self.say("usage: \\plan SELECT ...;")
            return
        from repro.optimizer.planner import Planner

        try:
            planner = Planner(self.db.catalog)
            choice = planner.choose(argument.rstrip(";"))
        except ReproError as error:
            self.say(f"error: {error}")
            return
        self.say(choice.describe())

    def _cmd_cache(self, _argument: str) -> None:
        self.say(self.db.cache_stats().format())

    def _cmd_txn(self, argument: str) -> None:
        action = argument.strip().lower()
        if not action:
            self.say(self.db.txn_stats())
            if self.txn_handle is not None:
                self.say(
                    f"open transaction: txid {self.txn_handle.txid} "
                    f"({self.txn_handle.state})"
                )
            return
        if action == "begin":
            if self.txn_handle is not None:
                self.say(
                    f"transaction {self.txn_handle.txid} already open; "
                    "\\txn commit or \\txn rollback first"
                )
                return
            self.txn_handle = self.db.begin()
            self.say(
                f"transaction {self.txn_handle.txid} open: INSERTs "
                "buffer until \\txn commit, SELECTs read your writes"
            )
            return
        if action in ("commit", "rollback"):
            if self.txn_handle is None:
                self.say("no open transaction; \\txn begin starts one")
                return
            txn, self.txn_handle = self.txn_handle, None
            try:
                getattr(txn, action)()
            except ReproError as error:
                self.say(f"error: {error}")
                return
            if action == "commit":
                self.say(f"transaction {txn.txid} committed")
            else:
                self.say(f"transaction {txn.txid} rolled back")
            return
        self.say("usage: \\txn [begin | commit | rollback]")

    # -- statements ------------------------------------------------------------

    def _execute(self, sql: str):
        """Run one statement.  A SELECT resolves through the plan cache
        either way: ``Database.execute`` replays it as ``Database.query``
        does (private temps), serve mode through ``execute_cached``
        (temps shared across statements).

        While a ``\\txn begin`` transaction is open, INSERTs buffer in
        it and SELECTs run against its read-your-writes snapshot; DDL
        is rejected until the transaction closes.
        """
        from repro.sql.ast import Select
        from repro.sql.statements import InsertValues, parse_statement

        if self.txn_handle is not None:
            statement = parse_statement(sql)
            if isinstance(statement, Select):
                return self.txn_handle.query(sql, method=self.method)
            if isinstance(statement, InsertValues):
                count = self.txn_handle.insert(
                    statement.table, statement.rows
                )
                return (
                    f"buffered {count} row(s) in transaction "
                    f"{self.txn_handle.txid} (\\txn commit publishes)"
                )
            return "DDL inside an open transaction is not supported; " \
                   "\\txn commit or \\txn rollback first"
        if self.serve:
            if isinstance(parse_statement(sql), Select):
                return self.db.execute_cached(sql, method=self.method).result
        return self.db.execute(sql, method=self.method)

    def _statement(self, sql: str) -> None:
        try:
            before = self.db.io_stats()
            outcome = self._execute(sql)
            delta = self.db.io_stats() - before
        except ReproError as error:
            self.say(f"error: {error}")
            return
        if isinstance(outcome, str):
            self.say(outcome)
            return
        if outcome.rows:
            self.say(format_table(outcome.columns,
                                  [list(row) for row in outcome.rows]))
        self.say(f"({len(outcome.rows)} row(s), {delta.format()})")


def repl(stdin=sys.stdin, stdout=sys.stdout, serve: bool = False) -> int:
    """Run the interactive loop; returns the process exit code."""
    shell = Shell(out=stdout, serve=serve)
    shell.say(BANNER)
    if serve:
        shell.say("serving mode: SELECTs run through the plan cache "
                  "(\\cache shows counters)")
    buffer: list[str] = []
    interactive = stdin.isatty()

    while not shell.done:
        prompt = CONTINUATION if buffer else PROMPT
        if interactive:
            try:
                line = input(prompt)
            except (EOFError, KeyboardInterrupt):
                shell.say()
                break
        else:
            line = stdin.readline()
            if not line:
                break
            line = line.rstrip("\n")

        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            shell.handle(stripped)
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            shell.handle(" ".join(buffer))
            buffer.clear()

    if buffer:
        shell.handle(" ".join(buffer))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "difftest":
        from repro.difftest.runner import main as difftest_main

        return difftest_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.analysis.check import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "serve":
        return repl(serve=True)
    if argv and argv[0] == "bench-throughput":
        from repro.bench.throughput import main as throughput_main

        return throughput_main(argv[1:])
    if argv:
        print(f"unknown subcommand {argv[0]!r}; usage: python -m repro "
              "[difftest --examples N --seed S | check QUERY ... | "
              "serve | bench-throughput ...]",
              file=sys.stderr)
        return 2
    return repl()


if __name__ == "__main__":
    sys.exit(main())
