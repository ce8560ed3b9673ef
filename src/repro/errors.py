"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the major
subsystems: the SQL frontend, the catalog, the storage engine, the
execution engine, and the query transformations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SqlError(ReproError):
    """Base class for SQL frontend errors."""


class LexError(SqlError):
    """Raised when the tokenizer encounters an invalid character sequence.

    Attributes:
        position: character offset into the source text where the error
            occurred.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, position: int = -1) -> None:
        if position >= 0:
            super().__init__(f"{message} (at position {position})")
        else:
            super().__init__(message)
        self.position = position


class CatalogError(ReproError):
    """Raised for schema problems: unknown tables, duplicate columns, etc."""


class StorageError(ReproError):
    """Raised for storage-engine faults: bad page ids, full pages, etc."""


class ExecutionError(ReproError):
    """Raised when a query cannot be evaluated."""


class CardinalityError(ExecutionError):
    """Raised when a scalar subquery yields more than one row."""


class BindError(ExecutionError):
    """Raised when a column reference cannot be resolved to a table."""


class TransformError(ReproError):
    """Raised when a nested-query transformation cannot be applied."""


class PlanError(ReproError):
    """Raised when the planner cannot produce a plan for a query."""


class VerificationError(PlanError):
    """Raised when the static plan verifier rejects a plan.

    Subclasses :class:`PlanError` because a plan that fails static
    verification is a plan the executors must not run; callers that
    already handle planning failures keep working.

    Attributes:
        diagnostics: the :class:`repro.analysis.Diagnostic` findings
            that caused the rejection (empty for ad-hoc raises).
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class ColumnVerificationError(VerificationError, BindError):
    """Unresolvable, ambiguous or unbound column names (PV001–PV003),
    all of them in one error; its ``diagnostics`` carry the rule ids.

    Raised by the binder (:func:`repro.sql.qualify.qualify`) for a
    statement's names, whatever the method that will run it, and by a
    generated block's planning
    (:func:`repro.optimizer.executor.plan_block`).  Also a :class:`BindError`,
    so code catching either class behaves the same.
    """
