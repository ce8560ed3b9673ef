"""Diagnostics: what the static analyses report and how it is shown.

Every finding — a plan-invariant violation, a Kim-bug lint hit, a
nullability inconsistency — is a :class:`Diagnostic` with a stable rule
id, a severity, a human-readable message, and (when the finding maps
back to the original SQL text) a source :class:`Span` rendered as a
caret snippet.  Rule ids are stable across releases so tests, CI logs
and the difftest can match on them:

* ``PV0xx`` — the binder's name checks (PV001, PV002, PV004, PV011;
  :mod:`repro.sql.qualify`) and the plan verifier's invariants;
* ``KB00x`` — Kim-bug lint rules, mapping the paper's section 5 bugs
  (errors on the deliberately buggy algorithms, absent on NEST-JA2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ColumnVerificationError, VerificationError

#: Severity levels, in increasing order of, well, severity.
SEVERITIES = ("note", "warning", "error")

#: Rules whose findings are column-binding failures; they raise
#: :class:`ColumnVerificationError` (a BindError) rather than the plain
#: :class:`VerificationError` so existing error handling keeps working.
BIND_RULES = frozenset({"PV001", "PV002", "PV003"})


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` in the source SQL."""

    start: int
    end: int

    def line_col(self, source: str) -> tuple[int, int]:
        """1-based (line, column) of the span start in ``source``."""
        prefix = source[: self.start]
        line = prefix.count("\n") + 1
        column = self.start - (prefix.rfind("\n") + 1) + 1
        return line, column


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        rule: stable rule id (``PV001``, ``KB002``, ...).
        message: one-line human-readable description.
        severity: ``"error"``, ``"warning"``, or ``"note"``.
        subject: the offending SQL fragment or temp-table definition,
            rendered with :func:`repro.sql.printer.to_sql` (plans are
            synthetic, so this is how plan-level findings stay
            readable).
        span: character range in the *original* query text, when the
            finding maps back to it.
        hint: optional remediation note (what the paper's fix is).
    """

    rule: str
    message: str
    severity: str = "error"
    subject: str | None = None
    span: Span | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"invalid severity {self.severity!r}")

    def format(self, source: str | None = None) -> str:
        """Render the diagnostic, with a caret snippet when possible."""
        location = ""
        if self.span is not None and source is not None:
            line, column = self.span.line_col(source)
            location = f"{line}:{column}: "
        lines = [f"{location}{self.severity} [{self.rule}] {self.message}"]
        if self.span is not None and source is not None:
            lines.extend(_snippet(source, self.span))
        if self.subject:
            lines.append(f"    in: {self.subject}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)


def _snippet(source: str, span: Span) -> list[str]:
    """The source line containing ``span`` plus a caret underline."""
    start = source.rfind("\n", 0, span.start) + 1
    end = source.find("\n", span.start)
    if end < 0:
        end = len(source)
    text = source[start:end]
    offset = span.start - start
    width = max(1, min(span.end, end) - span.start)
    stripped = text.lstrip()
    indent_cut = len(text) - len(stripped)
    return [
        f"    {stripped}",
        "    " + " " * (offset - indent_cut) + "^" * width,
    ]


@dataclass
class Findings:
    """A mutable collection of diagnostics with convenience queries."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "Findings | list[Diagnostic]") -> None:
        if isinstance(other, Findings):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def rules(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def format(self, source: str | None = None) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.format(source) for d in self.diagnostics)

    def raise_errors(self, context: str = "plan verification failed") -> None:
        """Raise when any error-severity diagnostic is present.

        Column-binding rules raise :class:`ColumnVerificationError` (a
        ``BindError``), everything else :class:`VerificationError` (a
        ``PlanError``).  The binder raises a statement's name findings
        through here, the plan verifier a plan's.
        """
        errors = self.errors
        if not errors:
            return
        # The same mistake can be made in several places (a name
        # spelled twice): say each finding once.
        message = f"{context}: " + "; ".join(
            dict.fromkeys(f"[{d.rule}] {d.message}" for d in errors)
        )
        if all(d.rule in BIND_RULES for d in errors):
            raise ColumnVerificationError(message, tuple(errors))
        raise VerificationError(message, tuple(errors))
