"""Static analysis: plan verification, nullability inference, Kim-bug lint.

Public API:

* :func:`verify_nested` / :func:`verify_single_level` /
  :func:`verify_transform` — the plan invariant verifier (PV0xx rules;
  a statement's names are the binder's, :mod:`repro.sql.qualify`);
* :func:`lint_transform` — the Kim-bug lint (KB001–KB003);
* :class:`NullabilityInference` / :func:`infer_query_nullability` —
  3VL-aware type and nullability inference;
* :class:`Diagnostic` / :class:`Findings` / :class:`Span` — what the
  analyses report;
* :class:`SourceMap` — best-effort AST-to-source span recovery.
"""

from repro.analysis.diagnostics import Diagnostic, Findings, Span
from repro.analysis.lint import lint_transform
from repro.analysis.nullability import (
    Inferred,
    NullabilityInference,
    catalog_provider,
    infer_query_nullability,
)
from repro.analysis.spans import SourceMap
from repro.analysis.verifier import (
    TempInfo,
    collect_temp_infos,
    verify_nested,
    verify_single_level,
    verify_transform,
)

__all__ = [
    "Diagnostic",
    "Findings",
    "Span",
    "SourceMap",
    "Inferred",
    "NullabilityInference",
    "catalog_provider",
    "infer_query_nullability",
    "TempInfo",
    "collect_temp_infos",
    "lint_transform",
    "verify_nested",
    "verify_single_level",
    "verify_transform",
]
