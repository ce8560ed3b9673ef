"""Runtime binding of SQL bind-parameters (``?`` / ``:name``).

A :class:`~repro.sql.ast.Parameter` carries no value at plan time; the
value arrives per execution.  Binding goes through a
:class:`contextvars.ContextVar` rather than through closure arguments so
that

* compiled closures keep their ``fn(row, outer)`` signature (the hot
  loops in :mod:`repro.optimizer.executor` never know about parameters),
* every thread (and every task within a thread) sees its own binding —
  N workers can execute the *same* cached plan concurrently with
  different parameter vectors without interfering.

Usage::

    with bound_params((42, 'ABC')):
        executor.execute(plan)

Reading a parameter slot outside a ``bound_params`` block, or past the
end of the bound vector, raises :class:`~repro.errors.BindError`.

A replay binds the statement's values, then one more slot per value
link it evaluates (:func:`bind_slot`); the block's exit drops them all.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

from repro.errors import BindError

#: The active parameter vector for the current thread/context.
_ACTIVE_PARAMS: ContextVar[tuple[object, ...] | None] = ContextVar(
    "repro_active_params", default=None
)


@contextmanager
def bound_params(values: Sequence[object]) -> Iterator[None]:
    """Bind a parameter vector for the duration of the block."""
    token = _ACTIVE_PARAMS.set(tuple(values))
    try:
        yield
    finally:
        _ACTIVE_PARAMS.reset(token)


def bind_slot(index: int, value: object) -> None:
    """Bind slot ``index`` inside the active ``bound_params`` block (a
    value link's result); the block's exit unbinds it with the rest."""
    values = _ACTIVE_PARAMS.get() or ()
    if index >= len(values):
        values += (None,) * (index + 1 - len(values))
    _ACTIVE_PARAMS.set(values[:index] + (value,) + values[index + 1 :])


def active_params() -> tuple[object, ...]:
    """The vector bound right now (empty outside ``bound_params``)."""
    return _ACTIVE_PARAMS.get() or ()


def param_value(index: int, name: str | None = None) -> object:
    """Look up one parameter slot in the active binding."""
    values = _ACTIVE_PARAMS.get()
    label = f":{name}" if name else f"parameter {index + 1}"
    if values is None:
        raise BindError(f"no parameters bound (needed {label})")
    if index >= len(values):
        raise BindError(
            f"statement needs at least {index + 1} parameter(s), "
            f"got {len(values)} (missing {label})"
        )
    return values[index]
