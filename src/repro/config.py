"""The physical configuration of a plan, as one value.

:class:`ExecConfig` is the only way the plan-shaping setting travels
below ``Database.__init__`` / ``Engine.__init__``: planning and the
single-level executor read it, the plan cache keys on it, and a
:class:`~repro.serve.plan.CachedPlan` stores the one it runs under.
Frozen and validated by construction; reconfiguring an engine is
``engine.config = dataclasses.replace(engine.config, join_method="hash")``.
No setting splits a query across threads: a query runs on the thread
that issued it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: Accepted values of the enumerated settings — the one place each is
#: defined and checked (a typo fails at construction, not at the first
#: query).
CHOICES: dict[str, tuple[str, ...]] = {
    "join_method": ("merge", "nested", "hash"),
}


@dataclass(frozen=True)
class ExecConfig:
    """The settings that shape a plan; hashable, so it *is* the
    plan-cache key component.

    Attributes:
        join_method: ``"merge"`` | ``"nested"`` | ``"hash"`` for the
            joins of a transformed plan (section 7 decides it per plan:
            ``method="cost"`` stores the planner's pick in the plan's
            own config, never in the engine's).

    Nothing here picks an algorithm: NEST-G always runs NEST-JA2 and
    the exact section-8 rewrites.  The paper's wrong answers are
    functions (:func:`repro.core.nest_ja.kim_nest_g`,
    :func:`repro.core.predicates.paper_section8`), not settings.
    """

    join_method: str = "merge"

    def __post_init__(self) -> None:
        for setting, allowed in CHOICES.items():
            value = getattr(self, setting)
            if value not in allowed:
                raise ReproError(
                    f"unknown {setting} {value!r} "
                    f"(choose from {', '.join(allowed)})"
                )
