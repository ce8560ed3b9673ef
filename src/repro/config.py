"""The physical configuration of a plan, as one value.

:class:`ExecConfig` is the only way the three plan-shaping settings
travel below ``Database.__init__`` / ``Engine.__init__``: planning and
both executors read it, the plan cache keys on it, and a
:class:`~repro.serve.plan.CachedPlan` stores the one it runs under.
Frozen and validated by construction; reconfiguring an engine is
``engine.config = dataclasses.replace(engine.config, join_method="hash")``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: Inputs below this row count run the serial operator even under
#: ``parallelism > 1``: the exchange's dispatch overhead exceeds any
#: I/O overlap on small inputs, and correctness is identical either
#: way.  Benchmarks and the difftest's parallel legs override it.
DEFAULT_PARALLEL_THRESHOLD = 2048

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
        parallelism: intra-query fan-out — partition-parallel scans,
            probes and aggregations over the shared exchange pool.
            1 = serial.  Same plans, same page I/O totals at any degree.
        parallel_threshold: inputs below this row count stay serial
            even when ``parallelism > 1``.  ``None`` on the way in
            means the default and is resolved here, once.

    Nothing here picks an algorithm: NEST-G always runs NEST-JA2 and
    the exact section-8 rewrites.  The paper's wrong answers are
    functions (:func:`repro.core.nest_ja.kim_nest_g`,
    :func:`repro.core.predicates.paper_section8`), not settings.
    """

    join_method: str = "merge"
    parallelism: int = 1
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD

    def __post_init__(self) -> None:
        if self.parallel_threshold is None:
            object.__setattr__(
                self, "parallel_threshold", DEFAULT_PARALLEL_THRESHOLD
            )
        for setting, allowed in CHOICES.items():
            value = getattr(self, setting)
            if value not in allowed:
                raise ReproError(
                    f"unknown {setting} {value!r} "
                    f"(choose from {', '.join(allowed)})"
                )
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ReproError(
                f"parallelism must be an integer >= 1, got {self.parallelism!r}"
            )
