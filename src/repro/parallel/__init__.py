"""Deterministic multi-core fan-out (see docs/PERFORMANCE.md).

:class:`ParallelExecutor` fans independent simulation units across a
spawn-context process pool without changing a single output byte:
``jobs=0/1`` runs the identical task functions inline, streams are
pre-assigned by task index, and results assemble in task order.
The :class:`~repro.api.runner.ScenarioRunner` fans its scenario units
through it (``ScenarioRunner._fan_out``).
"""

from repro.parallel.executor import ParallelExecutor, resolve_jobs

__all__ = ["ParallelExecutor", "resolve_jobs"]
