"""Deterministic process-pool fan-out for independent simulation units.

:class:`ParallelExecutor` is the one execution primitive every study
layer shares (saturation sweeps, MC columns, ``protocol_mc`` trial
chunks, optimizer shape families, comparison sub-runs).
The contract that keeps parallel runs byte-identical to serial ones:

* **jobs = 0 or 1 is the serial path.** :meth:`ParallelExecutor.map`
  calls the task function inline, in order, with zero behavioral
  difference — no pool, no pickling, exceptions propagate raw.
* **Streams are assigned by task index, never by worker.** Callers
  pre-assign every unit its :func:`~repro.cluster.rng.spawn_rngs` child
  stream (or the index it re-derives one from) *before* dispatch, so a
  unit computes the same numbers whichever worker runs it, whenever.
* **Results come back in task order.** ``map`` returns ``[fn(p) for p
  in payloads]`` regardless of completion order, so assembly code never
  sees scheduling.
* **Workers start from the spawn context.** No forked state leaks in;
  the initializer re-inserts the library's import root (plus any caller
  ``sys_paths``) so the spawned interpreter resolves ``repro`` exactly
  like the parent — ``PYTHONPATH=src`` runs included.

Failure surfacing is explicit: a task exception is marshalled back as
text (type name, message, worker traceback) and re-raised as
:class:`~repro.errors.ParallelExecutionError`; a worker that dies
without answering (signal, ``os._exit``) raises
:class:`~repro.errors.WorkerCrashError`. Either way the pool is torn
down — partial results are never returned.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerCrashError,
)

__all__ = ["ParallelExecutor", "resolve_jobs"]


def resolve_jobs(jobs) -> int:
    """Coerce a CLI-ish ``jobs`` value to a worker count.

    ``None`` -> 0 (serial), ``-1`` or ``"auto"`` -> ``os.cpu_count()``,
    a non-negative int passes through. Anything else is a
    :class:`ConfigurationError`.
    """
    if jobs is None:
        return 0
    if jobs == "auto":
        return os.cpu_count() or 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ConfigurationError(
            f"jobs must be an int >= 0, -1 or 'auto', got {jobs!r}"
        )
    if jobs == -1:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(
            f"jobs must be an int >= 0, -1 or 'auto', got {jobs!r}"
        )
    return jobs


def _worker_init(sys_paths) -> None:
    """Pool initializer: make ``repro`` importable in the spawned child.

    Runs before the worker unpickles its first task, so task functions
    living under the same roots resolve even when the parent was started
    with ``PYTHONPATH=src`` (spawned children do inherit ``os.environ``,
    but an installed-elsewhere interpreter or a pytest-managed path set
    may not reproduce the parent's ``sys.path`` otherwise).
    """
    for path in reversed(list(sys_paths)):
        if path and path not in sys.path:
            sys.path.insert(0, path)


def _run_chunk(fn, payloads):
    """Worker-side chunk loop: ``("ok", value)`` / ``("error", ...)`` markers.

    Exceptions are flattened to strings because protocol exceptions carry
    constructor arguments that do not survive naive unpickling; the first
    error aborts the rest of the chunk (the parent discards everything
    anyway — partial results are never emitted).
    """
    out = []
    for payload in payloads:
        try:
            out.append(("ok", fn(payload)))
        except BaseException as exc:  # marshalled to the parent, re-raised there
            out.append(
                ("error", type(exc).__name__, str(exc), traceback.format_exc())
            )
            break
    return out


class ParallelExecutor:
    """Ordered, chunked ``map`` over a spawn-context process pool.

    Parameters
    ----------
    jobs:
        Worker count. ``0``/``1`` (and ``None``) select the inline
        serial path; ``-1``/``"auto"`` means one worker per CPU.
    chunk_size:
        Tasks per pool submission (default: ~4 waves per worker, so
        uneven task costs still balance). Ignored on the serial path.
    sys_paths:
        Extra directories prepended to each worker's ``sys.path``
        (the library's own import root is always included). Needed when
        task functions live outside the installed package — e.g. a test
        helper module.

    The pool is created lazily on the first parallel :meth:`map` and
    reused across calls; :meth:`close` (or the context manager) tears it
    down. Any failure inside ``map`` force-closes the pool so no orphan
    workers outlive the error.
    """

    def __init__(self, jobs=0, *, chunk_size: int | None = None,
                 sys_paths=()) -> None:
        self.jobs = resolve_jobs(jobs)
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self._sys_paths = tuple(sys_paths)
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ #

    @property
    def parallel(self) -> bool:
        """True when ``map`` will actually fan out to worker processes."""
        return self.jobs >= 2

    def map(self, fn, payloads) -> list:
        """``[fn(p) for p in payloads]``, fanned across workers.

        ``fn`` must be an importable module-level function and each
        payload picklable; results are assembled in task order. With
        ``jobs <= 1`` (or fewer than two payloads) everything runs
        inline in the calling process — the byte-identity baseline.
        """
        payloads = list(payloads)
        if not self.parallel or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        pool = self._ensure_pool()
        try:
            futures = [
                pool.submit(_run_chunk, fn, chunk)
                for chunk in self._chunks(payloads)
            ]
            results: list = []
            for future in futures:
                for item in future.result():
                    if item[0] == "ok":
                        results.append(item[1])
                    else:
                        _, exc_type, message, worker_tb = item
                        raise ParallelExecutionError(
                            len(results), exc_type, message, worker_tb
                        )
            return results
        except ParallelExecutionError:
            self.close(force=True)
            raise
        except BrokenProcessPool as exc:
            self.close(force=True)
            raise WorkerCrashError(str(exc) or "process pool broken") from exc
        except BaseException:
            # KeyboardInterrupt and friends: kill the fleet, leave no
            # orphans, surface the original exception untouched.
            self.close(force=True)
            raise

    def close(self, force: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``force=True`` terminates live workers first — the error/interrupt
        path, where waiting for in-flight tasks could block forever.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if force:
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except (AttributeError, OSError):
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(force=exc_info[0] is not None)

    # ------------------------------------------------------------------ #

    def _chunks(self, payloads: list) -> list[list]:
        size = self.chunk_size or max(
            1, math.ceil(len(payloads) / (self.jobs * 4))
        )
        return [
            payloads[i : i + size] for i in range(0, len(payloads), size)
        ]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import repro

            pkg_root = os.path.dirname(
                os.path.dirname(os.path.abspath(repro.__file__))
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_init,
                initargs=((pkg_root,) + self._sys_paths,),
            )
        return self._pool
