"""Span tracer that attributes wall time to the layers of ``repro``.

Nothing under ``src/`` knows about this module: :meth:`Tracer.install`
replaces the *public* entry points of every layer (module functions and
public methods of classes, found by walking the ``repro`` package) with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
A span is opened only where control crosses from one layer into another;
a call that stays inside its layer passes straight through. So a layer's
``calls`` is the number of times it was entered from outside, and its
``self_s`` is the time between entry and exit minus the time its callees
in *other* layers took. Self times of all layers plus the harness's own
add up to the traced wall time by construction.

Three kinds of callable need more than a plain wrapper:

* generator functions (the ``read_plan`` / ``write_plan`` round plans)
  are timed per resume — the time a suspended plan spends waiting for
  its round is not the plan's;
* coroutine functions (the asyncio services) likewise, per step;
* callbacks handed to ``Simulator.schedule_call`` /
  ``MonotoneLane.schedule_call`` / ``Simulator.register_batch_handler``
  are wrapped at that boundary and charged to the module that defines
  them, so handler time is not booked to the event heap.

Imported from the benchmark only; importing it patches nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter
from types import FunctionType

import numpy as np

#: Layers in reporting order. ``asyncio`` is not a ``repro`` package: it
#: is the span the live workload puts around ``loop.run_until_complete``,
#: so event-loop time is named instead of landing on the harness.
LAYERS = (
    "api",
    "storage",
    "core",
    "quorum",
    "runtime",
    "runtime.verify",
    "cluster",
    "sim",
    "erasure",
    "gf",
    "services",
    "analysis",
    "asyncio",
)
HARNESS = "harness"

_PACKAGES = frozenset(LAYERS) - {"runtime.verify", "asyncio"}

#: Scheduling entry points whose callback argument is re-bound so the
#: callback's time goes to its owner: ``(module, class, method, index of
#: the callback among the positional arguments after self)``.
_SCHEDULERS = (
    ("repro.cluster.events", "Simulator", "schedule_call", 1),
    ("repro.cluster.events", "MonotoneLane", "schedule_call", 1),
    ("repro.cluster.events", "Simulator", "register_batch_handler", 0),
)


def layer_of(module_name: str | None) -> str | None:
    """The layer a ``repro`` module belongs to (None: not a layer)."""
    if not module_name or not module_name.startswith("repro."):
        return None
    if module_name == "repro.runtime.verify":
        return "runtime.verify"
    package = module_name.split(".")[1]
    return package if package in _PACKAGES else None


def _array_bytes(args) -> int:
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


class Tracer:
    """Collects per-layer self time, entry counts and (optionally) spans."""

    def __init__(self, record_spans: bool = False, max_spans: int = 200_000):
        self._root = [HARNESS, 0.0]
        self._stack = [self._root]
        #: (layer, span name) -> [entries, self seconds]
        self._acc: dict[tuple[str, str], list] = {}
        #: probe counters, see :meth:`install`
        self.counts = {"gf_bytes": 0, "wire_frames": 0, "wire_bytes": 0, "digest_calls": 0}
        self._spans: list | None = [] if record_spans else None
        self._max_spans = max_spans
        self.dropped_spans = 0
        self._patches: list[tuple[object, str, object]] = []
        self._started = 0.0
        #: [True] between start() and stop(); outside, wrappers pass through
        self._active = [False]
        self.wall_s = 0.0
        #: id of the client operation in progress; scheduled callbacks
        #: inherit the id current when they were scheduled
        self.op = -1

    # ------------------------------------------------------------------ #
    # measuring
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Forget everything measured so far (patches stay installed)."""
        for acc in self._acc.values():
            acc[0] = 0
            acc[1] = 0.0
        for key in self.counts:
            self.counts[key] = 0
        if self._spans is not None:
            self._spans.clear()
        self.dropped_spans = 0
        self._root[1] = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        """Open the root (harness) span; wrappers time calls from here on."""
        self._active[0] = True
        self._started = perf_counter()

    def stop(self) -> None:
        """Close the root span; adds to :attr:`wall_s`."""
        elapsed = perf_counter() - self._started
        self._active[0] = False
        self.wall_s += elapsed
        acc = self._accumulator(HARNESS, "root")
        acc[0] += 1
        acc[1] += elapsed - self._root[1]
        self._root[1] = 0.0

    @contextmanager
    def span(self, layer: str, name: str):
        """A span the harness opens itself (e.g. around the asyncio loop)."""
        enter, leave = self._bracket(layer, name)
        frame = enter()
        try:
            yield
        finally:
            leave(frame)

    def layer_table(self) -> dict[str, dict]:
        """``{layer: {"self_s", "calls"}}`` for every layer and the harness."""
        table = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, HARNESS)}
        for (layer, _), (calls, self_s) in self._acc.items():
            table[layer]["calls"] += calls
            table[layer]["self_s"] += self_s
        return table

    def span_table(self, top: int = 25) -> list[dict]:
        """The ``top`` span names by self time."""
        rows = [
            {"layer": layer, "name": name, "calls": calls, "self_s": self_s}
            for (layer, name), (calls, self_s) in self._acc.items()
            if calls
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows[:top]

    def calls(self, layer: str, *names: str) -> int:
        """Entries recorded for the named spans of ``layer``."""
        return sum(self._acc.get((layer, name), (0, 0.0))[0] for name in names)

    # ------------------------------------------------------------------ #
    # span plumbing
    # ------------------------------------------------------------------ #

    def _accumulator(self, layer: str, name: str) -> list:
        return self._acc.setdefault((layer, name), [0, 0.0])

    def _record(self, name: str, layer: str, start: float, end: float, depth: int):
        spans = self._spans
        if len(spans) < self._max_spans:
            spans.append((name, layer, start, end, depth, self.op))
        else:
            self.dropped_spans += 1

    def _bracket(self, layer: str, name: str):
        """``(enter, leave)`` for one span name.

        ``enter`` opens no span (returns None) when the layer is already
        on top of the stack or no root span is open.
        """
        stack = self._stack
        active = self._active
        acc = self._accumulator(layer, name)
        tracer = self

        def enter():
            top = stack[-1]
            if top[0] is layer or not active[0]:
                return None
            frame = [layer, 0.0, top, 0.0]
            stack.append(frame)
            frame[3] = perf_counter()
            return frame

        def leave(frame) -> None:
            if frame is None:
                return
            end = perf_counter()
            depth = len(stack) - 1
            stack.pop()
            elapsed = end - frame[3]
            acc[0] += 1
            acc[1] += elapsed - frame[1]
            frame[2][1] += elapsed
            if tracer._spans is not None:
                tracer._record(name, layer, frame[3], end, depth)

        return enter, leave

    def _wrap_function(self, fn, layer: str, name: str, probe=None):
        if inspect.isasyncgenfunction(fn):
            return fn
        enter, leave = self._bracket(layer, name)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def coroutine_wrapper(*args, **kwargs):
                return await _TracedAwaitable(fn(*args, **kwargs), enter, leave)

            return coroutine_wrapper
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return _TracedGenerator(fn(*args, **kwargs), enter, leave)

            return generator_wrapper
        if probe is not None:

            @functools.wraps(fn)
            def probed_wrapper(*args, **kwargs):
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                probe(args, result)
                return result

            return probed_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def bind(self, callback):
        """Wrap a callback so its time is charged to the module that owns it.

        Callbacks defined outside ``repro`` (the harness's own client
        loops) are charged to the harness.
        """
        if isinstance(callback, _BoundCallback) or not callable(callback):
            return callback
        target = callback.func if isinstance(callback, functools.partial) else callback
        layer = layer_of(getattr(target, "__module__", None)) or HARNESS
        name = "callback:" + getattr(target, "__qualname__", type(target).__name__)
        enter, leave = self._bracket(layer, name)
        return _BoundCallback(callback, enter, leave, self, self.op)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _probes(self) -> dict[str, object]:
        """Counters taken at a few named functions, keyed by qualified name."""
        counts = self.counts

        def gf_operands(args, result) -> None:
            counts["gf_bytes"] += _array_bytes(args)

        def wire_frame(args, result) -> None:
            counts["wire_frames"] += 1
            counts["wire_bytes"] += len(result)

        def digest(args, result) -> None:
            counts["digest_calls"] += 1

        return {
            "repro.runtime.verify.block_digest": digest,
            "repro.gf.kernels.gf_matmul": gf_operands,
            "repro.gf.kernels.gf_matvec": gf_operands,
            "repro.gf.kernels.gf_scaled_rows": gf_operands,
            "repro.gf.kernels.xor_into": gf_operands,
            "repro.gf.kernels.xor_blocks": gf_operands,
            "repro.gf.field.GF2m.scalar_mul": gf_operands,
            "repro.gf.field.GF2m.addmul_into": gf_operands,
            "repro.services.wire.frame": wire_frame,
        }

    def install(self) -> None:
        """Wrap every layer's public entry points. Idempotent."""
        if self._patches:
            return
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            importlib.import_module(info.name)
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and name.startswith("repro.")
        }
        probes = self._probes()
        replaced: dict[int, object] = {}
        originals: list[object] = []  # keeps ids in ``replaced`` alive
        for mod_name, module in modules.items():
            layer = layer_of(mod_name)
            if layer is None:
                continue
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if isinstance(obj, FunctionType) and not attr.startswith("_"):
                    qualified = f"{mod_name}.{attr}"
                    wrapped = self._wrap_function(
                        obj, layer, attr, probes.get(qualified)
                    )
                    replaced[id(obj)] = wrapped
                    originals.append(obj)
                elif isinstance(obj, type):
                    self._patch_class(obj, layer, mod_name, probes)
        # ``from x import f`` copies: rebind every module-level alias.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None and isinstance(obj, FunctionType):
                    self._patch(module, attr, wrapped)
        for mod_name, cls_name, method, index in _SCHEDULERS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(
                cls, method, _rebinding(cls.__dict__[method], index, self.bind)
            )

    def _patch_class(self, cls: type, layer: str, mod_name: str, probes) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            probe = probes.get(f"{mod_name}.{name}")
            if isinstance(member, FunctionType):
                wrapped = self._wrap_function(member, layer, name, probe)
            elif isinstance(member, (staticmethod, classmethod)):
                inner = member.__func__
                if not isinstance(inner, FunctionType):
                    continue
                wrapped = type(member)(
                    self._wrap_function(inner, layer, name, probe)
                )
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome-trace JSON (``chrome://tracing``).

        Spans were appended as they closed; sorted by start time their
        recorded depth gives each one's parent (the last span seen one
        level up), which goes into ``args`` beside the client-op id.
        """
        spans = sorted(self._spans or [], key=lambda s: (s[2], -s[3]))
        origin = spans[0][2] if spans else 0.0
        last_at_depth: dict[int, int] = {}
        events = []
        for index, (name, layer, start, end, depth, op) in enumerate(spans):
            last_at_depth[depth] = index
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "id": index,
                        "parent": last_at_depth.get(depth - 1, -1),
                        "op": op,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _rebinding(method, index: int, bind):
    """``method`` with its ``index``-th positional argument re-bound."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        args = list(args)
        args[index] = bind(args[index])
        return method(self, *args, **kwargs)

    return wrapper


class _BoundCallback:
    """A scheduled callback carrying its owner's span and its op id."""

    __slots__ = ("_callback", "_enter", "_leave", "_tracer", "_op")

    def __init__(self, callback, enter, leave, tracer, op) -> None:
        self._callback = callback
        self._enter = enter
        self._leave = leave
        self._tracer = tracer
        self._op = op

    def __call__(self, *args):
        tracer = self._tracer
        previous, tracer.op = tracer.op, self._op
        frame = self._enter()
        try:
            return self._callback(*args)
        finally:
            self._leave(frame)
            tracer.op = previous


class _TracedGenerator:
    """A generator whose every resume is one span."""

    __slots__ = ("_gen", "_enter", "_leave")

    def __init__(self, gen, enter, leave) -> None:
        self._gen = gen
        self._enter = enter
        self._leave = leave

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._leave(frame)

    def throw(self, *exc_info):
        frame = self._enter()
        try:
            return self._gen.throw(*exc_info)
        finally:
            self._leave(frame)

    def close(self) -> None:
        self._gen.close()


class _TracedAwaitable:
    """A coroutine whose every step between suspensions is one span."""

    __slots__ = ("_coro", "_enter", "_leave")

    def __init__(self, coro, enter, leave) -> None:
        self._coro = coro
        self._enter = enter
        self._leave = leave

    def __await__(self):
        steps = self._coro.__await__()
        value, error = None, None
        while True:
            frame = self._enter()
            try:
                if error is not None:
                    pending = steps.throw(error)
                else:
                    pending = steps.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._leave(frame)
            try:
                value, error = (yield pending), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc
