"""Declarative system specification: the facade's serializable config tree.

A :class:`SystemSpec` describes one complete experiment — code parameters,
quorum geometry, cluster and failure model, placement, workload, scenario
and a single top-level ``seed`` — as a tree of frozen dataclasses. Every
node validates eagerly on construction, round-trips losslessly through
``to_dict()/from_dict()`` (and therefore JSON), and is hashable, so specs
can key caches and parameter sweeps.

A spec that loads is a spec that builds: every check a build or a run
would make of the protocol names, the quorum section, the seed or a
scenario kind's fields runs here, before anything is built. The spec
layer imports the quorum geometry for that, never the protocol engines:
the protocol table lives here, and :mod:`repro.api.registry` fills it
with each engine builder it registers;
:func:`repro.api.build.build_system` composes the pieces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from repro.errors import ConfigurationError
from repro.parallel.executor import resolve_jobs
from repro.quorum.trapezoid import TrapezoidQuorum, TrapezoidShape

__all__ = [
    "CodeSpec",
    "QuorumSpec",
    "ClusterSpec",
    "PlacementSpec",
    "WorkloadSpec",
    "LatencySpec",
    "ServiceTimeSpec",
    "ShardingSpec",
    "MetadataSpec",
    "FaultloadSpec",
    "ScenarioSpec",
    "TransportSpec",
    "SystemSpec",
    "build_trapezoid_quorum",
    "execution_options",
]


# --------------------------------------------------------------------- #
# serialization helpers shared by every spec node
# --------------------------------------------------------------------- #


def _jsonable(value):
    """Recursively convert a spec field value to plain JSON types."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _as_tuple(value, label: str):
    """Coerce a JSON list (or scalar/tuple) back into a tuple, or None."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ConfigurationError(f"{label} must be a list, got {value!r}")


class _SpecBase:
    """Mixin: dict/JSON round-trip for frozen spec dataclasses."""

    #: field name -> nested spec class (overridden by composite nodes)
    _NESTED: dict[str, type] = {}
    #: fields stored as tuples (JSON lists)
    _TUPLES: tuple[str, ...] = ()
    #: kind -> the fields that kind reads (kind-tagged sections only)
    _KIND_FIELDS: dict[str, tuple[str, ...]] = {}

    def to_dict(self) -> dict:
        """Plain-JSON-types dict (tuples become lists, specs become dicts)."""
        return _jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "_SpecBase":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{cls.__name__} expects a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        kwargs = {}
        for key, value in data.items():
            if key in cls._NESTED and value is not None:
                value = cls._NESTED[key].from_dict(value)
            elif key in cls._TUPLES:
                value = _as_tuple(value, f"{cls.__name__}.{key}")
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "_SpecBase":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)

    def replace(self, **changes) -> "_SpecBase":
        """A copy with the given fields replaced (re-validates)."""
        return replace(self, **changes)

    def _refuse_unread_fields(self) -> None:
        """Refuse a set field ``kind`` does not read (a nested section
        equal to its all-default self, a ``none`` faultload, is unset)."""
        reads = self._KIND_FIELDS[self.kind]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "kind" or f.name in reads or value == f.default:
                continue
            if isinstance(value, _SpecBase) and value == type(value)():
                continue
            raise ConfigurationError(
                f"{type(self).__name__} kind {self.kind!r} does not read "
                f"{f.name!r}; it reads {list(reads)}"
            )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` must not pass for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


#: protocol name -> its :class:`~repro.api.registry.ProtocolEntry`,
#: filled by :func:`~repro.api.registry.register_protocol`
_PROTOCOLS: dict = {}


def protocol_names() -> tuple[str, ...]:
    """Registered protocol names, sorted."""
    return tuple(sorted(_PROTOCOLS))


def _require_protocol(name: str) -> None:
    _require(
        name in _PROTOCOLS,
        f"unknown protocol {name!r} (registered: {protocol_names()})",
    )


# --------------------------------------------------------------------- #
# leaf specs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CodeSpec(_SpecBase):
    """The (n, k) MDS code over GF(2^8)."""

    n: int = 9
    k: int = 6

    def __post_init__(self) -> None:
        _require(self.k >= 1, f"k must be >= 1, got {self.k}")
        _require(self.n >= self.k, f"need n >= k, got n={self.n}, k={self.k}")
        _require(
            self.n <= 256,
            f"(n={self.n}, k={self.k}) needs n <= 256: the code's generator "
            "takes one distinct point of GF(2^8) per block",
        )

    @property
    def group_size(self) -> int:
        """Nbnode = n - k + 1, the consistency-group size (paper eq. 5)."""
        return self.n - self.k + 1


@dataclass(frozen=True)
class QuorumSpec(_SpecBase):
    """Quorum geometry, keyed by ``kind``.

    ``trapezoid``
        ``a``, ``b``, ``h`` shape plus ``w`` (scalar eq.-16 uniform
        parameter, an explicit per-level tuple, or None for the default);
        shape and ``w`` must make a valid
        :class:`~repro.quorum.trapezoid.TrapezoidQuorum`.
    ``rowa`` / ``majority``
        the flat baselines' ``size`` nodes.

    A field the kind does not read is refused. :class:`SystemSpec`
    checks the rest against the code and the protocols the run builds.
    """

    _KIND_FIELDS = {
        "trapezoid": ("a", "b", "h", "w"),
        "rowa": ("size",),
        "majority": ("size",),
    }

    kind: str = "trapezoid"
    # trapezoid
    a: int | None = None
    b: int | None = None
    h: int | None = None
    w: int | tuple[int, ...] | None = None
    # flat systems
    size: int | None = None

    def __post_init__(self) -> None:
        _require(
            self.kind in self._KIND_FIELDS,
            f"unknown quorum kind {self.kind!r} "
            f"(expected one of {tuple(self._KIND_FIELDS)})",
        )
        if isinstance(self.w, list):
            object.__setattr__(self, "w", tuple(self.w))
        if self.kind == "trapezoid":
            _require(
                all(_is_int(v) for v in (self.a, self.b, self.h)),
                "trapezoid quorum needs a, b and h",
            )
            _require(
                self.w is None
                or _is_int(self.w)
                or (isinstance(self.w, tuple) and all(map(_is_int, self.w))),
                f"trapezoid w must be an int, a list of ints or null, got {self.w!r}",
            )
            build_trapezoid_quorum(self)  # TrapezoidQuorum's shape and w checks
        else:
            _require(
                _is_int(self.size) and self.size >= 1,
                f"{self.kind} quorum needs size >= 1",
            )
        self._refuse_unread_fields()


def build_trapezoid_quorum(spec: QuorumSpec) -> TrapezoidQuorum:
    """The :class:`TrapezoidQuorum` parameter object of a trapezoid spec.

    The trapezoid protocol engines and the availability analysis consume
    this object (shape plus write vector).
    """
    if spec.kind != "trapezoid":
        raise ConfigurationError(
            f"protocol requires a trapezoid quorum, got kind {spec.kind!r}"
        )
    shape = TrapezoidShape(spec.a, spec.b, spec.h)
    if spec.w is None or isinstance(spec.w, int):
        return TrapezoidQuorum.uniform(shape, spec.w)
    return TrapezoidQuorum(shape, tuple(spec.w))


@dataclass(frozen=True)
class ClusterSpec(_SpecBase):
    """Cluster size and failure model.

    ``bernoulli``
        i.i.d. per-node availability ``p`` (the paper's snapshot model).
    ``exponential``
        alternating-renewal fail/repair trace with means ``mtbf``/``mttr``
        (history-model runs).
    """

    num_nodes: int = 9
    failure: str = "bernoulli"
    p: float = 0.9
    mtbf: float | None = None
    mttr: float | None = None

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, f"num_nodes must be >= 1, got {self.num_nodes}")
        _require(
            self.failure in ("bernoulli", "exponential"),
            f"unknown failure model {self.failure!r}",
        )
        _require(0.0 <= self.p <= 1.0, f"p must be in [0, 1], got {self.p}")
        if self.failure == "exponential":
            _require(
                self.mtbf is not None and self.mtbf > 0,
                "exponential failure model needs mtbf > 0",
            )
            _require(
                self.mttr is not None and self.mttr > 0,
                "exponential failure model needs mttr > 0",
            )


@dataclass(frozen=True)
class PlacementSpec(_SpecBase):
    """Stripe-to-node placement policy."""

    kind: str = "identity"
    stripes: int = 1

    def __post_init__(self) -> None:
        _require(
            self.kind in ("identity", "rotating"),
            f"unknown placement kind {self.kind!r}",
        )
        _require(self.stripes >= 1, f"stripes must be >= 1, got {self.stripes}")


@dataclass(frozen=True)
class WorkloadSpec(_SpecBase):
    """Operation mix driven through the engine (see repro.sim.workloads)."""

    kind: str = "uniform"
    num_ops: int = 200
    read_fraction: float = 0.5
    block_length: int = 32
    alpha: float = 1.2  # zipf skew
    burst_length: int = 8  # vm_disk bursts
    hot_fraction: float = 0.2  # vm_disk hot set

    def __post_init__(self) -> None:
        _require(
            self.kind in ("uniform", "sequential", "zipf", "vm_disk"),
            f"unknown workload kind {self.kind!r}",
        )
        _require(self.num_ops >= 1, f"num_ops must be >= 1, got {self.num_ops}")
        _require(
            0.0 <= self.read_fraction <= 1.0,
            f"read_fraction must be in [0, 1], got {self.read_fraction}",
        )
        _require(
            self.block_length >= 1,
            f"block_length must be >= 1, got {self.block_length}",
        )
        _require(self.alpha > 0, f"alpha must be > 0, got {self.alpha}")
        _require(
            self.burst_length >= 1,
            f"burst_length must be >= 1, got {self.burst_length}",
        )
        _require(
            0.0 < self.hot_fraction <= 1.0,
            f"hot_fraction must be in (0, 1], got {self.hot_fraction}",
        )


@dataclass(frozen=True)
class LatencySpec(_SpecBase):
    """Message latency model + timeout/retry policy of the event runtime.

    ``kind`` selects the per-message-leg delay distribution (``fixed``:
    ``delay``; ``uniform``: [``low``, ``high``]; ``lognormal``:
    exp(N(``mu``, ``sigma``²)), heavy-tailed; ``two_tier``: per-link
    rack/WAN — ``local`` within a rack of ``rack_size`` consecutive
    nodes, ``remote`` across racks, widened by a fractional ``jitter``).
    ``timeout``/``retries`` form the per-operation
    :class:`~repro.runtime.rounds.RetryPolicy`: a request unanswered
    after ``timeout`` virtual seconds is resent up to ``retries`` times,
    then counts as failed.
    """

    kind: str = "lognormal"
    delay: float = 0.001
    low: float = 0.0005
    high: float = 0.002
    mu: float = -6.5
    sigma: float = 0.5
    local: float = 0.0005
    remote: float = 0.005
    rack_size: int = 3
    jitter: float = 0.0
    timeout: float = 0.05
    retries: int = 0

    def __post_init__(self) -> None:
        _require(
            self.kind in ("fixed", "uniform", "lognormal", "two_tier"),
            f"unknown latency kind {self.kind!r}",
        )
        _require(self.delay >= 0, f"delay must be >= 0, got {self.delay}")
        _require(
            0 <= self.low <= self.high,
            f"need 0 <= low <= high, got low={self.low}, high={self.high}",
        )
        _require(self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}")
        _require(
            0 <= self.local <= self.remote,
            f"need 0 <= local <= remote, got local={self.local}, "
            f"remote={self.remote}",
        )
        _require(self.rack_size >= 1, f"rack_size must be >= 1, got {self.rack_size}")
        _require(
            0.0 <= self.jitter < 1.0,
            f"jitter must be in [0, 1), got {self.jitter}",
        )
        _require(self.timeout > 0, f"timeout must be > 0, got {self.timeout}")
        _require(self.retries >= 0, f"retries must be >= 0, got {self.retries}")


@dataclass(frozen=True)
class ServiceTimeSpec(_SpecBase):
    """Per-node request service time of the event runtime.

    ``none`` (the default) keeps nodes as infinite servers — zero
    service time, the pre-queue event path byte for byte. ``fixed``
    (M/D/1-style) and ``exponential`` (M/M/1-style, ``time`` is the
    mean) attach one FIFO service queue per node: every delivered
    request waits its turn and occupies the node for a sampled service
    time, so concurrent shards genuinely contend and throughput
    saturates at the service capacity.
    """

    kind: str = "none"
    time: float = 0.0005

    def __post_init__(self) -> None:
        _require(
            self.kind in ("none", "fixed", "exponential"),
            f"unknown service-time kind {self.kind!r}",
        )
        if self.kind == "fixed":
            _require(self.time >= 0, f"service time must be >= 0, got {self.time}")
        elif self.kind == "exponential":
            _require(self.time > 0, f"service mean must be > 0, got {self.time}")


@dataclass(frozen=True)
class ShardingSpec(_SpecBase):
    """How many stripe families share the cluster, and the address map.

    ``shards`` per-shard coordinators (each one stripe family of ``k``
    data blocks, placed via the placement policy's stripe rotation) run
    on one shared simulator/cluster; the front-end
    :class:`~repro.runtime.router.ShardRouter` maps the
    ``shards * k`` logical blocks onto them. ``routing`` is
    ``interleave`` (round-robin; with one shard the identity map — the
    run a spec without a ``sharding`` section gets) or ``hash`` (a fixed
    pseudorandom permutation seeded by ``route_seed`` — configuration,
    not experiment randomness — modelling hash placement of keys onto
    stripe families).
    """

    shards: int = 1
    routing: str = "interleave"
    route_seed: int = 0

    def __post_init__(self) -> None:
        _require(self.shards >= 1, f"shards must be >= 1, got {self.shards}")
        _require(
            self.routing in ("interleave", "hash"),
            f"unknown routing {self.routing!r}",
        )
        _require(
            isinstance(self.route_seed, int),
            f"route_seed must be an int, got {self.route_seed!r}",
        )


@dataclass(frozen=True)
class MetadataSpec(_SpecBase):
    """The separate metadata quorum of the verified (Byzantine) read path.

    ``nodes`` extra fail-stop-but-honest metadata nodes are appended to
    the cluster (ids ``num_nodes .. num_nodes + nodes - 1``); they store
    the per-block (version, digest) records that make payload replies
    verifiable. Writes and reads each need a majority of them.

    ``f`` is the number of *Byzantine* (lying, not just fail-stop)
    metadata nodes the tier tolerates. ``f > 0`` requires ``nodes >=
    3f + 1``, replaces the majority with 2f+1 write/read counts, and
    makes reads demand f+1 matching records (see
    :class:`~repro.runtime.verify.MetadataQuorum`). ``signed`` turns on
    writer-keyed record tags (self-verifying records); it defaults to
    ``f > 0`` — Byzantine tolerance without authentication is refused,
    while a trusted tier may opt in to signing alone (rollback-detection
    without the 3f+1 cost is not possible, but forged records still die
    at the tag check).
    """

    nodes: int = 3
    f: int = 0
    signed: bool | None = None

    def __post_init__(self) -> None:
        _require(self.nodes >= 1, f"metadata nodes must be >= 1, got {self.nodes}")
        _require(
            isinstance(self.f, int) and self.f >= 0,
            f"metadata f must be an int >= 0, got {self.f!r}",
        )
        if self.f > 0:
            _require(
                self.nodes >= 3 * self.f + 1,
                f"metadata f = {self.f} needs nodes >= 3f + 1 = "
                f"{3 * self.f + 1}, got {self.nodes}",
            )
            _require(
                self.signed is not False,
                "metadata f > 0 requires signed records (signed=False "
                "cannot tolerate Byzantine metadata nodes)",
            )
        _require(
            self.signed is None or isinstance(self.signed, bool),
            f"metadata signed must be a bool or None, got {self.signed!r}",
        )

    @property
    def effective_signed(self) -> bool:
        """Signing on? Explicit flag wins; otherwise implied by ``f > 0``."""
        return self.signed if self.signed is not None else self.f > 0


@dataclass(frozen=True)
class TransportSpec(_SpecBase):
    """How the ``wallclock`` scenario reaches its live node services.

    ``kind``
        ``inproc`` — asyncio queue pairs inside the driving process
        (zero network latency, full wire-protocol round trip); ``tcp`` —
        one listening socket per node on ``host``.
    ``port_base``
        ``0`` asks the OS for ephemeral ports (self-contained runs;
        collision-free in CI); a non-zero base pins node *i* to
        ``port_base + i`` — the layout ``repro serve`` announces and
        ``repro wallclock --connect`` dials.
    ``serialization``
        ``json`` — a JSON header followed by the raw payload bytes —
        is the only wire format; the field stays so existing spec files
        load.
    """

    kind: str = "inproc"
    host: str = "127.0.0.1"
    port_base: int = 0
    serialization: str = "json"

    def __post_init__(self) -> None:
        _require(
            self.kind in ("inproc", "tcp"),
            f"transport kind must be 'inproc' or 'tcp', got {self.kind!r}",
        )
        _require(
            isinstance(self.host, str) and len(self.host) > 0,
            f"host must be a non-empty string, got {self.host!r}",
        )
        _require(
            isinstance(self.port_base, int)
            and (self.port_base == 0 or 1024 <= self.port_base <= 65000),
            f"port_base must be 0 (ephemeral) or in [1024, 65000], "
            f"got {self.port_base!r}",
        )
        _require(
            self.serialization == "json",
            f"serialization must be 'json' (the only wire format), "
            f"got {self.serialization!r}",
        )


def _require_positive_finite(value: float, label: str) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value) and value > 0,
        f"{label} must be a finite number > 0, got {value!r}",
    )


def _require_unit_interval(value: float, label: str) -> None:
    _require(
        isinstance(value, (int, float))
        and math.isfinite(value)
        and 0.0 <= value <= 1.0,
        f"{label} must be a finite number in [0, 1], got {value!r}",
    )


@dataclass(frozen=True)
class FaultloadSpec(_SpecBase):
    """What goes wrong *while* the latency scenario runs.

    ``none``
        a healthy cluster (pure latency baseline),
    ``churn``
        alternating-renewal fail/repair per node with means
        ``mtbf``/``mttr`` (nodes miss writes while down and come back
        stale — mid-operation, thanks to the event runtime),
    ``partition``
        every ``period`` virtual seconds, ``partition_size`` randomly
        chosen nodes drop off the network for ``duration`` seconds
        (messages to them are silently lost; timeouts resolve them),
    ``byzantine``
        ``round(byzantine_fraction * num_nodes)`` payload nodes turn
        Byzantine for the whole run: each read-type reply they serve is
        corrupted with probability ``corruption_rate`` per
        ``corruption_mode`` (``payload``: garbled bytes, ``stale``:
        decremented versions, ``mixed``: a coin flip between the two).
        Additionally ``metadata_liars`` *metadata* nodes (requires a
        ``metadata`` section with at least that many nodes) lie on their
        record replies with probability ``metadata_rate`` per
        ``metadata_mode`` — ``forge`` (fabricated record, bumped
        version), ``stale_record`` (authentic-rollback replay of the
        record held when armed) or ``equivocate`` (a coin flip between
        the two per reply). With ``metadata_liars = 0`` (default) the
        metadata tier stays honest — the pre-hardening trust model.

    All rates are validated eagerly (negative, NaN and infinite values
    are spec-level errors, not late simulator failures), and a field the
    kind does not read must keep its default.
    """

    _KIND_FIELDS = {
        "none": (),
        "churn": ("mtbf", "mttr"),
        "partition": ("partition_size", "period", "duration"),
        "byzantine": (
            "byzantine_fraction",
            "corruption_mode",
            "corruption_rate",
            "metadata_liars",
            "metadata_mode",
            "metadata_rate",
        ),
    }

    kind: str = "none"
    mtbf: float = 200.0
    mttr: float = 20.0
    partition_size: int = 1
    period: float = 100.0
    duration: float = 20.0
    byzantine_fraction: float = 0.25
    corruption_mode: str = "payload"
    corruption_rate: float = 1.0
    metadata_liars: int = 0
    metadata_mode: str = "forge"
    metadata_rate: float = 1.0

    def __post_init__(self) -> None:
        _require(
            self.kind in self._KIND_FIELDS, f"unknown faultload kind {self.kind!r}"
        )
        _require_positive_finite(self.mtbf, "mtbf")
        _require_positive_finite(self.mttr, "mttr")
        _require(
            self.partition_size >= 1,
            f"partition_size must be >= 1, got {self.partition_size}",
        )
        _require_positive_finite(self.period, "period")
        _require(
            isinstance(self.duration, (int, float))
            and math.isfinite(self.duration)
            and 0 < self.duration <= self.period,
            f"need 0 < duration <= period, got duration={self.duration!r}, "
            f"period={self.period}",
        )
        _require_unit_interval(self.byzantine_fraction, "byzantine_fraction")
        _require(
            self.corruption_mode in ("payload", "stale", "mixed"),
            f"unknown corruption_mode {self.corruption_mode!r}",
        )
        _require_unit_interval(self.corruption_rate, "corruption_rate")
        _require(
            isinstance(self.metadata_liars, int) and self.metadata_liars >= 0,
            f"metadata_liars must be an int >= 0, got {self.metadata_liars!r}",
        )
        _require(
            self.metadata_mode in ("forge", "stale_record", "equivocate"),
            f"unknown metadata_mode {self.metadata_mode!r}",
        )
        _require_unit_interval(self.metadata_rate, "metadata_rate")
        self._refuse_unread_fields()


@dataclass(frozen=True)
class ScenarioSpec(_SpecBase):
    """What the :class:`~repro.api.runner.ScenarioRunner` executes.

    ``smoke``
        run the workload through the engine on a healthy cluster,
    ``availability``
        closed-form / exact / Monte-Carlo sweep over ``ps``,
    ``protocol_mc``
        per-trial execution of the real engine under sampled failures,
    ``trace``
        discrete-event history-model run (needs an exponential cluster),
    ``comparison``
        several registry protocols against one shared failure schedule
        (``num_blocks = 1`` pins every operation to block 0, whose
        consistency group every flat baseline replicates on — the
        paper-faithful same-node-set comparison; the default ``None``
        spreads operations over all k blocks),
    ``sweep``
        the availability sweep repeated across trapezoid ``w_values``,
    ``optimize``
        the occupancy-engine configuration search over every (shape, w)
        for the code's (n, k), one result per entry of ``ps`` (tables are
        shared across the grid; ``max_h`` bounds the shape search),
    ``latency``
        the event-driven runtime: ``clients`` closed-loop clients drive
        the workload concurrently (``think_time`` between an operation's
        completion and the client's next one) under the ``faultload``,
        with messages travelling per the system's ``latency`` spec;
        reports p50/p95/p99 operation latency, availability and
        per-round message counts. Honors the system's ``sharding`` and
        ``service`` sections (per-shard results appear when either is
        configured),
    ``saturation``
        the scaling question: the same sharded closed-loop run repeated
        for every entry of ``client_counts`` (fresh cluster per point,
        same workload tape and faultload), reporting the ops/s-vs-clients
        curve with per-shard + aggregate percentiles, queue-wait
        summaries and the knee of the curve,
    ``wallclock``
        the measured counterpart of ``latency``: the same spec runs once
        through the simulator (prediction) and once against live node
        services (the system's ``transport`` section; in-process by
        default, TCP for real sockets), reporting predicted and measured
        p50/p95/p99 side by side. ``horizon`` acts as a hard wall-clock
        guard in real seconds. Faultloads are simulation-only.

    A field the kind does not read (see ``_KIND_FIELDS``) is refused.
    """

    _TUPLES = ("ps", "protocols", "w_values", "client_counts")
    _NESTED = {"faultload": FaultloadSpec}
    _KIND_FIELDS = {
        "smoke": (),
        "availability": ("ps", "trials"),
        "protocol_mc": ("trials",),
        "trace": ("horizon", "op_rate", "repair_interval"),
        "comparison": ("steps", "max_down", "protocols", "num_blocks"),
        "sweep": ("ps", "trials", "w_values"),
        "optimize": ("ps", "max_h"),
        "latency": ("clients", "think_time", "horizon", "repair_interval", "faultload"),
        "saturation": (
            "client_counts", "think_time", "horizon", "repair_interval", "faultload"
        ),
        "wallclock": ("clients", "think_time", "horizon"),
    }

    kind: str = "smoke"
    ps: tuple[float, ...] = (0.5, 0.7, 0.9)
    trials: int = 1000
    steps: int = 200
    max_down: int = 2
    horizon: float = 200.0
    op_rate: float = 1.0
    repair_interval: float | None = None
    protocols: tuple[str, ...] | None = None
    w_values: tuple[int, ...] | None = None
    num_blocks: int | None = None
    max_h: int = 3
    clients: int = 4
    think_time: float = 0.0
    client_counts: tuple[int, ...] | None = None
    faultload: FaultloadSpec | None = None

    def __post_init__(self) -> None:
        _require(
            self.kind in self._KIND_FIELDS,
            f"unknown scenario kind {self.kind!r} "
            f"(expected one of {tuple(self._KIND_FIELDS)})",
        )
        ps = tuple(float(p) for p in self.ps)
        _require(len(ps) >= 1, "ps must contain at least one availability value")
        _require(
            all(0.0 <= p <= 1.0 for p in ps),
            f"every p must be in [0, 1], got {ps}",
        )
        object.__setattr__(self, "ps", ps)
        _require(self.trials >= 0, f"trials must be >= 0, got {self.trials}")
        _require(self.steps >= 1, f"steps must be >= 1, got {self.steps}")
        _require(self.max_down >= 0, f"max_down must be >= 0, got {self.max_down}")
        _require(self.horizon > 0, f"horizon must be > 0, got {self.horizon}")
        _require(self.op_rate > 0, f"op_rate must be > 0, got {self.op_rate}")
        if self.repair_interval is not None:
            _require(
                self.repair_interval > 0,
                f"repair_interval must be > 0, got {self.repair_interval}",
            )
        if self.protocols is not None:
            protocols = tuple(str(p) for p in self.protocols)
            _require(len(protocols) >= 1, "protocols must not be empty")
            for name in protocols:
                _require_protocol(name)
            object.__setattr__(self, "protocols", protocols)
        if self.w_values is not None:
            w_values = tuple(int(w) for w in self.w_values)
            _require(len(w_values) >= 1, "w_values must not be empty")
            object.__setattr__(self, "w_values", w_values)
        if self.num_blocks is not None:
            _require(
                self.num_blocks >= 1,
                f"num_blocks must be >= 1, got {self.num_blocks}",
            )
        _require(self.max_h >= 0, f"max_h must be >= 0, got {self.max_h}")
        _require(self.clients >= 1, f"clients must be >= 1, got {self.clients}")
        _require(
            self.think_time >= 0,
            f"think_time must be >= 0, got {self.think_time}",
        )
        if self.client_counts is not None:
            counts = tuple(int(c) for c in self.client_counts)
            _require(len(counts) >= 1, "client_counts must not be empty")
            _require(
                all(c >= 1 for c in counts),
                f"every client count must be >= 1, got {counts}",
            )
            object.__setattr__(self, "client_counts", counts)
        if self.kind == "optimize":
            _require(
                all(0.0 < p < 1.0 for p in self.ps),
                f"optimize needs every p strictly inside (0, 1), got {self.ps}",
            )
        if self.kind == "protocol_mc":
            _require(
                self.trials >= 1,
                f"protocol_mc needs trials >= 1, got {self.trials} "
                "(trials = 0 only disables the optional MC column of "
                "availability/sweep scenarios)",
            )
        self._refuse_unread_fields()


# --------------------------------------------------------------------- #
# the top-level spec
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SystemSpec(_SpecBase):
    """One complete, reproducible experiment configuration.

    ``protocol`` names an entry of the protocol registry
    (:func:`repro.api.registry.protocol_names`); ``seed`` is the single
    source of randomness — every schedule, workload, payload and
    Monte-Carlo stream is derived from it, so an identical spec reproduces
    identical results end to end.
    """

    _NESTED = {
        "code": CodeSpec,
        "quorum": QuorumSpec,
        "cluster": ClusterSpec,
        "placement": PlacementSpec,
        "workload": WorkloadSpec,
        "latency": LatencySpec,
        "service": ServiceTimeSpec,
        "sharding": ShardingSpec,
        "metadata": MetadataSpec,
        "scenario": ScenarioSpec,
        "transport": TransportSpec,
    }

    protocol: str = "trap-erc"
    code: CodeSpec = field(default_factory=CodeSpec)
    quorum: QuorumSpec | None = None
    cluster: ClusterSpec | None = None
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    latency: LatencySpec | None = None
    service: ServiceTimeSpec | None = None
    sharding: ShardingSpec | None = None
    metadata: MetadataSpec | None = None
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    transport: TransportSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require_protocol(self.protocol)
        if self.quorum is None:
            # Default geometry: the flat single-level trapezoid over the
            # consistency group — always valid for any (n, k).
            object.__setattr__(
                self,
                "quorum",
                QuorumSpec(kind="trapezoid", a=0, b=self.code.group_size, h=0),
            )
        if self.cluster is None:
            object.__setattr__(self, "cluster", ClusterSpec(num_nodes=self.code.n))
        _require(
            self.cluster.num_nodes >= self.code.n,
            f"cluster of {self.cluster.num_nodes} nodes cannot host "
            f"n={self.code.n} blocks",
        )
        _require(
            _is_int(self.seed) and self.seed >= 0,
            f"seed must be a non-negative integer, got {self.seed!r}",
        )
        scenario = self.scenario
        if scenario.kind == "trace":
            _require(
                self.protocol == "trap-erc",
                "trace scenarios run the TRAP-ERC engine; set protocol to "
                f"'trap-erc' (got {self.protocol!r})",
            )
            _require(
                self.cluster.failure == "exponential",
                "trace scenarios need cluster.failure = 'exponential' "
                "with mtbf and mttr",
            )
        if scenario.num_blocks is not None:
            _require(
                scenario.num_blocks <= self.code.k,
                f"num_blocks must be <= k = {self.code.k}, got {scenario.num_blocks}",
            )
        self._check_quorum()
        if scenario.w_values is not None:
            # A single-level trapezoid has no free w (w_0 is mandatory):
            # sweeping w_values over it would fabricate a dependence.
            _require(
                self.quorum.h != 0,
                "w_values cannot be swept on an h = 0 trapezoid "
                "(w_0 = floor(b/2) + 1 is mandatory)",
            )
            shape = build_trapezoid_quorum(self.quorum).shape
            for w in scenario.w_values:
                TrapezoidQuorum.uniform(shape, w)  # 1 <= w <= s_l
        liars = scenario.faultload.metadata_liars if scenario.faultload else 0
        if liars > 0:
            _require(
                self.metadata is not None,
                "metadata_liars > 0 needs a metadata section in the spec",
            )
            _require(
                liars <= self.metadata.nodes,
                f"metadata_liars = {liars} exceeds the metadata tier size "
                f"{self.metadata.nodes}",
            )

    def _check_quorum(self) -> None:
        """Refuse a quorum section that a protocol of the run cannot use.

        A trapezoid spans the consistency group: Nbnode = n - k + 1 (eq.
        5). A flat section replicates on that group too, and must name
        every protocol the run builds — ``protocol``, plus each entry of
        ``scenario.protocols`` in a comparison, which must then be set;
        the availability and sweep kinds study a trapezoid.
        """
        quorum, code = self.quorum, self.code
        group = code.group_size
        if quorum.kind == "trapezoid":
            total = build_trapezoid_quorum(quorum).shape.total_nodes
            _require(
                total == group,
                f"trapezoid holds {total} nodes but (n={code.n}, k={code.k}) "
                f"requires Nbnode = n - k + 1 = {group}",
            )
            return
        scenario = self.scenario
        needs_trapezoid = (
            f"protocol requires a trapezoid quorum, got kind {quorum.kind!r}"
        )
        _require(scenario.kind not in ("availability", "sweep"), needs_trapezoid)
        names = [self.protocol]
        if scenario.kind == "comparison":
            _require(
                scenario.protocols is not None,
                f"a comparison over a {quorum.kind!r} quorum must list "
                "scenario.protocols (unset, it runs every registered protocol)",
            )
            names += scenario.protocols
        for name in names:
            if name == quorum.kind:
                _require(
                    quorum.size == group,
                    f"{name} replicates on the n - k + 1 = {group} node "
                    f"consistency group, but quorum.size = {quorum.size}; "
                    f"omit quorum or set size = {group}",
                )
            elif name in QuorumSpec._KIND_FIELDS:
                raise ConfigurationError(
                    f"quorum kind {quorum.kind!r} contradicts protocol "
                    f"{name!r}; omit quorum, or use kind {name!r} with "
                    f"size = {group}"
                )
            else:
                raise ConfigurationError(needs_trapezoid)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSpec":
        """Round-trip inverse of :meth:`to_dict`, tolerant of an advisory
        ``execution`` block.

        ``execution`` carries host-side options — currently only
        ``jobs``, the process-pool width — that change how a run
        executes, never what it computes. It is validated and then
        *dropped*: it is not a spec field, ``to_dict`` never emits it,
        and two configs differing only in ``execution`` are the same
        spec (same hash, same results). Use
        :func:`execution_options` to read it from raw config JSON.
        """
        if isinstance(data, dict) and "execution" in data:
            data = dict(data)
            execution_options(data.pop("execution"))
        return super().from_dict(data)

    @classmethod
    def trapezoid(
        cls,
        n: int,
        k: int,
        a: int,
        b: int,
        h: int,
        w: int | tuple[int, ...] | None = None,
        *,
        protocol: str = "trap-erc",
        **kwargs,
    ) -> "SystemSpec":
        """Convenience constructor for the paper's setting."""
        return cls(
            protocol=protocol,
            code=CodeSpec(n=n, k=k),
            quorum=QuorumSpec(kind="trapezoid", a=a, b=b, h=h, w=w),
            **kwargs,
        )


# --------------------------------------------------------------------- #
# execution options (advisory, never part of spec identity)
# --------------------------------------------------------------------- #


def execution_options(block) -> dict:
    """Validate an advisory ``execution`` config block -> ``{"jobs": N}``.

    Execution options describe *how* to run a spec on this host (the
    process-pool width), not *what* to compute, so they live outside
    :class:`SystemSpec`: ``SystemSpec.from_dict`` strips the block and
    ``to_dict`` never emits it — spec hashing, equality and result
    embedding are all jobs-blind. ``None`` (block absent) means
    ``jobs = 0``, the inline serial path; a ``jobs`` value follows
    :func:`~repro.parallel.executor.resolve_jobs`, the rule of the
    ``--jobs`` flag (``-1`` / ``"auto"`` = one worker per CPU).
    """
    if block is None:
        return {"jobs": 0}
    if not isinstance(block, dict):
        raise ConfigurationError(
            f"execution must be a mapping, got {type(block).__name__}"
        )
    unknown = set(block) - {"jobs"}
    if unknown:
        raise ConfigurationError(
            f"unknown execution keys: {sorted(unknown)} (known: ['jobs'])"
        )
    return {"jobs": resolve_jobs(block.get("jobs", 0))}
