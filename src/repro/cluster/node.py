"""Fail-stop storage nodes with versioned block stores.

A :class:`StorageNode` models one storage server of the paper's system:

* it holds *data records* (payload + integer version) and *parity records*
  (payload + per-contribution version vector, the column V[:, j-k] of
  Algorithm 1), keyed by arbitrary hashable keys. Records are immutable:
  every mutation installs a new record whose payload is a fresh read-only
  buffer, so the read RPCs hand out the stored payload itself (no copy)
  and a reply still in flight keeps the bytes it was served with — callers
  that want to modify a payload copy it first;
* it is fail-stop (assumption 3 of section IV): when failed, every RPC
  raises :class:`NodeUnavailableError`; it never returns wrong data —
  unless a :class:`ByzantineBehavior` is armed on it, which flips the
  node into corrupting read-type replies (garbled payloads and/or
  understated versions) for robustness experiments;
* parity delta application enforces the Algorithm-1 line-26 guard: the
  delta for contribution i at expected version v is accepted only if the
  stored contribution version equals v (otherwise the node is *stale* for
  that contribution and the write counts as failed on it);
* data writes enforce version monotonicity (a replayed or out-of-date
  write is rejected), which keeps last-writer-wins semantics under
  concurrent coordinators.

Nodes also keep per-operation counters so experiments can account for IO.

Service time
------------

On the instant execution path a node answers an RPC in zero time. The
event-driven runtime can instead attach a FIFO *service queue* to every
node (:class:`~repro.runtime.event.NodeServiceQueue`): each delivered
request then occupies the node for a sampled service time before its
reply is produced, so concurrent coordinators genuinely contend for the
node. The :class:`ServiceTimeModel` hierarchy here is the configurable
distribution of that per-request service time; :class:`QueueStats`
accumulates what the queue measured (waits, service, backlog).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, NodeUnavailableError, StaleNodeError

__all__ = [
    "DataRecord",
    "ParityRecord",
    "NodeStats",
    "StorageNode",
    "serve",
    "ByzantineBehavior",
    "MetadataByzantineBehavior",
    "ServiceTimeModel",
    "FixedServiceTime",
    "ExponentialServiceTime",
    "QueueStats",
]


class ServiceTimeModel:
    """Base per-request service-time model (virtual seconds)."""

    def sample(self, rng: np.random.Generator) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class FixedServiceTime(ServiceTimeModel):
    """Deterministic service time: the M/D/1-style server."""

    time: float = 0.0005

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"service time must be >= 0, got {self.time}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.time


@dataclass(frozen=True)
class ExponentialServiceTime(ServiceTimeModel):
    """Memoryless service time with the given mean: the M/M/1 server."""

    mean: float = 0.0005

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"service mean must be > 0, got {self.mean}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean))


@dataclass
class QueueStats:
    """What one node's FIFO service queue measured.

    ``total_wait`` sums the queueing delay (arrival to service start) of
    every started request, ``total_service`` the sampled service times
    (equals the server's busy time), ``max_queue_len`` the worst backlog
    including the request in service.
    """

    arrivals: int = 0
    started: int = 0
    served: int = 0
    total_wait: float = 0.0
    total_service: float = 0.0
    max_queue_len: int = 0

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay per started request (0.0 when idle)."""
        return self.total_wait / self.started if self.started else 0.0

    def utilization(self, duration: float) -> float:
        """Busy fraction of the server over ``duration`` virtual seconds."""
        return self.total_service / duration if duration > 0 else 0.0


@dataclass(slots=True)
class DataRecord:
    """A data block replica: read-only payload plus scalar version.

    Never modified once stored — a node replaces the whole record.
    """

    payload: np.ndarray
    version: int


@dataclass(slots=True)
class ParityRecord:
    """A parity block: read-only payload plus contribution-version vector
    V[:, j-k]. Never modified once stored, like :class:`DataRecord`."""

    payload: np.ndarray
    versions: np.ndarray  # shape (k,), int64


def _frozen(buf: np.ndarray) -> np.ndarray:
    """Seal a buffer the node owns: nothing writes to a stored record."""
    buf.setflags(write=False)
    return buf


@dataclass
class NodeStats:
    """IO accounting for one node."""

    reads: int = 0
    writes: int = 0
    deltas: int = 0
    version_queries: int = 0
    stale_rejections: int = 0
    failed_rpcs: int = 0
    corrupted_replies: int = 0

    def total_ops(self) -> int:
        return self.reads + self.writes + self.deltas + self.version_queries


#: RPC methods whose *replies* a Byzantine node may corrupt. Write-type
#: RPCs return None — a Byzantine storage server can drop writes too, but
#: that is already covered by the fail-stop faultloads; the interesting
#: new failure mode is answering reads with garbage.
_READ_METHODS = frozenset(
    {"read_data", "data_version", "read_parity", "parity_versions"}
)


class ByzantineBehavior:
    """Corruption policy armed on one node: lies on read-type replies.

    ``mode``
        ``payload``: XOR every byte of a returned payload with a nonzero
        mask (the value is wrong in every position, version claims stay
        truthful) — the cross-checksum-detectable corruption;
        ``stale``: understate versions by one (payloads intact) — the
        node pretends not to have seen the latest write;
        ``mixed``: an independent coin flip between the two per reply.
    ``rate``
        per-reply probability of corruption; draws come from the
        dedicated ``rng`` stream so arming a node at rate 0 consumes
        nothing from the experiment's other streams.

    The behavior mutates only the *reply* — the node's disk content stays
    correct, so the same node answers honestly once disarmed.
    """

    def __init__(self, mode: str, rate: float, rng: np.random.Generator) -> None:
        if mode not in ("payload", "stale", "mixed"):
            raise ConfigurationError(f"unknown corruption mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"corruption rate must be in [0, 1], got {rate}")
        self.mode = mode
        self.rate = float(rate)
        self.rng = rng
        self.injected = 0

    def _corrupt_payload(self, payload: np.ndarray) -> np.ndarray:
        mask = self.rng.integers(1, 256, size=payload.shape, dtype=np.int64)
        return np.bitwise_xor(payload, mask.astype(payload.dtype))

    def apply(self, node: "StorageNode", method: str, value, args=()):
        """Possibly corrupt one reply; returns the (new) reply value.

        ``args`` (the RPC positional arguments) is accepted for interface
        parity with :class:`MetadataByzantineBehavior` — storage-node
        corruption is key-oblivious, so it goes unused here.
        """
        if method not in _READ_METHODS or self.rate == 0.0:
            return value
        if self.rng.random() >= self.rate:
            return value
        mode = self.mode
        if mode == "mixed":
            mode = "payload" if self.rng.random() < 0.5 else "stale"
        if mode == "payload":
            if method not in ("read_data", "read_parity"):
                return value  # version queries carry no payload to garble
            payload, meta = value
            self.injected += 1
            node.stats.corrupted_replies += 1
            return (self._corrupt_payload(payload), meta)
        # stale: understate versions by one, payloads untouched
        if method == "read_data":
            payload, version = value
            result = (payload, int(version) - 1)
        elif method == "data_version":
            result = max(int(value) - 1, -1)
        elif method == "read_parity":
            payload, versions = value
            result = (payload, np.maximum(versions - 1, 0))
        else:  # parity_versions
            if value is None:
                return value
            result = np.maximum(value - 1, 0)
        self.injected += 1
        node.stats.corrupted_replies += 1
        return result


class MetadataByzantineBehavior:
    """Corruption policy armed on one *metadata* node.

    Metadata records live in ordinary data records (``read_data`` /
    ``data_version`` are the only read RPCs the tier serves), but the
    interesting lies differ from payload-node corruption:

    ``mode``
        ``forge``: fabricate a record — garble every byte of the stored
        digest(+tag) and bump the claimed version by one. Against a
        *signed* tier the writer-keyed tag cannot be regenerated, so
        forgeries die at the accept predicate (``tag_rejections``);
        against an unsigned tier the bumped version wins the max-version
        fold and poisons the read.
        ``stale_record``: replay the *authentic* record snapshotted when
        the node was armed (see :meth:`prime`) — a rollback attack. Tags
        verify (the record is genuine, merely old), so only the f+1
        matching rule of a Byzantine-sized quorum defeats it.
        ``equivocate``: an independent coin flip between the two per
        reply — the node tells different stories to different readers.
    ``rate``
        per-reply probability of lying, drawn from the dedicated ``rng``
        stream (a new appended stream, so arming changes nothing for
        existing seeds).

    Replies for keys first written *after* arming are adopted into the
    snapshot on first sight, so later replays roll back to that first
    version. ``injected`` counts only replies that actually differ from
    the truth.
    """

    def __init__(self, mode: str, rate: float, rng: np.random.Generator) -> None:
        if mode not in ("forge", "stale_record", "equivocate"):
            raise ConfigurationError(f"unknown metadata corruption mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"corruption rate must be in [0, 1], got {rate}")
        self.mode = mode
        self.rate = float(rate)
        self.rng = rng
        self.injected = 0
        self._snapshot: dict[object, DataRecord] = {}

    def prime(self, node: "StorageNode") -> None:
        """Snapshot the node's authentic records as the rollback targets."""
        for key, rec in node._data.items():
            self._snapshot.setdefault(key, rec)  # records are immutable

    def _garble(self, payload: np.ndarray) -> np.ndarray:
        mask = self.rng.integers(1, 256, size=payload.shape, dtype=np.int64)
        return np.bitwise_xor(payload, mask.astype(payload.dtype))

    def apply(self, node: "StorageNode", method: str, value, args=()):
        """Possibly replace one reply with a lie; returns the reply value."""
        if method not in ("read_data", "data_version") or self.rate == 0.0:
            return value
        if self.rng.random() >= self.rate:
            return value
        mode = self.mode
        if mode == "equivocate":
            mode = "forge" if self.rng.random() < 0.5 else "stale_record"
        if mode == "forge":
            if method == "read_data":
                payload, version = value
                result = (self._garble(payload), int(version) + 1)
            else:  # data_version
                result = int(value) + 1
        else:  # stale_record: replay the record from arm time
            key = args[0] if args else None
            if key is None:
                return value
            rec = self._snapshot.get(key)
            if rec is None:
                if method == "read_data":
                    payload, version = value
                    self._snapshot[key] = DataRecord(
                        _frozen(np.array(payload)), int(version)
                    )
                return value
            if method == "read_data":
                payload, version = value
                if int(version) == rec.version and np.array_equal(
                    payload, rec.payload
                ):
                    return value
                result = (rec.payload, rec.version)
            else:  # data_version
                if int(value) == rec.version:
                    return value
                result = rec.version
        self.injected += 1
        node.stats.corrupted_replies += 1
        return result


class StorageNode:
    """One fail-stop storage server."""

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self.alive = True
        self._data: dict[object, DataRecord] = {}
        self._parity: dict[object, ParityRecord] = {}
        self.stats = NodeStats()
        #: armed corruption policy (storage or metadata flavor), or None
        #: for the honest default
        self.byzantine: ByzantineBehavior | MetadataByzantineBehavior | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.alive else "DOWN"
        return f"StorageNode(id={self.node_id}, {state}, keys={len(self._data) + len(self._parity)})"

    # ------------------------------------------------------------------ #
    # failure model
    # ------------------------------------------------------------------ #

    def fail(self) -> None:
        """Fail-stop: the node stops answering but keeps its disk content."""
        self.alive = False

    def recover(self, wipe: bool = False) -> None:
        """Bring the node back. ``wipe=True`` models a disk replacement
        (all records lost, needs repair); ``wipe=False`` models a reboot
        (records intact but possibly stale)."""
        if wipe:
            self._data.clear()
            self._parity.clear()
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            self.stats.failed_rpcs += 1
            raise NodeUnavailableError(self.node_id)

    def set_byzantine(
        self, behavior: "ByzantineBehavior | MetadataByzantineBehavior"
    ) -> None:
        """Arm a corruption policy on this node (survives fail/recover)."""
        self.byzantine = behavior

    def clear_byzantine(self) -> None:
        """Disarm: the node answers honestly again."""
        self.byzantine = None

    # ------------------------------------------------------------------ #
    # data-record RPCs
    # ------------------------------------------------------------------ #

    def put_data(self, key, payload: np.ndarray, version: int) -> None:
        """Store/overwrite a data record (used for initial load & repair)."""
        self._check_alive()
        self.stats.writes += 1
        self._data[key] = DataRecord(_frozen(np.array(payload)), int(version))

    def write_data(self, key, payload: np.ndarray, version: int) -> None:
        """Versioned write: rejects non-monotonic versions (Alg. 1 data path)."""
        self._check_alive()
        rec = self._data.get(key)
        if rec is not None and int(version) <= rec.version:
            self.stats.stale_rejections += 1
            raise StaleNodeError(
                f"node {self.node_id}: write version {version} <= stored {rec.version}"
            )
        self.stats.writes += 1
        self._data[key] = DataRecord(_frozen(np.array(payload)), int(version))

    def read_data(self, key) -> tuple[np.ndarray, int]:
        """Return (read-only stored payload, version); KeyError if never stored."""
        self._check_alive()
        self.stats.reads += 1
        rec = self._data[key]
        return rec.payload, rec.version

    def data_version(self, key) -> int:
        """The stored version of a data record, -1 if absent.

        -1 mirrors Algorithm 2's ``version <- -1`` initialization: an absent
        record is older than any written version (versions start at 0).
        """
        self._check_alive()
        self.stats.version_queries += 1
        rec = self._data.get(key)
        return rec.version if rec is not None else -1

    # ------------------------------------------------------------------ #
    # parity-record RPCs
    # ------------------------------------------------------------------ #

    def put_parity(self, key, payload: np.ndarray, versions: np.ndarray) -> None:
        """Store/overwrite a parity record (initial load & repair)."""
        self._check_alive()
        self.stats.writes += 1
        self._parity[key] = ParityRecord(
            _frozen(np.array(payload)),
            np.array(versions, dtype=np.int64, copy=True),
        )

    def apply_delta(
        self, key, contribution: int, delta: np.ndarray, expected_version: int, new_version: int
    ) -> None:
        """Algorithm 1's ``N_j.add``: ``b_j ^= delta`` guarded by V.

        The delta is accepted only when the stored contribution version for
        ``contribution`` equals ``expected_version`` (line 26); on success
        the contribution version advances to ``new_version``. The fold
        installs ``b_j ^ delta`` as a new record rather than writing into
        the stored buffer, which earlier readers may still hold.
        """
        self._check_alive()
        rec = self._parity.get(key)
        if rec is None:
            self.stats.stale_rejections += 1
            raise StaleNodeError(f"node {self.node_id}: no parity record for {key!r}")
        if not 0 <= contribution < rec.versions.shape[0]:
            raise ConfigurationError(
                f"contribution index {contribution} out of range"
            )
        if int(new_version) <= int(expected_version):
            raise ConfigurationError("new_version must exceed expected_version")
        if rec.versions[contribution] != int(expected_version):
            self.stats.stale_rejections += 1
            raise StaleNodeError(
                f"node {self.node_id}: contribution {contribution} at version "
                f"{int(rec.versions[contribution])}, expected {expected_version}"
            )
        delta = np.asarray(delta)
        if delta.shape != rec.payload.shape:
            raise ConfigurationError(
                f"delta shape {delta.shape} != parity shape {rec.payload.shape}"
            )
        if delta.dtype != rec.payload.dtype:
            delta = delta.astype(rec.payload.dtype)
        self.stats.deltas += 1
        versions = rec.versions.copy()
        versions[contribution] = int(new_version)
        self._parity[key] = ParityRecord(
            _frozen(np.bitwise_xor(rec.payload, delta)), versions
        )

    def read_parity(self, key) -> tuple[np.ndarray, np.ndarray]:
        """Return (read-only stored payload, version-vector copy); KeyError
        if absent."""
        self._check_alive()
        self.stats.reads += 1
        rec = self._parity[key]
        return rec.payload, rec.versions.copy()

    def parity_versions(self, key) -> np.ndarray | None:
        """The stored version vector V[:, j-k] (copy), or None if absent.

        This is the ``u.version(id)`` RPC of Algorithms 1-2 for parity
        nodes: the reader receives the whole column.
        """
        self._check_alive()
        self.stats.version_queries += 1
        rec = self._parity.get(key)
        return rec.versions.copy() if rec is not None else None

    # ------------------------------------------------------------------ #
    # introspection (not RPCs: test/repair tooling)
    # ------------------------------------------------------------------ #

    def keys(self) -> set:
        """All stored keys (works even when failed: disk inspection)."""
        return set(self._data) | set(self._parity)

    def has_key(self, key) -> bool:
        return key in self._data or key in self._parity

    def snapshot(self) -> tuple[dict, dict]:
        """The (data, parity) record stores as of now, for :meth:`restore`.

        Shallow copies are exact: a stored record is never modified, and
        every store installs a new record, so the snapshot keeps seeing
        the records it was taken with.
        """
        return dict(self._data), dict(self._parity)

    def restore(self, snapshot: tuple[dict, dict]) -> None:
        """Hold exactly the records of ``snapshot`` again, and be up.

        The stores are refilled in place; the restored records are the
        snapshot's own (sealed) objects.
        """
        data, parity = snapshot
        self._data.clear()
        self._data.update(data)
        self._parity.clear()
        self._parity.update(parity)
        self.alive = True


def serve(node: StorageNode, method: str, args, kwargs):
    """Answer one RPC: the node side of Algorithms 1-2, defined once.

    Invokes ``node.method(*args, **kwargs)`` — a failed node refuses
    through its own ``_check_alive`` — and then lets an armed Byzantine
    behavior lie on the reply leg, after the RPC itself succeeded, so
    every execution path (``Network.rpc``, the event runtime's delivery,
    a live ``StorageNodeService``) observes the same fault. Whatever the
    node raises propagates; callers decide what they catch.
    """
    value = getattr(node, method)(*args, **kwargs)
    if node.byzantine is not None:
        value = node.byzantine.apply(node, method, value, args)
    return value
