"""Verified read path: per-block digests + the separate metadata quorum.

The paper assumes fail-stop nodes (assumption 3), so its quorum math says
nothing about nodes that answer with *garbage*. Following the separate-
metadata construction of Androulaki et al. (*Erasure-Coded Byzantine
Storage with Separate Metadata*), this module adds the trust anchor that
makes payload replies checkable without trusting payload nodes:

* :func:`block_digest` — the cross-checksum primitive: a 16-byte BLAKE2b
  digest of a data block's bytes, computed by the writer;
* :class:`MetadataQuorum` — a lightweight, count-threshold quorum over
  ``nodes`` extra metadata nodes appended to the cluster. With ``f = 0``
  the tier is trusted fail-stop and a build asks a majority for writes
  and reads. With ``f > 0`` the tier itself tolerates ``f`` Byzantine
  members: the classic 3f+1 sizing with 2f+1 write/read thresholds (any
  two quorums then intersect in f+1 nodes — *Byzantine Reliable
  Broadcast*, Locher);
* :class:`BlockVerifier` — builds the ``metadata`` rounds that store and
  fetch per-block ``(version, digest)`` records, runs them as the two
  sub-plans every verified engine and the repair service yield from
  (:meth:`~BlockVerifier.read_plan`, :meth:`~BlockVerifier.commit_plan`),
  and supplies the accept predicates that verify payload replies against
  the records. Verification failures are counted (``digest_mismatches``
  for content lies, ``version_mismatches`` for stale-or-lying version
  claims) and simply *reject* the response — both coordinators then
  widen the round naturally (the event path's
  :class:`~repro.runtime.rounds.QuorumWait` keeps waiting for substitute
  replies, the instant path keeps issuing), so a read only fails once
  the quorum is genuinely exhausted.

Self-verifying records
----------------------

With ``signed=True`` every record carries a writer-keyed HMAC (BLAKE2b
keyed mode, :func:`record_tag`) over ``(namespace, block, version,
digest)``. A metadata node holds no writer key, so it cannot *forge* a
record — it can only serve authentic ones (possibly old: a rollback).
Signed read rounds reject bad-tag records at the accept predicate
(``tag_rejections``), which widens the round to substitute metadata
replies; with ``f > 0``, :meth:`BlockVerifier.resolve` additionally
requires **f+1 matching** ``(version, digest)`` records instead of
trusting the single max-version reply, which defeats authentic-record
rollback replay by up to f liars. Unsigned f=0 verifiers keep the
original 16-byte record layout bit for bit, so existing seeds replay
identically.

Metadata records are stored as ordinary data records on the metadata
nodes (digest — plus tag — bytes as the payload, the block version as
the record version), so every existing piece of machinery — service
queues, latency legs, failure injection, the trace — applies to the
metadata tier unchanged.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import Counter

import numpy as np

from repro.errors import ConfigurationError, NodeUnavailableError, StaleNodeError
from repro.runtime.rounds import Request, Response, Round, RoundOutcome

__all__ = [
    "METADATA_ROUND",
    "DIGEST_SIZE",
    "TAG_SIZE",
    "block_digest",
    "writer_key",
    "record_tag",
    "MetadataQuorum",
    "BlockVerifier",
]

#: round-kind label of metadata-quorum traffic (message accounting key)
METADATA_ROUND = "metadata"

#: digest width in bytes (BLAKE2b truncated output)
DIGEST_SIZE = 16

#: record-tag width in bytes (BLAKE2b keyed-mode truncated output)
TAG_SIZE = 16


def block_digest(payload: np.ndarray) -> bytes:
    """The cross-checksum of one data block: BLAKE2b-128 over its bytes."""
    data = np.ascontiguousarray(payload).tobytes()
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def writer_key(namespace: str) -> bytes:
    """The deterministic per-namespace writer key of the signed tier.

    Derived (BLAKE2b with a personalization string) rather than sampled
    so one spec reproduces one key: simulated metadata nodes never see
    it — the threat model is a storage server without the writer's
    credential, not a compromised writer.
    """
    return hashlib.blake2b(
        namespace.encode("utf-8"), digest_size=32, person=b"repro-meta-key"
    ).digest()


def record_tag(
    key: bytes, namespace: str, block: int, version: int, digest: bytes
) -> bytes:
    """Writer-keyed HMAC over one metadata record (BLAKE2b keyed mode).

    The tag binds the digest to its coordinates — namespace, block and
    version — so a lying metadata node can neither fabricate a record
    nor re-label an authentic one (serve block j's record for block i,
    or an old digest under a bumped version)."""
    mac = hashlib.blake2b(digest_size=TAG_SIZE, key=key)
    mac.update(f"{namespace}|{int(block)}|{int(version)}|".encode("utf-8"))
    mac.update(digest)
    return mac.digest()


class MetadataQuorum:
    """Count-threshold read/write quorums over the metadata node ids.

    The metadata tier is flat and small, so its quorums are expressed as
    simple counts: a write must reach ``write_need`` of the ``node_ids``,
    a read gathers ``read_need`` replies (any write/read pair then
    intersects, so the max version over a read quorum is the last
    committed one).

    ``f`` is the number of *Byzantine* metadata members tolerated. With
    ``f > 0`` the tier must hold at least 3f+1 nodes and both thresholds
    become 2f+1 — any write/read quorum pair then intersects in f+1
    nodes, of which at most f lie, so the reader always hears at least
    one honest latest record and f+1 matching replies outvote any
    rollback (:meth:`BlockVerifier.resolve` enforces the matching rule).
    Configurations whose quorums cannot intersect are rejected here, not
    discovered as silent staleness mid-run.
    """

    def __init__(
        self, node_ids, write_need: int, read_need: int, f: int = 0
    ) -> None:
        self.node_ids = tuple(int(i) for i in node_ids)
        if not self.node_ids:
            raise ConfigurationError("metadata quorum needs at least one node")
        self.write_need = int(write_need)
        self.read_need = int(read_need)
        self.f = int(f)
        if self.f < 0:
            raise ConfigurationError(f"metadata f must be >= 0, got {self.f}")
        total = len(self.node_ids)
        if self.f > 0 and total < 3 * self.f + 1:
            raise ConfigurationError(
                f"tolerating f = {self.f} Byzantine metadata nodes needs "
                f"at least 3f + 1 = {3 * self.f + 1} nodes, got {total}"
            )
        for label, need in (("write_need", self.write_need), ("read_need", self.read_need)):
            if not 1 <= need <= total:
                raise ConfigurationError(
                    f"{label} must be in [1, {total}], got {need}"
                )
        if self.write_need + self.read_need <= total:
            raise ConfigurationError(
                f"write_need + read_need must exceed the tier size for "
                f"quorums to intersect: {self.write_need} + {self.read_need} "
                f"<= {total}"
            )
        if self.f > 0:
            floor = 2 * self.f + 1
            for label, need in (
                ("write_need", self.write_need),
                ("read_need", self.read_need),
            ):
                if need < floor:
                    raise ConfigurationError(
                        f"{label} must be at least 2f + 1 = {floor} to "
                        f"guarantee an f+1 honest intersection, got {need}"
                    )


class BlockVerifier:
    """Digest/version authority for one engine's blocks.

    Owns the metadata key namespace, the ``metadata`` rounds, and the
    detection counters. One verifier per stripe (per shard, in sharded
    systems), shared by the stripe's engine and its repair service, so
    its counters see every metadata read the stripe makes.
    """

    def __init__(
        self,
        cluster,
        quorum: MetadataQuorum,
        namespace: str = "stripe-0",
        signed: bool = False,
    ) -> None:
        self.cluster = cluster
        self.quorum = quorum
        self.namespace = str(namespace)
        #: self-verifying records: digest + writer-keyed tag per record
        self.signed = bool(signed)
        self._key = writer_key(self.namespace) if self.signed else None
        #: payload replies whose content hash contradicted the metadata
        #: record (definite corruption — the version claim matched)
        self.digest_mismatches = 0
        #: payload replies whose version claim contradicted the metadata
        #: record (stale or lying node; indistinguishable, both rejected)
        self.version_mismatches = 0
        #: metadata rounds that failed to assemble their quorum (or, with
        #: f > 0, to find f+1 matching records)
        self.metadata_failures = 0
        #: metadata records rejected for a bad or missing writer tag
        self.tag_rejections = 0
        #: equal-version records with differing digests seen in resolve —
        #: surfaced even in fail-stop mode, where the max-version fold
        #: would otherwise keep the first-seen digest silently
        self.record_conflicts = 0
        #: per block: its metadata read round, built on first use
        self._read_rounds: dict[int, Round] = {}

    # ------------------------------------------------------------------ #
    # record layout
    # ------------------------------------------------------------------ #

    def meta_key(self, block: int):
        return ("meta", self.namespace, int(block))

    def _record(self, block: int, version: int, digest: bytes) -> np.ndarray:
        raw = digest
        if self.signed:
            raw += record_tag(self._key, self.namespace, block, version, digest)
        return np.frombuffer(raw, dtype=np.uint8)

    def _parse(self, block: int, payload, version: int) -> bytes | None:
        """The digest of one metadata reply, or None when unauthentic.

        Unsigned verifiers accept the raw bytes as-is (the original
        trusted-tier layout); signed verifiers require the exact
        digest+tag width and a tag that verifies for the *claimed*
        coordinates — so both forged records and authentic records
        re-labelled with a shifted version fail here.
        """
        raw = bytes(np.asarray(payload).tobytes())
        if not self.signed:
            return raw
        if len(raw) != DIGEST_SIZE + TAG_SIZE:
            return None
        digest, tag = raw[:DIGEST_SIZE], raw[DIGEST_SIZE:]
        expected = record_tag(
            self._key, self.namespace, int(block), int(version), digest
        )
        if not hmac.compare_digest(tag, expected):
            return None
        return digest

    def record_accept(self, block: int):
        """Accept predicate of signed metadata reads: valid-tag records.

        A bad-tag record is rejected (counted in ``tag_rejections``) and
        therefore does not count toward ``read_need`` — the round widens
        to substitute metadata replies, so up to f forging liars in a
        3f+1 tier cost latency, never correctness, and f+1 of them
        exhaust the quorum into a clean failure.
        """

        def accept(response: Response) -> bool:
            if not response.ok:
                return False
            payload, version = response.value
            if self._parse(block, payload, version) is None:
                self.tag_rejections += 1
                return False
            return True

        return accept

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #

    def bootstrap(self, block: int, payload: np.ndarray) -> None:
        """Write the version-0 record during volume load (instant path)."""
        record = self._record(block, 0, block_digest(payload))
        for node_id in self.quorum.node_ids:
            self.cluster.rpc(node_id, "put_data", self.meta_key(block), record, 0)

    def write_round(self, block: int, version: int, digest: bytes) -> Round:
        """The commit round: store (version, digest) on a write quorum."""
        record = self._record(block, int(version), digest)
        requests = [
            Request(
                node_id,
                "write_data",
                (self.meta_key(block), record, int(version)),
                catches=(NodeUnavailableError, StaleNodeError),
            )
            for node_id in self.quorum.node_ids
        ]
        return Round(
            requests,
            need=self.quorum.write_need,
            send_all=True,
            kind=METADATA_ROUND,
        )

    def read_round(self, block: int) -> Round:
        """Fetch (version, digest) records from a read quorum.

        Signed verifiers attach :meth:`record_accept`, so only
        authenticated records count toward ``read_need``; unsigned
        rounds keep the original accept-everything shape bit for bit.
        Built once per block and shared by every read of it: a
        :class:`Round` is read-only, and the accept closure only counts
        into ``tag_rejections``.
        """
        round_ = self._read_rounds.get(block)
        if round_ is None:
            requests = [
                Request(
                    node_id,
                    "read_data",
                    (self.meta_key(block),),
                    catches=(NodeUnavailableError, KeyError),
                )
                for node_id in self.quorum.node_ids
            ]
            accept = self.record_accept(block) if self.signed else None
            round_ = self._read_rounds[block] = Round(
                requests, need=self.quorum.read_need, accept=accept,
                kind=METADATA_ROUND,
            )
        return round_

    def resolve(self, outcome: RoundOutcome) -> tuple[int, bytes] | None:
        """The authoritative (version, digest) over a metadata read outcome.

        Fail-stop mode (``f = 0``) trusts the newest record; Byzantine
        mode requires **f+1 matching** ``(version, digest)`` records —
        up to f liars cannot assemble a matching group, so an authentic-
        but-old record replayed by the liars is outvoted by the honest
        intersection — and additionally refuses whenever an
        authenticated record is newer than the best certifiable group
        (f+1 colluding replays never beat a lone honest latest reply).
        Returns None when the quorum was not assembled, no group
        qualifies, or freshness cannot be certified (the caller fails
        the operation cleanly) — also counted in ``metadata_failures``.
        """
        if not outcome.satisfied or not outcome.accepted:
            self.metadata_failures += 1
            return None
        # A signed round accepts only records whose tag verifies
        # (record_accept): the digest is a record's first DIGEST_SIZE bytes.
        width = DIGEST_SIZE if self.signed else None
        records = [
            (int(response.value[1]), response.value[0].tobytes()[:width])
            for response in outcome.accepted
        ]
        best_version = -1
        best_digest = b""
        for version, digest in records:
            if version > best_version:
                best_version = version
                best_digest = digest
            elif version == best_version and digest != best_digest:
                self.record_conflicts += 1
        if self.quorum.f > 0:
            counts = Counter(records)
            qualifying = [
                record
                for record, count in counts.items()
                if count >= self.quorum.f + 1
            ]
            if not qualifying:
                self.metadata_failures += 1
                return None
            candidate = max(qualifying)
            if best_version > candidate[0]:
                # An authenticated record is *newer* than anything we can
                # certify with f+1 matches — f+1 colluding replays of one
                # old record must not outvote a lone honest latest reply.
                # Refusing beats rolling back: clean failure, never stale.
                self.metadata_failures += 1
                return None
            return candidate
        return best_version, best_digest

    def read_plan(self, block: int):
        """Fetch and resolve block's record: returns ``(record | None,
        messages)``, the record as :meth:`resolve` gives it."""
        outcome = yield self.read_round(block)
        return self.resolve(outcome), outcome.messages

    def commit_plan(self, block: int, version: int, value: np.ndarray):
        """Commit ``(version, digest(value))`` to a metadata write quorum:
        returns ``(satisfied, messages)``; a failed commit is counted in
        ``metadata_failures``."""
        outcome = yield self.write_round(block, version, block_digest(value))
        if not outcome.satisfied:
            self.metadata_failures += 1
        return outcome.satisfied, outcome.messages

    # ------------------------------------------------------------------ #
    # payload verification
    # ------------------------------------------------------------------ #

    def check(self, payload: np.ndarray, version: int, target: int, digest: bytes) -> bool:
        """Verify one payload reply against the metadata record."""
        if int(version) != int(target):
            self.version_mismatches += 1
            return False
        if block_digest(payload) != digest:
            self.digest_mismatches += 1
            return False
        return True

    def check_digest(self, payload: np.ndarray, digest: bytes) -> bool:
        """Verify a block whose version is already known to match: a
        Case-1 reply at the target version or a decoded candidate."""
        if block_digest(payload) != digest:
            self.digest_mismatches += 1
            return False
        return True

    def payload_accept(self, target: int, digest: bytes):
        """Accept predicate for ``read_data``-shaped replies.

        A rejected-but-resolved response does not count toward ``need``,
        which is exactly the graceful-degradation mechanism: both
        coordinators widen the round to substitute replies and only fail
        once the fan-out is exhausted.
        """

        def accept(response: Response) -> bool:
            if not response.ok:
                return False
            payload, version = response.value
            return self.check(payload, version, target, digest)

        return accept

    def counters(self) -> dict[str, int]:
        return {
            "digest_mismatches": self.digest_mismatches,
            "version_mismatches": self.version_mismatches,
            "metadata_failures": self.metadata_failures,
            "tag_rejections": self.tag_rejections,
            "record_conflicts": self.record_conflicts,
        }
