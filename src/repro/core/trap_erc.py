"""TRAP-ERC: the paper's trapezoid quorum protocol over an (n, k) MDS code.

Faithful executable implementation of Algorithms 1 (write) and 2 (read):

* data block b_i lives on node N_i with a scalar version;
* every parity node N_j holds one parity record per stripe: the payload
  b_j = sum_i alpha_ji b_i and the contribution-version column V[:, j-k];
* a write of block i reads the old value (Alg. 1 line 15), then walks the
  trapezoid levels 0..h writing x to N_i and shipping
  ``alpha_ji * (x - chunk)`` deltas to the parity nodes, each guarded by
  the V version check (line 26); the write fails as soon as a level
  acknowledges fewer than w_l nodes (lines 35-37);
* a read of block i walks the levels polling versions until some level
  yields r_l = s_l - w_l + 1 valid answers (lines 11-30); the largest
  version seen among them is the latest; then Case 1 reads N_i directly
  or Case 2 decodes from k version-consistent fragments (lines 30-36).
  Case 1 rides the level-0 poll: N_i sits at level 0, and its poll is a
  ``read_data``, whose reply carries N_i's version beside its bytes. So
  a healthy read is one round trip, the read is direct iff that reply is
  at the latest version, and the bytes a read returns are always those
  of the version it reports. Only when the poll completes before N_i
  answers (event and async paths) does Case 1 ask N_i again.

The engine expresses each operation as explicit fan-out rounds
(version-query round, payload round, write round) via
the :mod:`repro.runtime` coordinator abstraction: plans run unmodified on
the legacy instant path (bit-identical results and message counts) or on
the event-driven path where each round is a real message fan-out that
completes with the q-th fastest healthy response (see docs/RUNTIME.md).

Beyond the paper, decode handles *per-contribution* staleness correctly:
a parity that missed an update to block m but not to block i is usable
for block i only together with rows agreeing on m's version, so fragments
are grouped by their full version vectors before solving.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.placement import TrapezoidPlacement
from repro.core.results import ReadCase, ReadResult, WriteResult
from repro.erasure.code import MDSCode
from repro.erasure.stripe import StripeLayout
from repro.erasure.update import plan_update
from repro.errors import (
    ConfigurationError,
    NodeUnavailableError,
    StaleNodeError,
)
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.runtime.coordinator import Coordinator, InstantCoordinator
from repro.runtime.rounds import (
    PAYLOAD_ROUND,
    VERSION_ROUND,
    WRITE_ROUND,
    Request,
    Response,
    Round,
)

__all__ = ["TrapErcProtocol"]

_WRITE_CATCHES = (NodeUnavailableError, StaleNodeError)
_READ_CATCHES = (NodeUnavailableError, KeyError)


class TrapErcProtocol:
    """Coordinator-side engine of the TRAP-ERC protocol for one stripe.

    Parameters
    ----------
    cluster:
        The storage cluster; must contain every node of ``layout``.
    code:
        The (n, k) MDS code.
    quorum:
        Trapezoid quorum specification with n - k + 1 positions.
    layout:
        Block -> node placement; defaults to nodes 0..n-1 in order.
    stripe_id:
        Identifier namespacing this stripe's records on the nodes.
    coordinator:
        Execution path for the operation plans. Defaults to the instant
        path (:class:`~repro.runtime.coordinator.InstantCoordinator` on
        ``cluster``); inject an
        :class:`~repro.runtime.event.EventCoordinator` to run the same
        plans event-driven.
    verifier:
        Optional :class:`~repro.runtime.verify.BlockVerifier` enabling
        the Byzantine-tolerant verified path: writes commit a
        (version, digest) record to the separate metadata quorum, reads
        take the version authority from that record and cross-checksum
        every payload reply against it (payload nodes need not be
        trusted). ``None`` (the default) keeps the paper's fail-stop
        protocol byte for byte.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster import Cluster
    >>> from repro.erasure import MDSCode
    >>> from repro.quorum import TrapezoidQuorum, default_shape_for_nbnode
    >>> code = MDSCode(6, 4)
    >>> quorum = TrapezoidQuorum.uniform(default_shape_for_nbnode(3))
    >>> proto = TrapErcProtocol(Cluster(6), code, quorum)
    >>> proto.initialize(np.zeros((4, 8), dtype=np.uint8))
    >>> bool(proto.write_block(1, np.ones(8, dtype=np.uint8)))
    True
    >>> r = proto.read_block(1)
    >>> bool(r.success), int(r.version)
    (True, 1)
    """

    def __init__(
        self,
        cluster: Cluster,
        code: MDSCode,
        quorum: TrapezoidQuorum,
        layout: StripeLayout | None = None,
        stripe_id: str = "stripe-0",
        coordinator: Coordinator | None = None,
        verifier=None,
    ) -> None:
        self.cluster = cluster
        self.code = code
        self.layout = layout if layout is not None else StripeLayout(code.n, code.k)
        if (self.layout.n, self.layout.k) != (code.n, code.k):
            raise ConfigurationError(
                f"layout is ({self.layout.n}, {self.layout.k}) but code is "
                f"({code.n}, {code.k})"
            )
        for node_id in self.layout.node_ids:
            cluster.node(node_id)  # validates existence
        self.placement = TrapezoidPlacement(self.layout, quorum)
        self.quorum = quorum
        self.stripe_id = stripe_id
        self.coordinator = (
            coordinator if coordinator is not None else InstantCoordinator(cluster)
        )
        self.verifier = verifier
        #: cap on decode-then-verify attempts per read (k-subset search
        #: over candidate rows; 32 covers C(8, 6) = 28, i.e. exhaustive
        #: for the paper's default (9, 6) geometry)
        self.max_decode_attempts = 32
        self._build_rounds()

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    def data_key(self, i: int):
        """Storage key of data block i on node N_i."""
        return ("erc-data", self.stripe_id, i)

    def parity_key(self):
        """Storage key of this stripe's parity record on each parity node."""
        return ("erc-parity", self.stripe_id)

    # ------------------------------------------------------------------ #
    # bootstrap
    # ------------------------------------------------------------------ #

    def initialize(self, data: np.ndarray) -> None:
        """Load the initial stripe at version 0 on every node.

        Bootstrap path (not a quorum write): requires all n nodes up, like
        a volume-creation step in a real deployment.
        """
        self._load_records(self.code.encode(data), range(self.code.k))

    def reload_block(self, i: int, stripe: np.ndarray) -> None:
        """Undo whatever writes of block i did to the loaded (n, L) codeword.

        Algorithm 1 touches N_i and the parity nodes and nothing else, so
        re-putting those n - k + 1 records (all of them must be up)
        leaves the nodes exactly as :meth:`initialize` would, provided
        no other block was written since the load. Taking the codeword
        lets a Monte-Carlo trial reset skip the encode.
        """
        self._check_block(i)
        self._load_records(stripe, (i,))

    def _load_records(self, stripe: np.ndarray, blocks) -> None:
        """Put the data records of ``blocks`` and every parity record."""
        stripe = np.asarray(stripe, dtype=self.code.field.dtype)
        if stripe.ndim != 2 or stripe.shape[0] != self.code.n:
            raise ConfigurationError(
                f"stripe must have shape (n={self.code.n}, L), got {stripe.shape}"
            )
        zero_versions = np.zeros(self.code.k, dtype=np.int64)
        for i in blocks:
            node_id = self.layout.node_of_block(i)
            self.cluster.rpc(node_id, "put_data", self.data_key(i), stripe[i], 0)
        for j in range(self.code.k, self.code.n):
            node_id = self.layout.node_of_block(j)
            self.cluster.rpc(
                node_id, "put_parity", self.parity_key(), stripe[j], zero_versions
            )
        if self.verifier is not None:
            for i in blocks:
                self.verifier.bootstrap(i, stripe[i])

    # ------------------------------------------------------------------ #
    # shared round builders
    # ------------------------------------------------------------------ #

    def _check_block(self, i: int) -> None:
        if not 0 <= i < self.code.k:
            raise ConfigurationError(
                f"data block index must be in [0, {self.code.k}), got {i}"
            )

    def _build_rounds(self) -> None:
        """Build every block's fixed rounds once, indexed by block then level."""
        layout, k, pkey = self.layout, self.code.k, self.parity_key()
        parity_gather = Round(
            [
                Request(node_id, "read_parity", (pkey,), tag=j, catches=_READ_CATCHES)
                for j, node_id in enumerate(layout.parity_nodes, start=k)
            ],
            kind=PAYLOAD_ROUND,
        )
        #: per block, per level: ((node_id, parity index j | None), ...)
        self._members = []
        #: per block: the h + 1 ``u.version(id)`` polls of Algorithm 2;
        #: N_i's (at level 0) is a ``read_data``, so it doubles as Case 1
        self._polls = []
        #: per block: Case 1's ``read_data`` round on N_i, for a read whose
        #: level-0 poll completed before N_i answered
        self._direct = []
        #: per block: Case 2's gathers (parity round, other-data round)
        self._gathers = []
        for i, levels in enumerate(self.placement.levels):
            key, ni = self.data_key(i), layout.node_of_block(i)
            members = tuple(
                tuple(
                    (node_id, None if node_id == ni else layout.block_of_node(node_id))
                    for node_id in nodes
                )
                for nodes in levels
            )
            self._members.append(members)
            self._polls.append(tuple(
                Round(
                    [
                        Request(
                            node_id, "read_data", (key,), tag="data",
                            catches=_READ_CATCHES,
                        )
                        if j is None
                        else Request(node_id, "parity_versions", (pkey,), tag="parity")
                        for node_id, j in level_members
                    ],
                    need=self.quorum.r(level),
                    accept=self._version_valid,
                    kind=VERSION_ROUND,
                )
                for level, level_members in enumerate(members)
            ))
            self._direct.append(Round(
                [Request(ni, "read_data", (key,), catches=_READ_CATCHES)],
                kind=PAYLOAD_ROUND,
            ))
            self._gathers.append((
                parity_gather,
                Round(
                    [
                        Request(
                            layout.node_of_block(m), "read_data", (self.data_key(m),),
                            tag=m, catches=_READ_CATCHES,
                        )
                        for m in range(k)
                        if m != i  # N_i is stale or down here (Case 2)
                    ],
                    kind=PAYLOAD_ROUND,
                ),
            ))

    @staticmethod
    def _version_valid(response: Response) -> bool:
        """INVALID records (wiped disks) answer but don't count (Alg. 2)."""
        if not response.ok:
            return False
        if response.request.tag == "data":
            return response.value[1] >= 0
        return response.value is not None

    def _best_version(self, i: int, accepted: list[Response]) -> int:
        best = -1
        for response in accepted:
            if response.request.tag == "data":
                best = max(best, int(response.value[1]))
            else:
                best = max(best, int(response.value[i]))
        return best

    # ------------------------------------------------------------------ #
    # Algorithm 1: write
    # ------------------------------------------------------------------ #

    def write_block(self, i: int, value: np.ndarray) -> WriteResult:
        """Write ``value`` into data block i (Algorithm 1)."""
        return self.coordinator.execute(self.write_plan(i, value))

    def write_plan(self, i: int, value: np.ndarray):
        """Algorithm 1 as a round plan (see module docstring)."""
        self._check_block(i)
        value = np.asarray(value, dtype=self.code.field.dtype)

        # Line 15: [chunk, version] <- ReadBlock(i).
        pre = yield from self.read_plan(i)
        if not pre.success:
            return WriteResult(
                success=False,
                messages=pre.messages,
                reason=f"read-before-write failed: {pre.reason}",
            )
        chunk, version = pre.value, pre.version
        if value.shape != chunk.shape:
            raise ConfigurationError(
                f"value shape {value.shape} != block shape {chunk.shape}"
            )
        # Lines 25-31 need alpha_ji * (x - chunk) for every parity node of
        # the trapezoid: all n - k buffers come from one pass over the delta.
        parity_deltas = plan_update(self.code, i, chunk, value).parity_deltas
        new_version = version + 1
        messages = pre.messages
        # Line 20 writes x in node N_i; lines 25-31 ship each parity node
        # its delta under the version guard.
        data_args = (self.data_key(i), value, new_version)
        pkey = self.parity_key()
        guard = {"expected_version": version, "new_version": new_version}

        acks: list[int] = []
        for level, members in enumerate(self._members[i]):
            outcome = yield Round(
                [
                    Request(node_id, "write_data", data_args, catches=_WRITE_CATCHES)
                    if j is None
                    else Request(
                        node_id, "apply_delta", (pkey, i, parity_deltas[j]), guard,
                        catches=_WRITE_CATCHES,
                    )
                    for node_id, j in members
                ],
                need=self.quorum.w[level],
                send_all=True,
                kind=WRITE_ROUND,
            )
            messages += outcome.messages
            counter = len(outcome.accepted)
            acks.append(counter)
            if counter < self.quorum.w[level]:
                # Lines 35-37: quorum missed at this level -> FAIL.
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=acks,
                    failed_level=level,
                    messages=messages,
                    reason=(
                        f"level {level} acknowledged {counter} < w_l = "
                        f"{self.quorum.w[level]}"
                    ),
                )
        if self.verifier is not None:
            # Commit point of the verified path: the write is visible to
            # verified readers only once (version, digest) reaches the
            # metadata quorum.
            committed, meta_messages = yield from self.verifier.commit_plan(
                i, new_version, value
            )
            messages += meta_messages
            if not committed:
                return WriteResult(
                    success=False,
                    version=new_version,
                    acks_per_level=acks,
                    messages=messages,
                    reason="metadata quorum write failed",
                )
        return WriteResult(
            success=True,
            version=new_version,
            acks_per_level=acks,
            messages=messages,
        )

    # ------------------------------------------------------------------ #
    # Algorithm 2: read
    # ------------------------------------------------------------------ #

    def read_block(self, i: int) -> ReadResult:
        """Read data block i (Algorithm 2)."""
        return self.coordinator.execute(self.read_plan(i))

    def read_plan(self, i: int):
        """Algorithm 2 as a round plan.

        With a verifier, the metadata quorum is consulted first and
        becomes the *version authority*: the level polls still locate a
        responsive check quorum (and keep the fail-stop round structure,
        so a rate-0 Byzantine config adds only the metadata round), but
        the retrieved version/digest pair comes from the trusted tier —
        a payload node understating or overstating its version cannot
        redirect the read.
        """
        self._check_block(i)
        meta, messages = None, 0
        if self.verifier is not None:
            meta, messages = yield from self.verifier.read_plan(i)
            if meta is None:
                return ReadResult(
                    success=False,
                    messages=messages,
                    reason="metadata quorum unreachable",
                )
        result = yield from self.level_walk_plan(i, meta)
        result.messages += messages
        return result

    def level_walk_plan(self, i: int, meta: tuple[int, bytes] | None = None):
        """Algorithm 2 after the metadata prelude: the level walk, then
        Cases 1-2. Without ``meta`` it is the paper's fail-stop read (and
        repair's view of storage); a ``(version, digest)`` record
        overrules the check quorum's untrusted version claims.

        Case 1 takes N_i's ``read_data`` reply: its answer to the level-0
        poll, or — when that poll completed before N_i answered (event
        and async paths) — one more ``read_data`` round. The reply
        carries the record's version beside its bytes, so the read is
        direct iff N_i answered at the target version, and the bytes
        returned are the bytes stored at the version reported. Any other
        answer (down, stale, ahead) falls to Case 2. With a digest, only
        a reply at the target is checksummed: a corrupted one is counted
        on the verifier and the read widens into Case 2, the
        substitute-fragment path, while an honestly stale N_i goes there
        uncounted.
        """
        messages = 0
        home = None  # N_i's reply to the level-0 poll, if it came in time
        for level, poll in enumerate(self._polls[i]):
            outcome = yield poll
            messages += outcome.messages
            if level == 0:
                home = next(
                    (r for r in outcome.responses if r.request.tag == "data"), None
                )
            if outcome.satisfied:
                break  # check complete (else: the Alg. 2 outer loop goes on)
        else:
            return ReadResult(
                success=False,
                messages=messages,
                reason="no level reached its version-check quorum",
            )
        # The max accepted version is the latest — unless the metadata
        # record overrules the untrusted claims.
        if meta is not None:
            target, digest = meta
        else:
            target, digest = self._best_version(i, outcome.accepted), None

        # Case 1: N_i holds the latest version -> direct read.
        if home is None:
            outcome = yield self._direct[i]
            messages += outcome.messages
            home = outcome.accepted[0] if outcome.accepted else None
        if home is not None and home.ok:
            payload, version = home.value
            if version == target and (
                digest is None or self.verifier.check_digest(payload, digest)
            ):
                return ReadResult(
                    success=True,
                    value=payload,
                    version=target,
                    case=ReadCase.DIRECT,
                    check_level=level,
                    messages=messages,
                )
        # Case 2: decode from k version-consistent fragments.
        payload, decode_messages = yield from self._decode_plan(i, target, digest)
        messages += decode_messages
        if payload is None:
            return ReadResult(
                success=False,
                version=target,
                check_level=level,
                messages=messages,
                reason="decode failed: fewer than k version-consistent fragments",
            )
        # One contract on both cases: the direct read hands out a node's
        # read-only record, so the decoded block is sealed as well.
        payload.setflags(write=False)
        return ReadResult(
            success=True,
            value=payload,
            version=target,
            case=ReadCase.DECODE,
            check_level=level,
            messages=messages,
        )

    def _decode_plan(self, i: int, target: int, digest: bytes | None = None):
        """Reconstruct b_i at version ``target`` from k consistent rows.

        Fragments are usable only under a consistent snapshot: parity rows
        must share the *same* full version vector vv with vv[i] == target,
        and a data row m is compatible with that vector iff its version
        equals vv[m]. Any k such rows are solvable (MDS property).
        Returns ``(payload | None, messages)``.

        With a ``digest`` this becomes decode-then-verify: fragment
        content cannot be checked individually (only the data block has
        a metadata record), so candidate k-subsets are decoded in
        deterministic order and the result's cross-checksum is compared
        against the metadata record; garbage fragments surface as digest
        mismatches and the search moves to the next subset, up to
        ``max_decode_attempts`` decodes.
        """
        parity_gather, data_gather = self._gathers[i]
        # Gather parity fragments fresh for block i, grouped by full vector.
        outcome = yield parity_gather
        messages = outcome.messages
        groups: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        for response in outcome.accepted:
            payload, vv = response.value
            if int(vv[i]) != target:
                continue
            groups.setdefault(tuple(int(x) for x in vv), []).append(
                (response.request.tag, payload)
            )
        if not groups:
            return None, messages
        # Gather data fragments (other blocks) once.
        data_outcome = yield data_gather
        messages += data_outcome.messages
        data_rows: dict[int, tuple[np.ndarray, int]] = {
            response.request.tag: (response.value[0], response.value[1])
            for response in data_outcome.accepted
        }
        # Try snapshot groups, largest first.
        attempts = 0
        for vv, parity_rows in sorted(groups.items(), key=lambda kv: -len(kv[1])):
            rows = list(parity_rows)
            for m, (payload, v) in data_rows.items():
                if v == vv[m]:
                    rows.append((m, payload))
            if len(rows) < self.code.k:
                continue
            if digest is None:
                # reconstruct_block rides the decode-plan cache: trials and
                # stripes that see the same survivor set skip Gauss-Jordan.
                indices = [idx for idx, _ in rows[: self.code.k]]
                frags = [buf for _, buf in rows[: self.code.k]]
                return self.code.reconstruct_block(i, indices, frags), messages
            # Decode-then-verify: search k-subsets for one whose decode
            # matches the trusted cross-checksum. The first combination
            # is rows[:k], so a clean snapshot costs exactly one decode —
            # identical work to the fail-stop path.
            for combo in itertools.combinations(range(len(rows)), self.code.k):
                attempts += 1
                if attempts > self.max_decode_attempts:
                    return None, messages
                indices = [rows[c][0] for c in combo]
                frags = [rows[c][1] for c in combo]
                decoded = self.code.reconstruct_block(i, indices, frags)
                if self.verifier.check_digest(decoded, digest):
                    return decoded, messages
        return None, messages

    # ------------------------------------------------------------------ #
    # introspection helpers used by repair and experiments
    # ------------------------------------------------------------------ #

    def latest_version(self, i: int) -> int | None:
        """Run only the version check of Algorithm 2; None if no quorum."""
        return self.coordinator.execute(self.latest_version_plan(i))

    def latest_version_plan(self, i: int):
        for poll in self._polls[i]:
            outcome = yield poll
            if outcome.satisfied:
                return self._best_version(i, outcome.accepted)
        return None
