"""Protocol-level Monte Carlo: run the *real* Algorithms 1-2 per trial.

Where :mod:`repro.sim.montecarlo` samples the availability *predicates*,
this module executes the actual protocol engines against the simulated
cluster for every trial — RPCs, version matrices, decode paths and all —
and measures the empirical success rate. Under the snapshot model (state
fully synced before each trial) the two must agree, which is the
strongest internal-consistency check the reproduction has: formula,
predicate sampler and executable protocol all describing the same system.

The harness is a :class:`~repro.api.spec.SystemSpec`: its stripes are
built by the stripe constructor of :mod:`repro.api.build`, the one every
built system uses, so a trial runs any registered protocol exactly as
the product builds it — the spec's code, quorum, cluster width,
placement kind and stripe count, and metadata tier when it has one. A
harness runs the one protocol its spec names; to compare two, build two
(``ProtocolMonteCarlo.from_spec(spec.replace(protocol=...))``).

Hot-path engineering (the per-trial protocol work is irreducible, but the
harness around it is not):

* the (trials, data nodes) alive matrix is sampled in one vectorized
  draw instead of one RNG dispatch per trial; failures cover the data
  nodes only, so a metadata tier stays up and a spec with one samples
  the same data-node outcomes as the spec without it;
* the engines are built and loaded on first use, and the loaded store
  is snapshotted (:meth:`Cluster.snapshot`);
* a write trial is undone by :meth:`Cluster.restore` of that snapshot:
  every node's record stores refilled in place with the version-0
  records, no RPC and no engine hook. A shallow copy is exact because
  stored records are never modified, and the reset covers the whole
  store (a metadata tier, any block) whatever the protocol;
* a write trial draws its (stripes, L) payloads in one call;
* with ``stripes > 1`` one failure draw exercises every stripe's layout
  (under rotated placement, many survivor sets and the decode-plan
  cache), the way a volume-level sweep does.

A harness can be kept and called repeatedly: every call leaves all nodes
up and every loaded stripe at version 0, also when a trial raises.
"""

from __future__ import annotations

import numpy as np

from repro.api.build import _resolve, _stripe
from repro.api.registry import protocol_entry
from repro.api.spec import PlacementSpec, SystemSpec, WorkloadSpec
from repro.cluster.rng import make_rng
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.sim.metrics import MCEstimate

__all__ = ["ProtocolMonteCarlo"]


class ProtocolMonteCarlo:
    """Empirical availability of the executable protocols.

    Parameters
    ----------
    n, k:
        Code parameters.
    quorum:
        Trapezoid specification (n - k + 1 positions).
    block_length:
        Payload length in symbols (small by default: availability does not
        depend on it).
    stripes:
        Number of independent stripes driven per trial (default 1, the
        paper's single-stripe setting). Stripe s uses the rotated
        placement ``node_ids = (s, s+1, ..) mod n``, so different stripes
        decode through different survivor sets of the same alive vector.

    These state the TRAP-ERC spec ``SystemSpec.trapezoid(n, k, a, b, h,
    w)`` with ``rotating`` placement over n nodes; :meth:`from_spec`
    takes any spec.
    """

    def __init__(
        self,
        n: int,
        k: int,
        quorum: TrapezoidQuorum,
        block_length: int = 8,
        rng=None,
        stripes: int = 1,
    ) -> None:
        shape = quorum.shape
        spec = SystemSpec.trapezoid(
            n, k, shape.a, shape.b, shape.h, quorum.w,
            placement=PlacementSpec(kind="rotating", stripes=stripes),
            workload=WorkloadSpec(block_length=block_length),
        )
        self._setup(spec, rng)

    @classmethod
    def from_spec(cls, spec: SystemSpec, rng=None) -> "ProtocolMonteCarlo":
        """The harness of ``spec``; ``rng`` draws the stripes' payloads."""
        harness = cls.__new__(cls)
        harness._setup(spec, rng)
        return harness

    def _setup(self, spec: SystemSpec, rng) -> None:
        self.spec = spec
        self.rng = make_rng(rng)
        _, _, self.cluster, self.code = _resolve(spec)
        shape = (spec.placement.stripes, spec.code.k, spec.workload.block_length)
        self.data = self.rng.integers(0, 256, size=shape, dtype=np.int64).astype(
            np.uint8
        )
        self._engines: list | None = None
        #: every node's records at version 0, taken by :meth:`_load`
        self._loaded: list | None = None

    def engines(self) -> list:
        """The spec protocol's per-stripe engines.

        Built through the stripe constructor and loaded on first use.
        First use may come after the caller failed or partitioned some
        nodes (``mc.cluster.fail(0); mc.engines()[0].read_block(0)``):
        loading needs every node reachable but leaves that pattern as it
        found it.
        """
        if self._engines is None:
            entry = protocol_entry(self.spec.protocol)
            self._engines = [
                _stripe(self.spec, entry, self.cluster, self.code, s)[1]
                for s in range(self.spec.placement.stripes)
            ]
            network = self.cluster.network
            down = self.cluster.failed_ids
            cut = [i for i in range(len(self.cluster)) if network.is_partitioned(i)]
            self._load()
            self.cluster.fail_many(down)
            network.partition(cut)
        return self._engines

    def _load(self) -> None:
        """All nodes up, every stripe at version 0, and that store
        snapshotted for the write-trial reset."""
        self.cluster.recover_all()
        for engine, data in zip(self._engines, self.data):
            engine.initialize(data)
        self._loaded = self.cluster.snapshot()

    def _alive_matrix(self, p: float, trials: int, rng) -> np.ndarray:
        """(trials, nodes) alive patterns: data nodes Bernoulli(p), the
        metadata tier (if any) up."""
        alive = np.ones((trials, len(self.cluster)), dtype=bool)
        alive[:, : self.cluster.num_data_nodes] = (
            rng.random((trials, self.cluster.num_data_nodes)) < p
        )
        return alive

    def _check_call(self, p: float, trials: int, block: int) -> None:
        """Reject a bad call before it touches the cluster."""
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        k = self.spec.code.k
        if not 0 <= block < k:
            raise ConfigurationError(
                f"data block index must be in [0, {k}), got {block}"
            )

    # ------------------------------------------------------------------ #

    def read_availability(
        self,
        p: float,
        trials: int = 400,
        block: int = 0,
        rng=None,
    ) -> MCEstimate:
        """Fraction of (trial, stripe) reads of ``block`` that succeed.

        Reads do not mutate state, so the stripes stay synced across
        trials (pure snapshot model). ``rng`` overrides the instance stream for
        this call — how the runner hands a trial chunk its own
        pre-spawned child stream (default: the instance stream).
        """
        self._check_call(p, trials, block)
        engines = self.engines()
        rng = self.rng if rng is None else make_rng(rng)
        alive = self._alive_matrix(p, trials, rng)
        successes = 0
        try:
            for t in range(trials):
                self.cluster.apply_alive_vector(alive[t])
                for engine in engines:
                    if engine.read_block(block).success:
                        successes += 1
        finally:
            self.cluster.recover_all()
        return MCEstimate(successes, trials * len(engines))

    def write_availability(
        self,
        p: float,
        trials: int = 200,
        block: int = 0,
        rng=None,
    ) -> MCEstimate:
        """Fraction of (trial, stripe) writes of ``block`` that succeed.

        Writes mutate state (including partially-failed ones), so after
        every trial the cluster is restored to the version-0 store taken
        at load, which keeps trials i.i.d. under the snapshot model.
        ``rng`` is as in :meth:`read_availability`; it drives both the
        alive draw and the per-trial payloads.
        """
        self._check_call(p, trials, block)
        engines = self.engines()
        rng = self.rng if rng is None else make_rng(rng)
        payloads = (len(engines), self.data.shape[2])
        alive = self._alive_matrix(p, trials, rng)
        successes = 0
        for t in range(trials):
            self.cluster.apply_alive_vector(alive[t])
            try:
                # one draw for every stripe: the same int64 stream as one
                # draw per stripe
                values = rng.integers(0, 256, payloads, dtype=np.int64).astype(np.uint8)
                for engine, value in zip(engines, values):
                    if engine.write_block(block, value).success:
                        successes += 1
            finally:
                self.cluster.restore(self._loaded)
        return MCEstimate(successes, trials * len(engines))
