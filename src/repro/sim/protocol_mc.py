"""Protocol-level Monte Carlo: run the *real* Algorithms 1-2 per trial.

Where :mod:`repro.sim.montecarlo` samples the availability *predicates*,
this module executes the actual protocol engines against the simulated
cluster for every trial — RPCs, version matrices, decode paths and all —
and measures the empirical success rate. Under the snapshot model (state
fully synced before each trial) the two must agree, which is the
strongest internal-consistency check the reproduction has: formula,
predicate sampler and executable protocol all describing the same system.

Hot-path engineering (the per-trial protocol work is irreducible, but the
harness around it is not):

* the (trials, n) alive matrix is sampled in one vectorized draw instead
  of one RNG dispatch per trial;
* only the protocol a call asks for is built and loaded (first use), so
  an ERC study never pays for the replication twin's records;
* the version-0 stripes are encoded once (``MDSCode.encode_batch``) and a
  write trial is undone by re-putting only the records a write of that
  block can reach (``reload_block``: N_i and the parity nodes for ERC,
  the replica group for FR) — the seed re-encoded, and later versions
  re-loaded, every stripe of both protocols after every write trial;
* with ``stripes > 1`` the harness drives several stripes under
  RAID-style rotated placements in the same trial, so one failure draw
  exercises many survivor sets and the decode-plan cache, the way a
  volume-level sweep does.

A harness can be kept and called repeatedly: every call leaves all nodes
up and every loaded stripe at version 0, also when a trial raises.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.rng import make_rng
from repro.core.trap_erc import TrapErcProtocol
from repro.core.trap_fr import TrapFrProtocol
from repro.erasure.code import MDSCode
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum
from repro.sim.metrics import MCEstimate
from repro.storage.placement import RotatingPlacement

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
        if stripes < 1:
            raise ConfigurationError(f"stripes must be >= 1, got {stripes}")
        self.rng = make_rng(rng)
        self.n = n
        self.k = k
        self.quorum = quorum
        self.stripes = stripes
        self.cluster = Cluster(n)
        self.code = MDSCode(n, k)
        self.data = (
            self.rng.integers(0, 256, size=(stripes, k, block_length), dtype=np.int64)
            .astype(np.uint8)
        )
        # Version-0 codewords, encoded once for every trial reset.
        self._stripe_cache = self.code.encode_batch(self.data)
        #: protocol name -> its per-stripe engines, built and loaded on
        #: first use
        self._built: dict[str, list] = {}

    # Engine handles; each builds and loads its protocol on first use.

    @property
    def ercs(self) -> list[TrapErcProtocol]:
        return self._engines("erc")

    @property
    def frs(self) -> list[TrapFrProtocol]:
        return self._engines("fr")

    @property
    def erc(self) -> TrapErcProtocol:
        return self.ercs[0]

    @property
    def fr(self) -> TrapFrProtocol:
        return self.frs[0]

    def _engines(self, protocol: str) -> list:
        if protocol not in self._built:
            self._check_protocol(protocol)
            self._built[protocol] = [
                self._build_engine(protocol, s) for s in range(self.stripes)
            ]
            # First use may come after the caller failed or partitioned
            # some nodes (``mc.cluster.fail(0); mc.erc.read_block(0)``):
            # loading needs every node reachable but leaves that pattern
            # as it found it.
            network = self.cluster.network
            down = self.cluster.failed_ids
            cut = [i for i in range(self.n) if network.is_partitioned(i)]
            self._load(protocol)
            self.cluster.fail_many(down)
            network.partition(cut)
        return self._built[protocol]

    def _build_engine(self, protocol: str, s: int):
        layout = RotatingPlacement(self.n, self.k, self.n).layout_for(s)
        if protocol == "erc":
            return TrapErcProtocol(
                self.cluster, self.code, self.quorum,
                layout=layout, stripe_id=f"mc-erc-{s}",
            )
        return TrapFrProtocol(
            self.cluster, self.n, self.k, self.quorum,
            layout=layout, stripe_id=f"mc-fr-{s}",
        )

    def _sources(self, protocol: str) -> np.ndarray:
        """Per stripe, what the protocol's engines load: codewords or data."""
        return self._stripe_cache if protocol == "erc" else self.data

    def _load(self, protocol: str) -> None:
        """All nodes up, and every stripe of ``protocol`` at version 0."""
        self.cluster.recover_all()
        for engine, source in zip(self._built[protocol], self._sources(protocol)):
            load = engine.load_stripe if protocol == "erc" else engine.initialize
            load(source)

    def _resync(self, protocol: str, block: int) -> None:
        """What :meth:`_load` does, given only ``block`` was written since."""
        self.cluster.recover_all()
        for engine, source in zip(self._built[protocol], self._sources(protocol)):
            engine.reload_block(block, source)

    @staticmethod
    def _check_protocol(protocol: str) -> None:
        if protocol not in ("erc", "fr"):
            raise ConfigurationError(
                f"protocol must be 'erc' or 'fr', got {protocol!r}"
            )

    def _check_call(self, p: float, trials: int, protocol: str, block: int) -> None:
        """Reject a bad call before it touches the cluster."""
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        self._check_protocol(protocol)
        if not 0 <= block < self.k:
            raise ConfigurationError(
                f"data block index must be in [0, {self.k}), got {block}"
            )

    def _sample_alive_matrix(self, p: float, trials: int, rng=None) -> np.ndarray:
        """(trials, n) Bernoulli(p) alive matrix in one vectorized draw."""
        rng = self.rng if rng is None else rng
        return rng.random((trials, self.n)) < p

    # ------------------------------------------------------------------ #

    def read_availability(
        self,
        p: float,
        trials: int = 400,
        protocol: str = "erc",
        block: int = 0,
        rng=None,
    ) -> MCEstimate:
        """Fraction of (trial, stripe) reads of ``block`` that succeed.

        Reads do not mutate state, so the stripes stay synced across
        trials (pure snapshot model). ``rng`` overrides the instance
        stream for this call — how the runner hands a trial chunk its
        own pre-spawned child stream (default: the instance stream,
        the exact historical behavior).
        """
        self._check_call(p, trials, protocol, block)
        engines = self._engines(protocol)
        rng = self.rng if rng is None else make_rng(rng)
        alive = self._sample_alive_matrix(p, trials, rng)
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
        protocol: str = "erc",
        block: int = 0,
        rng=None,
    ) -> MCEstimate:
        """Fraction of (trial, stripe) writes of ``block`` that succeed.

        Writes mutate state (including partially-failed ones), so after
        every trial the records a write of ``block`` can reach are put
        back from the cached version-0 stripes, which keeps trials i.i.d.
        under the snapshot model. ``rng`` (as in
        :meth:`read_availability`) drives both the alive draw and the
        per-trial payloads when given.
        """
        self._check_call(p, trials, protocol, block)
        engines = self._engines(protocol)
        rng = self.rng if rng is None else make_rng(rng)
        length = self.data.shape[2]
        alive = self._sample_alive_matrix(p, trials, rng)
        successes = 0
        for t in range(trials):
            self.cluster.apply_alive_vector(alive[t])
            try:
                for engine in engines:
                    value = (
                        rng.integers(0, 256, length, dtype=np.int64).astype(np.uint8)
                    )
                    if engine.write_block(block, value).success:
                        successes += 1
            finally:
                self._resync(protocol, block)
        return MCEstimate(successes, trials * len(engines))
