"""Cross-layer property tests: randomized invariants spanning modules.

Hypothesis-driven checks that tie independent implementations together:
geometry vs predicates, closed forms vs enumeration, matrix vs polynomial
decoding, protocol engines vs abstract quorum systems.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    exact_read_erc,
    read_availability_fr,
    write_availability,
)
from repro.erasure import MDSCode
from repro.quorum import TrapezoidQuorum, TrapezoidShape, TrapezoidSystem
from tests.analysis.exact_reference import exact_availability

shapes = st.builds(
    TrapezoidShape,
    a=st.integers(0, 3),
    b=st.integers(1, 5),
    h=st.integers(0, 2),
)


def quorum_for(shape: TrapezoidShape, data) -> TrapezoidQuorum:
    w = [shape.b // 2 + 1]
    for l in range(1, shape.h + 1):
        w.append(data.draw(st.integers(1, shape.level_size(l)), label=f"w{l}"))
    return TrapezoidQuorum(shape, tuple(w))


class TestFormulaVsEnumeration:
    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, data=st.data(), p=st.floats(0.05, 0.95))
    def test_write_closed_form_is_exact(self, shape, data, p):
        quorum = quorum_for(shape, data)
        if shape.total_nodes > 14:
            return  # keep enumeration fast
        closed = float(write_availability(quorum, p))
        exact = float(
            exact_availability(TrapezoidSystem(quorum), np.asarray(p), kind="write")
        )
        assert closed == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, data=st.data(), p=st.floats(0.05, 0.95))
    def test_read_fr_closed_form_is_exact(self, shape, data, p):
        quorum = quorum_for(shape, data)
        if shape.total_nodes > 14:
            return
        closed = float(read_availability_fr(quorum, p))
        exact = float(
            exact_availability(TrapezoidSystem(quorum), np.asarray(p), kind="read")
        )
        assert closed == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, data=st.data(), p=st.floats(0.05, 0.95), extra_k=st.integers(1, 6))
    def test_exact_erc_read_sandwiched(self, shape, data, p, extra_k):
        """0 <= exact ERC read <= FR read <= 1 for arbitrary geometry."""
        quorum = quorum_for(shape, data)
        if shape.total_nodes > 12:
            return
        k = extra_k
        n = shape.total_nodes + k - 1
        erc = float(exact_read_erc(quorum, n, k, p))
        fr = float(read_availability_fr(quorum, p))
        assert -1e-12 <= erc <= fr + 1e-9
        assert fr <= 1 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes, data=st.data())
    def test_availability_monotone_in_p_property(self, shape, data):
        quorum = quorum_for(shape, data)
        p = np.linspace(0.05, 0.95, 10)
        w = write_availability(quorum, p)
        assert np.all(np.diff(w) >= -1e-12)
        r = read_availability_fr(quorum, p)
        assert np.all(np.diff(r) >= -1e-12)


class TestCodecProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        nk=st.tuples(st.integers(2, 9), st.integers(1, 9)).filter(lambda t: t[0] >= t[1]),
    )
    def test_double_update_roundtrips(self, seed, nk):
        """Applying an update then its inverse restores the exact stripe."""
        n, k = nk
        code = MDSCode(n, k)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(k, 8), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        original = stripe.copy()
        i = int(rng.integers(0, k))
        new_block = rng.integers(0, 256, 8, dtype=np.int64).astype(np.uint8)
        delta = code.delta(stripe[i], new_block)
        for j in range(k, n):
            code.apply_parity_delta(stripe[j], j, i, delta)
        stripe[i] = new_block
        # invert
        back = code.delta(stripe[i], original[i])
        for j in range(k, n):
            code.apply_parity_delta(stripe[j], j, i, back)
        stripe[i] = original[i]
        assert np.array_equal(stripe, original)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_stripe_always_in_code_space(self, seed):
        """Random update sequences keep the stripe a valid codeword."""
        code = MDSCode(8, 5)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(5, 8), dtype=np.int64).astype(np.uint8)
        stripe = code.encode(data)
        for _ in range(6):
            i = int(rng.integers(0, 5))
            new_block = rng.integers(0, 256, 8, dtype=np.int64).astype(np.uint8)
            delta = code.delta(stripe[i], new_block)
            for j in range(5, 8):
                code.apply_parity_delta(stripe[j], j, i, delta)
            stripe[i] = new_block
        assert np.array_equal(stripe, code.encode(stripe[:5]))


class TestProtocolSnapshotEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_read_outcome_equals_predicate_on_synced_stripe(self, data):
        """For every alive-pattern, the executable ERC read succeeds iff
        the analytic snapshot predicate holds (fully synced state)."""
        from repro.cluster import Cluster
        from repro.core import TrapErcProtocol

        n, k = 7, 4
        shape = TrapezoidShape(2, 1, 1)
        quorum = TrapezoidQuorum.uniform(shape, data.draw(st.integers(1, 3), label="w"))
        cluster = Cluster(n)
        proto = TrapErcProtocol(cluster, MDSCode(n, k), quorum)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
        proto.initialize(
            rng.integers(0, 256, size=(k, 8), dtype=np.int64).astype(np.uint8)
        )
        alive = np.array([data.draw(st.booleans(), label=f"n{i}") for i in range(n)])
        cluster.apply_alive_vector(alive)

        # analytic predicate for block 0
        group = proto.placement.group_nodes(0)
        counts = [
            sum(alive[group[pos]] for pos in shape.positions(l))
            for l in shape.levels
        ]
        check = quorum.read_check_predicate(counts)
        decode_pool = int(alive[1:].sum())  # nodes other than N_0
        predicate = check and (alive[0] or decode_pool >= k)

        result = proto.read_block(0)
        assert result.success == predicate
