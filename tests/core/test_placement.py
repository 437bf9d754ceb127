"""TrapezoidPlacement: the node behind each trapezoid position."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TrapezoidPlacement
from repro.erasure import StripeLayout
from repro.quorum import TrapezoidQuorum, TrapezoidShape


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(0, 3), b=st.integers(1, 5), h=st.integers(0, 3), k=st.integers(1, 12)
)
def test_parity_nodes_rotate_behind_ni(a, b, h, k):
    shape = TrapezoidShape(a, b, h)
    n = k + shape.total_nodes - 1
    # node ids differ from block indices
    layout = StripeLayout(n, k, tuple(reversed(range(n))))
    placement = TrapezoidPlacement(layout, TrapezoidQuorum.uniform(shape))
    parity, m, s0 = layout.parity_nodes, n - k, shape.level_size(0)
    duty: Counter = Counter()
    for i in range(k):
        group = placement.group_nodes(i)
        # the group is still {N_i} ∪ parity, N_i at position 0
        assert group[0] == layout.node_of_block(i)
        assert group[1:] == [parity[(i + p) % m] for p in range(m)]
        assert [node for level in placement.levels[i] for node in level] == group
        duty.update(placement.levels[i][0][1:])
    # Block i's level 0 holds parities i .. i + s_0 - 2 (mod n - k), so a
    # parity node serves level 0 for at most this many of the k blocks.
    # It is ceil(k (s_0 - 1) / (n - k)) when s_0 <= 2 or n - k divides k;
    # otherwise it can exceed that by up to s_0 - 2 (e.g. (7, 2), levels
    # (3, 3): parity 1 is at level 0 of both blocks).
    if m:
        q, r = divmod(k, m)
        worst = (s0 - 1) * q + min(s0 - 1, r)
        assert max(duty.values(), default=0) <= worst
        if s0 <= 2 or r == 0:
            assert worst == -(-k * (s0 - 1) // m)
