"""Erasure-coding substrate: systematic (n, k) MDS codes.

Implements the paper's section III-A storage model: data split into k
blocks, n - k parity blocks ``b_j = sum_i alpha_ji b_i`` over GF(2^w), any
k of n blocks sufficient to reconstruct, plus the in-place delta-update
path that Algorithm 1 relies on.
"""

from repro.erasure.code import DecodePlan, MDSCode
from repro.erasure.generator import build_generator, verify_mds
from repro.erasure.stripe import (
    StripeLayout,
    join_payload,
    join_payload_batch,
    split_payload,
    split_payload_batch,
)
from repro.erasure.update import UpdatePlan, plan_update, update_io_cost

__all__ = [
    "DecodePlan",
    "MDSCode",
    "build_generator",
    "verify_mds",
    "StripeLayout",
    "split_payload",
    "join_payload",
    "split_payload_batch",
    "join_payload_batch",
    "UpdatePlan",
    "plan_update",
    "update_io_cost",
]
