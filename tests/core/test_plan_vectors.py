"""tests/vectors/plans.json: every round the engines' plans yield, pinned.

Each engine runs its read, write and latest-version plans on the
instant path, for every block, once healthy and once with one node of
each trapezoid level down (flat engines have one level). A recording
coordinator writes down every round a plan yields — its policy, and per
request the node, method, arguments (arrays as dtype and shape), keyword
arguments, tag and caught exception types — and the test compares that
against the file. The file was captured before the engines built their
fixed rounds once at construction, so it pins that those rounds are the
ones the plans used to build per operation.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import MajorityProtocol, RowaProtocol, TrapErcProtocol, TrapFrProtocol
from repro.erasure import MDSCode, StripeLayout
from repro.quorum import TrapezoidQuorum, TrapezoidShape
from repro.runtime import InstantCoordinator
from repro.runtime.verify import BlockVerifier, MetadataQuorum

VECTORS = Path(__file__).resolve().parents[1] / "vectors" / "plans.json"

N, K, L = 9, 6, 8
#: block b on node (b + 3) mod n: block index and node id differ
LAYOUT = StripeLayout(N, K, tuple((b + 3) % N for b in range(N)))
FLAT_NODES = (0, 1, 2, 3, 4)
FLAT_BLOCKS = 3
META_NODES = tuple(range(N, N + 4))  # a signed 3f + 1 tier, f = 1


def _quorum() -> TrapezoidQuorum:
    return TrapezoidQuorum.uniform(TrapezoidShape(2, 1, 1), 2)


class _Recorder(InstantCoordinator):
    """The instant path, writing down every round it runs."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.rounds: list[dict] = []

    def run_round(self, round_):
        self.rounds.append(_describe_round(round_))
        return super().run_round(round_)


def _plain(value):
    """JSON form of a request argument; an array by dtype and shape."""
    if isinstance(value, np.ndarray):
        return {"dtype": value.dtype.str, "shape": list(value.shape)}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _describe_round(round_) -> dict:
    return {
        "kind": round_.kind,
        "need": round_.need,
        "send_all": round_.send_all,
        "abort_on_reject": round_.abort_on_reject,
        "accept": round_.accept.__name__,
        "requests": [
            {
                "node": request.node_id,
                "method": request.method,
                "args": _plain(request.args),
                "kwargs": _plain(request.kwargs),
                "tag": _plain(request.tag),
                "catches": [exc.__name__ for exc in request.catches],
            }
            for request in round_.requests
        ],
    }


def _verifier(cluster) -> BlockVerifier:
    return BlockVerifier(
        cluster, MetadataQuorum(META_NODES, 3, 3, f=1), namespace="plans", signed=True
    )


def _trap_erc(cluster, coordinator, verified=False):
    return TrapErcProtocol(
        cluster, MDSCode(N, K), _quorum(), layout=LAYOUT, stripe_id="plans",
        coordinator=coordinator,
        verifier=_verifier(cluster) if verified else None,
    )


def _trap_fr(cluster, coordinator, verified=False):
    return TrapFrProtocol(
        cluster, N, K, _quorum(), layout=LAYOUT, stripe_id="plans",
        coordinator=coordinator,
        verifier=_verifier(cluster) if verified else None,
    )


def _flat(cls):
    return lambda cluster, co: cls(cluster, FLAT_NODES, "plans", coordinator=co)


#: name -> (build(cluster, coordinator), trapezoid?, verified?)
ENGINES = {
    "trap-erc": (_trap_erc, True, False),
    "trap-erc-verified": (partial(_trap_erc, verified=True), True, True),
    "trap-fr": (_trap_fr, True, False),
    "trap-fr-verified": (partial(_trap_fr, verified=True), True, True),
    "rowa": (_flat(RowaProtocol), False, False),
    "majority": (_flat(MajorityProtocol), False, False),
}


def _scenarios(trapezoid: bool):
    """``(block, down node | None)``: healthy, then one node per level."""
    if not trapezoid:
        for block in range(FLAT_BLOCKS):
            yield block, None
            yield block, FLAT_NODES[0]
        return
    shape = _quorum().shape
    for block in range(K):
        group = LAYOUT.consistency_group(block)
        yield block, None
        for level in shape.levels:
            yield block, group[shape.positions(level)[0]]


def capture(name: str) -> list[dict]:
    """Every plan of engine ``name``, in scenario order, with its rounds."""
    build, trapezoid, verified = ENGINES[name]
    entries = []
    for block, down in _scenarios(trapezoid):
        cluster = Cluster(N + len(META_NODES) if verified else N)
        recorder = _Recorder(cluster)
        engine = build(cluster, recorder)
        rng = np.random.default_rng(block)
        rows = K if trapezoid else FLAT_BLOCKS
        engine.initialize(rng.integers(0, 256, size=(rows, L)).astype(np.uint8))
        if down is not None:
            cluster.fail(down)
        value = np.full(L, 7 + block, np.uint8)
        ops = [
            ("read", lambda: engine.read_block(block)),
            ("write", lambda: engine.write_block(block, value)),
        ]
        if trapezoid:
            ops.append(("latest", lambda: engine.latest_version(block)))
        for op, run in ops:
            del recorder.rounds[:]
            run()
            rounds = list(recorder.rounds)
            entries.append({"block": block, "down": down, "op": op, "rounds": rounds})
    return entries


def dump() -> str:
    """The file's text for the engines as they are now.

    Distinct rounds are stored once, one per line, under ``rounds``; a
    plan lists its rounds as indices into that table. To re-pin a
    deliberate change, from the repository root::

        PYTHONPATH=src:tests/core python -c "import test_plan_vectors as t; \\
            t.VECTORS.write_text(t.dump())"
    """
    table: dict[str, int] = {}
    engines = {}
    for name in ENGINES:
        engines[name] = [
            {
                **entry,
                "rounds": [
                    table.setdefault(json.dumps(round_), len(table))
                    for round_ in entry["rounds"]
                ],
            }
            for entry in capture(name)
        ]
    lines = ['{"rounds": [', ",\n".join(table), '], "engines": {']
    lines.append(
        ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(json.dumps(entry) for entry in entries)
            + "\n]"
            for name, entries in engines.items()
        )
    )
    lines.append("}}")
    return "\n".join(lines) + "\n"


_DOC = json.loads(VECTORS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(ENGINES))
def test_plans_yield_the_pinned_rounds(name):
    pinned = [
        {**entry, "rounds": [_DOC["rounds"][index] for index in entry["rounds"]]}
        for entry in _DOC["engines"][name]
    ]
    assert capture(name) == pinned


def test_vectors_cover_every_engine():
    assert set(_DOC["engines"]) == set(ENGINES)
