"""Fan-out round primitives shared by the three protocol coordinators.

A protocol engine expresses one read/write operation as a *plan*: a
generator yielding :class:`Round` objects (a fan-out of node requests
plus a completion policy) and receiving :class:`RoundOutcome` objects
back. The same plan runs on three coordinators:

* :class:`~repro.runtime.coordinator.InstantCoordinator` replays the
  round as the legacy synchronous RPC loop — identical RPC sequence,
  message counts and results to the pre-runtime engines;
* :class:`~repro.runtime.event.EventCoordinator` schedules every request
  as a real message on the discrete-event engine and completes the round
  through :class:`QuorumWait` — the q-th fastest healthy response ends
  the wait (max-of-parallel latency), stragglers keep flowing in the
  background;
* :class:`~repro.runtime.async_coord.AsyncCoordinator` sends the same
  requests to live node services (in-process or TCP) and completes the
  round the same way, in wall-clock time.

Round kinds (``version-query`` / ``payload`` / ``write``, and the
verifier's ``metadata``) label the protocol's round structure for per-round
message accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError, NodeUnavailableError

__all__ = [
    "VERSION_ROUND",
    "PAYLOAD_ROUND",
    "WRITE_ROUND",
    "Request",
    "Response",
    "Round",
    "RoundOutcome",
    "RetryPolicy",
    "QuorumWait",
]

#: canonical round-kind labels (per-round message accounting keys)
VERSION_ROUND = "version-query"
PAYLOAD_ROUND = "payload"
WRITE_ROUND = "write"


@dataclass(frozen=True, slots=True)
class Request:
    """One node RPC inside a fan-out round.

    ``catches`` lists the exception types that convert into a failed
    :class:`Response` (anything else is a programming error and
    propagates). ``tag`` is an engine-private annotation (e.g. the block
    index a fragment belongs to) carried through to the response.
    """

    node_id: int
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    tag: Any = None
    catches: tuple = (NodeUnavailableError,)


@dataclass(slots=True)
class Response:
    """One resolved request: a value, or a caught failure."""

    request: Request
    ok: bool
    value: Any = None
    error: BaseException | None = None


def _default_accept(response: Response) -> bool:
    return response.ok


class Round:
    """A fan-out of requests plus its completion policy.

    A read-only value, with its requests and their args and kwargs, that
    concurrent operations may share (docs/RUNTIME.md, "Plans and rounds").

    Parameters
    ----------
    requests:
        The node requests, in the engine's canonical order (the instant
        path issues them sequentially in exactly this order); kept as a
        tuple, so a tuple is stored without a copy.
    need:
        Quorum threshold: the round is *satisfied* once ``need``
        responses are accepted. ``None`` means "gather every response"
        (always satisfied once all requests resolve).
    accept:
        Predicate deciding whether a response counts toward ``need``
        (default: the request did not fail). An RPC that succeeds but
        returns an INVALID record is the typical rejected-but-resolved
        case.
    send_all:
        When True the instant path issues every request even after
        ``need`` is reached (write rounds: the protocol pushes updates to
        the whole level, then counts acks). When False it stops issuing
        at the threshold (read rounds: Algorithm 2's early exit). The
        event path always sends everything — fan-out is free in messages,
        the wait policy decides *completion*.
    abort_on_reject:
        Stop at the first rejected response (ROWA's write-all: any miss
        fails the operation).
    kind:
        Round label for per-round message accounting.
    """

    __slots__ = ("requests", "need", "accept", "send_all", "abort_on_reject", "kind")

    def __init__(
        self,
        requests: Iterable[Request],
        *,
        need: int | None = None,
        accept: Callable[[Response], bool] | None = None,
        send_all: bool = False,
        abort_on_reject: bool = False,
        kind: str = PAYLOAD_ROUND,
    ) -> None:
        self.requests = tuple(requests)
        if need is not None and need < 1:
            raise ConfigurationError(f"round need must be >= 1, got {need}")
        self.need = need
        self.accept = accept if accept is not None else _default_accept
        self.send_all = bool(send_all)
        self.abort_on_reject = bool(abort_on_reject)
        self.kind = str(kind)


@dataclass
class RoundOutcome:
    """What a coordinator hands back to the plan for one round.

    ``responses`` is in resolution order (issue order on the instant
    path, arrival order on the event path); ``accepted`` is its accepted
    subset. ``satisfied`` reports the ``need`` policy. ``elapsed`` is the
    round's max-of-parallel virtual latency and ``messages`` the traffic
    attributed to the round up to its completion.
    """

    round: Round
    responses: list[Response] = field(default_factory=list)
    accepted: list[Response] = field(default_factory=list)
    satisfied: bool = False
    elapsed: float = 0.0
    messages: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Per-operation timeout/retry policy of the event path.

    A request with no reply after ``timeout`` virtual seconds is resent
    up to ``retries`` times; when the attempts are exhausted the request
    resolves as failed (a :class:`NodeUnavailableError` response — a
    timeout is indistinguishable from a dead node to the coordinator).
    Node-side version guards make resends safe: a duplicate delivery of
    a guarded write raises ``StaleNodeError`` instead of re-applying.
    """

    timeout: float = 0.05
    retries: int = 0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")


class QuorumWait:
    """Event-path completion tracker: quorum-wait over a fan-out round.

    ``offer`` one resolved response at a time; the wait completes when

    * the ``need``-th accepted response arrives (the q-th fastest healthy
      reply — max-of-parallel, not sum),
    * the threshold becomes unreachable (enough failures that the
      outstanding requests cannot make up the difference),
    * a rejection arrives under ``abort_on_reject``, or
    * every request has resolved (``need is None`` gather-rounds).

    Responses offered after completion are ignored (stragglers are
    background traffic, they no longer belong to the operation).
    """

    def __init__(self, round_: Round) -> None:
        self.round = round_
        self.total = len(round_.requests)
        self.responses: list[Response] = []
        self.accepted: list[Response] = []
        self.resolved = 0
        self.done = False
        self.satisfied = False

    def offer(self, response: Response) -> bool:
        """Record one resolved response; True when the wait completes."""
        if self.done:
            return False
        round_ = self.round
        self.responses.append(response)
        self.resolved += 1
        accept = round_.accept
        if response.ok if accept is _default_accept else accept(response):
            self.accepted.append(response)
        elif round_.abort_on_reject:
            self.done = True
            return True
        need = round_.need
        accepted = len(self.accepted)
        outstanding = self.total - self.resolved
        if need is None:
            if outstanding:
                return False
            satisfied = True
        elif accepted >= need:
            satisfied = True
        elif accepted + outstanding < need:
            satisfied = False
        else:
            return False
        self.done = True
        self.satisfied = satisfied
        return True
