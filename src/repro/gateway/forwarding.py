"""The gateway's forwarding primitive.

``ServiceGateway.forward`` is the one loop that sends traffic to replicas:
a :class:`Selection` says which replicas it may try, a classifier what
each answer means, and every try is one :class:`Attempt`, which owns the
per-replica bookkeeping so that no route can leak or double-count it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.gateway.replicaset import Replica
from repro.http.messages import HttpError, Response
from repro.http.transport import ConnectError, TransportError
from repro.runtime.trace import span

#: A classifier's verdict on one replica's answer.
DONE = "done"  # the caller gets this answer
RETRY = "retry"  # the replica failed (5xx, transport failure): try another
NOT_HERE = "not-here"  # a normal miss (404 on a content lookup): try another
HOLD = "hold"  # the bound replica cannot answer yet: stop, answer 503


@dataclass(frozen=True)
class Selection:
    """Which replicas one forward may try.

    - *pinned* (``replica``): that replica alone, resolved from a job-id
      or blob-ref prefix;
    - *key-bound* (``bound_key``): the replica that Idempotency-Key is
      bound to, while there is a binding; a spread otherwise;
    - *spread*: healthy replicas, then degraded ones, each at most once,
      in the balancer's order for ``key`` — *content-addressed* when the
      key is a blob digest.

    ``route`` labels the attempts' span and counter; ``limit`` caps the
    number of attempts (``None``: as many as the selection yields).
    """

    route: str
    key: "str | None" = None
    replica: "Replica | None" = None
    bound_key: "str | None" = None
    limit: "int | None" = None


class Attempt:
    """One try of a forwarded request on one replica.

    :meth:`claim` takes the replica's in-flight slot and breaker permit.
    Used as a context manager, the attempt runs inside one
    ``gateway.forward`` span; leaving it releases the slot exactly once,
    answers the permit with exactly one ``record_success`` or
    ``record_failure``, and counts one outcome. A transport failure
    raised in the block is caught and becomes the attempt's ``answer``.
    """

    answer: "Response | TransportError | None" = None

    def __init__(self, replica: Replica, route: str, counter: Any = None):
        self.replica = replica
        self.route = route
        self.counter = counter

    @classmethod
    def claim(cls, replica: Replica, route: str, counter: Any = None) -> "Attempt | str":
        """An attempt holding ``replica``'s slot and permit, or the obstacle:
        ``"saturated"`` (no free slot) or ``"open"`` (breaker)."""
        if not replica.acquire_slot():
            return "saturated"
        if not replica.breaker.allow():
            replica.release_slot()
            return "open"
        return cls(replica, route, counter)

    @property
    def failed(self) -> bool:
        """No answer, or a 5xx: what the breaker counts as a failure."""
        return not isinstance(self.answer, Response) or self.answer.status >= 500

    def __enter__(self) -> "Attempt":
        # the request's method and path are on the parent http.request span
        labels = {"route": self.route, "replica": self.replica.id}
        self._span = span("gateway.forward", labels=labels)
        self._span.__enter__()
        return self

    def __exit__(self, kind: Any, error: Any, traceback: Any) -> bool:
        try:
            self._span.__exit__(kind, error, traceback)
        finally:
            if isinstance(error, TransportError):
                self.answer = error
            self.replica.release_slot()
            if self.failed:
                self.replica.breaker.record_failure()
            else:
                self.replica.breaker.record_success()
            if self.counter is not None:
                self.counter.labels(self.route, _outcome(self.answer)).inc()
        return isinstance(error, TransportError)


def _outcome(answer: "Response | TransportError | None") -> str:
    if isinstance(answer, TransportError):
        return "connect-error" if isinstance(answer, ConnectError) else "transport-error"
    if answer is None:
        return "error"  # the block raised something other than a transport failure
    return "server-error" if answer.status >= 500 else "ok"


def classify_read(replica: Replica, answer: "Response | TransportError") -> str:
    """Spread reads: a failure tries another replica."""
    return RETRY if isinstance(answer, TransportError) or answer.status >= 500 else DONE


def classify_lookup(replica: Replica, answer: "Response | TransportError") -> str:
    """Content-addressed lookups: as reads, but a 404 only means *this*
    replica does not hold the content."""
    verdict = classify_read(replica, answer)
    return NOT_HERE if verdict == DONE and answer.status == 404 else verdict


def classify_pinned(replica: Replica, answer: "Response | TransportError") -> str:
    """One replica owns the resource: its answer, 5xx included, is final,
    and no answer at all is a 502."""
    if isinstance(answer, TransportError):
        raise HttpError(502, f"replica {replica.id!r} unreachable: {answer}") from answer
    return DONE
