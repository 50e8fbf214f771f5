"""Replicated-service API gateway.

Fronts a pool of interchangeable service containers behind one stable
endpoint speaking the paper's unified REST API — the platform-layer
reliability management (health checking, circuit breaking, idempotent
retries, backpressure) that lets the catalogue publish one URL while the
traffic is served by many replicas.

Layers:

- :mod:`repro.gateway.replicaset` — membership, health states with
  hysteresis, per-replica in-flight gauges;
- :mod:`repro.gateway.balancer` — round-robin / least-outstanding /
  consistent-hash balancing policies;
- :mod:`repro.gateway.breaker` — per-replica circuit breakers and the
  gateway-wide retry budget;
- :mod:`repro.gateway.routing` — job-id prefix pinning and URI
  rewriting (replica address space → gateway address space);
- :mod:`repro.gateway.idempotency` — replaying POST responses by
  ``Idempotency-Key``;
- :mod:`repro.gateway.forwarding` — the one forwarding primitive: one
  attempt (slot, breaker permit, span, counter) per try of a request;
- :mod:`repro.gateway.gateway` — the gateway REST application itself.
"""

from repro.gateway.balancer import (
    ConsistentHashPolicy,
    LeastOutstandingPolicy,
    Policy,
    RoundRobinPolicy,
    create_policy,
)
from repro.gateway.breaker import BreakerState, CircuitBreaker, RetryBudget
from repro.gateway.gateway import ServiceGateway, make_replicated_gateway
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.replicaset import Replica, ReplicaSet, ReplicaState
from repro.gateway.routing import decode_job_id, encode_job_id

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ConsistentHashPolicy",
    "IdempotencyCache",
    "LeastOutstandingPolicy",
    "Policy",
    "Replica",
    "ReplicaSet",
    "ReplicaState",
    "RetryBudget",
    "RoundRobinPolicy",
    "ServiceGateway",
    "create_policy",
    "decode_job_id",
    "encode_job_id",
    "make_replicated_gateway",
]
