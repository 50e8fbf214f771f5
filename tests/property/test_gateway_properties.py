"""Property-based tests for gateway invariants: the idempotency cache's
reserve/release protocol, consistent-hash replica pinning, and the
forwarding primitive's slot, breaker and retry-budget bookkeeping."""

import functools
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import ServiceGateway
from repro.gateway.balancer import ConsistentHashPolicy
from repro.gateway.breaker import CircuitBreaker, RetryBudget
from repro.gateway.forwarding import Selection, classify_lookup, classify_pinned, classify_read
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.replicaset import Replica
from repro.http.messages import Headers, HttpError, Request, Response
from repro.http.registry import TransportRegistry
from repro.http.transport import ConnectError, Transport, TransportError
from repro.observability import parse_metrics

keys = st.text(alphabet="abcdef0123456789-", min_size=1, max_size=16)
replica_ids = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
    min_size=1,
    max_size=8,
    unique=True,
)


def _replicas(ids):
    return [Replica(rid, f"local://{rid}", CircuitBreaker()) for rid in ids]


class TestIdempotencyCacheProtocol:
    @given(st.lists(st.tuples(keys, st.sampled_from(["put", "release"])), max_size=30))
    def test_no_operation_sequence_leaves_a_reservation(self, operations):
        """Whatever interleaving of outcomes, pending drains to zero."""
        cache = IdempotencyCache(capacity=8, pending_timeout=0.1)
        for key, outcome in operations:
            owner, cached = cache.reserve(key)
            if cached is not None:
                continue  # replayed; no reservation taken
            assert owner, "single-threaded reserve can never time out"
            if outcome == "put":
                cache.put(key, "r0", Response.json({"k": key}, status=201))
            else:
                cache.release(key)
        assert cache.pending_count == 0

    @given(keys)
    def test_put_then_reserve_replays_a_copy(self, key):
        cache = IdempotencyCache(capacity=4)
        cache.put(key, "r0", Response.json({"id": "j-1"}, status=201))
        owner, cached = cache.reserve(key)
        assert not owner and cached is not None
        cached.headers.set("X-Mutated", "yes")  # a copy: mutation must not stick
        _, again = cache.reserve(key)
        assert again.headers.get("X-Mutated") is None

    @given(keys, st.integers(min_value=2, max_value=6))
    def test_concurrent_same_key_reserve_has_exactly_one_owner(self, key, workers):
        cache = IdempotencyCache(pending_timeout=5.0)
        barrier = threading.Barrier(workers)
        outcomes = []
        lock = threading.Lock()

        def contender():
            barrier.wait()
            owner, cached = cache.reserve(key)
            if owner:
                # the single first attempt: everyone else must replay this
                cache.put(key, "r0", Response.json({"id": "j-1"}, status=201))
            with lock:
                outcomes.append((owner, cached))

        threads = [threading.Thread(target=contender) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        owners = [owner for owner, _ in outcomes]
        assert owners.count(True) == 1
        assert all(cached is not None for owner, cached in outcomes if not owner)
        assert cache.pending_count == 0

    @given(keys, replica_ids)
    def test_binding_rules(self, key, ids):
        cache = IdempotencyCache()
        for rid in ids:
            cache.bind(key, rid)
            assert cache.binding(key) == rid  # last bind wins
        cache.invalidate_replica(ids[-1])
        assert cache.binding(key) is None


class TestConsistentHashPinning:
    @given(keys, replica_ids)
    def test_same_key_same_membership_same_choice(self, key, ids):
        policy = ConsistentHashPolicy()
        pool = _replicas(ids)
        first = policy.choose(pool, key)
        assert all(policy.choose(pool, key) is first for _ in range(3))
        # membership order must not matter
        assert policy.choose(list(reversed(pool)), key).id == first.id

    @given(keys, replica_ids)
    def test_removing_an_unchosen_replica_keeps_the_choice(self, key, ids):
        """The consistent-hash property: only keys on the removed replica move."""
        policy = ConsistentHashPolicy()
        pool = _replicas(ids)
        chosen = policy.choose(pool, key)
        for removed in pool:
            if removed is chosen or len(pool) == 1:
                continue
            survivors = [replica for replica in pool if replica is not removed]
            assert policy.choose(survivors, key).id == chosen.id

    @given(replica_ids, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_keys_spread_over_more_than_one_replica(self, ids, base):
        if len(ids) < 2:
            return
        policy = ConsistentHashPolicy()
        pool = _replicas(ids)
        chosen = {policy.choose(pool, f"key-{base}-{i}").id for i in range(64)}
        assert len(chosen) > 1


# --------------------------------------------------------------------------
# the forwarding primitive: attempt bookkeeping on every selection

#: Per-attempt outcomes. ``saturated`` and ``open`` are consumed when a
#: replica is claimed (no free slot / breaker refuses); the rest are the
#: replica's answer to the request itself.
OUTCOMES = ["ok", "connect", "mid", "5xx", "503", "404", "saturated", "open"]
FAILED = {"connect", "mid", "5xx", "503"}
SELECTIONS = ["spread", "content", "key-bound", "unkeyed-submit", "pinned"]


class Script:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.answered: list[str] = []

    def take(self, *kinds: str) -> "str | None":
        """Consume the next outcome when it is one of ``kinds``; when the
        script runs out, every attempt answers ``ok``."""
        upcoming = self.outcomes[0] if self.outcomes else "ok"
        if upcoming not in kinds:
            return None
        return self.outcomes.pop(0) if self.outcomes else upcoming


class ScriptedTransport(Transport):
    schemes = ("fake",)

    def __init__(self, script: Script):
        self.script = script

    def request(self, method, url, headers=None, body=b""):
        outcome = self.script.take("ok", "connect", "mid", "5xx", "503", "404")
        assert outcome is not None, "a request went out on a refused claim"
        self.script.answered.append(outcome)
        if outcome == "connect":
            raise ConnectError("scripted connect failure")
        if outcome == "mid":
            raise TransportError("scripted mid-request failure")
        status = {"ok": 200, "5xx": 500, "503": 503, "404": 404}[outcome]
        return Response.json({"outcome": outcome}, status=status)


class CountingBreaker(CircuitBreaker):
    """Trips on the first failure and, its clock standing still, stays
    open; ``half_open`` starts it past a trip's cool-down, so its first
    ``allow()`` grants the single probe permit."""

    def __init__(self, script: Script, half_open: bool):
        super().__init__(failure_threshold=1, reset_timeout=1.0, clock=lambda: self.now)
        self.now = 0.0
        if half_open:
            super().record_failure()
            self.now = 1.0
        self.script = script
        self.allowed = self.recorded = 0

    def allow(self):
        if self.script.take("open"):
            return False
        granted = super().allow()
        self.allowed += granted
        return granted

    def record_success(self):
        self.recorded += 1
        super().record_success()

    def record_failure(self):
        self.recorded += 1
        super().record_failure()


def _count_slots(replica, script):
    """Wrap ``replica``'s slot calls; returns the live counts."""
    counts = {"acquired": 0, "released": 0}
    acquire, release = replica.acquire_slot, replica.release_slot

    def acquire_slot():
        if script.take("saturated"):
            return False
        granted = acquire()
        counts["acquired"] += granted
        return granted

    def release_slot():
        counts["released"] += 1
        release()

    replica.acquire_slot, replica.release_slot = acquire_slot, release_slot
    return counts


class TestForwardBookkeeping:
    @given(
        outcomes=st.lists(st.sampled_from(OUTCOMES), max_size=8),
        which=st.sampled_from(SELECTIONS),
        replicas=st.integers(min_value=1, max_value=3),
        initial=st.integers(min_value=0, max_value=3),
        prebound=st.booleans(),
        half_open=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_claim_is_given_back_once_and_budgeted(
        self, outcomes, which, replicas, initial, prebound, half_open
    ):
        script = Script(outcomes)
        registry = TransportRegistry()
        registry.add_transport(ScriptedTransport(script))
        budget = RetryBudget(ratio=0.25, initial=float(initial), cap=1000.0)
        gateway = ServiceGateway(registry=registry, retry_budget=budget)
        try:
            slots, breakers = [], []
            for index in range(replicas):
                replica = gateway.add_replica(f"fake://r{index}")
                replica.breaker = CountingBreaker(script, half_open)
                slots.append(_count_slots(replica, script))
                breakers.append(replica.breaker)
            first = gateway.replicas.get("r0")
            key = None if which == "unkeyed-submit" else "k1"
            if which == "key-bound" and prebound:
                gateway.idempotency.bind(key, "r0")
            selection, classify = {
                "spread": (Selection("read"), classify_read),
                "content": (Selection("blob", key="d" * 64), classify_lookup),
                "key-bound": (
                    Selection("submit", key="hint", bound_key=key, limit=gateway.max_attempts),
                    functools.partial(gateway._classify_submit, key),
                ),
                "unkeyed-submit": (
                    Selection("submit", key="hint", limit=gateway.max_attempts),
                    functools.partial(gateway._classify_submit, None),
                ),
                "pinned": (Selection("pinned", replica=first), classify_pinned),
            }[which]
            request = Request(method="GET", path="/x", headers=Headers())
            try:
                gateway.forward(request, "GET", "/x", selection, classify)
                returned = True
            except HttpError:
                returned = False

            for counts in slots:
                assert counts["acquired"] == counts["released"]
            for breaker in breakers:
                assert breaker.allowed == breaker.recorded
                assert breaker.probes_in_flight == 0
            answered = script.answered
            if selection.limit is not None:
                assert len(answered) <= selection.limit
            retries = sum(1 for previous in answered[:-1] if previous in FAILED)
            deposits = int(returned and len(answered) == 1 and answered[0] not in FAILED)
            assert budget.balance == initial + 0.25 * deposits - retries
            counted = parse_metrics(gateway.metrics.render())["mc_gateway_forward_attempts_total"]
            assert sum(sample.value for sample in counted.samples) == len(answered)
        finally:
            gateway.shutdown()
