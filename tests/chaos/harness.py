"""The chaos harness: seeded fault schedules against a real gateway cell.

Each test builds a :class:`GatewayChaosCell` — replica containers behind a
:class:`~repro.gateway.ServiceGateway`, with a
:class:`~repro.faults.FaultInjectingTransport` in front of the in-process
transport — runs a seeded client workload while the
:class:`~repro.faults.FaultPlan` injects faults, then *settles* (faults
off, everything restored) and checks the invariants that must survive any
schedule:

- **no acknowledged job is lost** — every 201 the client saw resolves to
  a live job that reaches a terminal state;
- **no job is duplicated** — despite replays, retries and failovers,
  each Idempotency-Key owns exactly one job across all replicas;
- **gauges drain** — replica in-flight counts and the idempotency
  cache's pending reservations return to zero, and no breaker holds an
  unanswered half-open probe permit;
- **every rejection is well-formed** — 429/503 answers carry a
  ``Retry-After`` hint, and keyed POSTs are never answered with the
  ambiguous 502.

Determinism: the schedule is a pure function of the seed. Workloads are
single-threaded, fault decisions come from per-site seeded streams, crash
and node-death controllers advance on the workload's op clock, health
probes run via explicit ``check_now()`` (never a background timer), and
circuit breakers are configured out of the picture (their open/close
transitions depend on wall-clock timing, which would fork the schedule).
A failing invariant raises with the seed, the scenario mix, the last
fault events, and a one-line repro command.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import threading
import time
from collections import Counter

from repro.cache import ResultCache
from repro.container import ServiceContainer
from repro.faults import CrashController, FaultInjectingTransport, FaultPlan, WorkerStallHook
from repro.gateway import ServiceGateway
from repro.gateway.replicaset import ReplicaSet
from repro.http.client import IDEMPOTENCY_KEY_HEADER, RestClient
from repro.http.registry import TransportRegistry
from tests.waiters import wait_until

#: Scales every seed matrix: 1 is the full suite, CI pull-request runs use
#: a fraction, soak runs can go above 1.
CHAOS_SCALE = float(os.environ.get("MC_CHAOS_SCALE", "1"))

_cells = itertools.count()


def chaos_seeds(count: int, base: int = 0) -> list[int]:
    """``count`` seeds starting at ``base``, scaled by ``MC_CHAOS_SCALE``."""
    scaled = max(1, round(count * CHAOS_SCALE))
    return list(range(base, base + scaled))


_WORK = {
    "description": {
        "name": "work",
        "inputs": {
            "a": {"schema": {"type": "number"}},
            "b": {"schema": {"type": "number"}},
        },
        "outputs": {"sum": {"schema": {"type": "number"}}},
    },
    "adapter": "python",
    "config": {"callable": lambda a, b: {"sum": a + b}},
}


class GatewayChaosCell:
    """Replica containers + gateway + fault plan for one seeded run.

    ``scenario_fn`` receives a regex matching the replica authorities
    (so faults hit gateway→replica traffic, not the client→gateway hop)
    and returns the scenario list for the plan.

    With ``cold=True`` every replica journals to its own temp directory
    and registers a cold-restart pair on the crash controller: a
    ``cold-restart`` fault tears the container down mid-run
    (:meth:`~repro.container.ServiceContainer.crash` — journal closes
    first) and the restore builds a *fresh* container over the same
    journal directory, so only journaled state survives the outage.
    """

    def __init__(
        self,
        seed: int,
        scenario_fn,
        nodeid: str = "",
        replicas: int = 3,
        handlers: int = 2,
        crashes: bool = False,
        cold: bool = False,
        worker_stalls: bool = False,
        policy: str = "round-robin",
    ):
        self.seed = seed
        self.nodeid = nodeid
        self.sequence = next(_cells)
        self.registry = TransportRegistry()
        self.handlers = handlers
        self.prefix = f"cx{self.sequence}r"
        self.plan = FaultPlan(seed, scenario_fn(rf"local://{self.prefix}\d+/"))
        self._journal_root = tempfile.mkdtemp(prefix="chaos-waj-") if cold else None
        self._stall_hook: WorkerStallHook | None = None
        self.containers: list[ServiceContainer] = []
        for index in range(replicas):
            self.containers.append(self._build_container(index))
        # in front of the built-in local transport: every local:// request
        # (gateway→replica, health probes) consults the plan first
        self.registry.add_transport(FaultInjectingTransport(self.registry.local, self.plan))
        replica_set = ReplicaSet(
            registry=self.registry,
            down_after=1,
            up_after=1,
            # breakers stay closed: their transitions are wall-clock-timed
            # and would make the schedule diverge between identical seeds
            breaker_failures=10**6,
        )
        self.gateway = ServiceGateway(
            registry=self.registry,
            name=f"cx{self.sequence}gw",
            replicas=replica_set,
            policy=policy,
            max_attempts=4,
        )
        for container in self.containers:
            self.gateway.add_replica(container.local_base)
        self.crash: CrashController | None = None
        if crashes or cold:
            self.crash = CrashController(
                self.plan,
                on_change=lambda: self.gateway.replicas.check_now(),
                min_up=1,
            )
            for index in range(replicas):
                self._register_crash(index)
        if worker_stalls:
            self._stall_hook = WorkerStallHook(self.plan)
            for container in self.containers:
                container.job_manager.set_task_hook(self._stall_hook)
        self.client = RestClient(self.registry, retry_after_cap=0.0)
        self.service_uri = self.gateway.service_uri("work")
        # marker → {"key", "acked" (job doc | None)}
        self.expected: dict[int, dict] = {}
        self._markers = itertools.count()
        self.violations: list[str] = []

    # -------------------------------------------------------------- lifecycle

    def _build_container(self, index: int) -> ServiceContainer:
        """One replica container; with journaling when the cell is cold."""
        journal_dir = None
        if self._journal_root is not None:
            journal_dir = os.path.join(self._journal_root, f"r{index}")
        container = ServiceContainer(
            f"{self.prefix}{index}",
            handlers=self.handlers,
            registry=self.registry,
            journal_dir=journal_dir,
            **self._container_options(),
        )
        container.deploy(self._service_config(index))
        return container

    def _container_options(self) -> dict:
        """Extra :class:`ServiceContainer` keyword arguments (cell variants
        override — e.g. the cache cell attaches a result cache)."""
        return {}

    def _service_config(self, index: int) -> dict:
        """The service deployed on replica ``index`` (called again for the
        fresh container of a cold restart)."""
        return _WORK

    def _register_crash(self, index: int) -> None:
        """Register replica ``index`` on the crash controller.

        The callables index into ``self.containers`` rather than closing
        over a container object: a cold restart swaps a fresh container
        into the slot, and later warm crashes must hit *that* one.
        """
        cold_pair = {}
        if self._journal_root is not None:
            cold_pair = {
                "cold_stop": lambda: self.containers[index].crash(),
                "cold_start": lambda: self._cold_start(index),
            }
        self.crash.register(
            self.containers[index].name,
            stop=lambda: self.registry.unbind_local(self.containers[index].name),
            start=lambda: self.registry.bind_local(
                self.containers[index].name, self.containers[index].app
            ),
            **cold_pair,
        )

    def _cold_start(self, index: int) -> None:
        """Rebuild replica ``index`` from its journal and swap it in."""
        container = self._build_container(index)
        if self._stall_hook is not None:
            container.job_manager.set_task_hook(self._stall_hook)
        self.containers[index] = container

    def shutdown(self) -> None:
        self.plan.deactivate()
        if self.crash is not None:
            self.crash.restore_all()
        self.gateway.shutdown()
        for container in self.containers:
            container.job_manager.set_task_hook(None)
            container.shutdown()
        if self._journal_root is not None:
            shutil.rmtree(self._journal_root, ignore_errors=True)

    def fail(self, message: str) -> None:
        tail = "\n".join(f"    {event}" for event in self.plan.events[-8:])
        raise AssertionError(
            f"chaos invariant violated: {message}\n"
            f"  {self.plan.describe()}\n"
            f"  last fault events:\n{tail or '    (none)'}\n"
            f"  repro: MC_CHAOS_SCALE={CHAOS_SCALE:g} PYTHONPATH=src "
            f'python -m pytest -q "{self.nodeid}"'
        )

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    # -------------------------------------------------------------- workload

    def run_workload(self, ops: int = 8) -> None:
        """``ops`` seeded operations, stepping the crash controllers between."""
        chooser = self.plan.stream("workload")
        for _ in range(ops):
            if self.crash is not None:
                self.crash.step()
            roll = chooser.random()
            acked = [m for m, record in self.expected.items() if record["acked"]]
            if roll < 0.55 or not acked:
                self.submit_op()
            elif roll < 0.8:
                self.poll_op(chooser.choice(acked))
            else:
                self.poll_op(chooser.choice(acked), wait=0.05)

    def submit_op(self) -> None:
        marker = next(self._markers)
        key = f"s{self.seed}-k{marker}"
        record = {"key": key, "acked": None}
        self.expected[marker] = record
        response = self._post(marker, key)
        if response.status == 201:
            record["acked"] = response.json_body
        elif response.status in (429, 503):
            self.check(
                response.headers.get("Retry-After") is not None,
                f"{response.status} for keyed POST {key} lacks Retry-After",
            )
        else:
            self.fail(f"keyed POST {key} answered unexpected {response.status}")

    def poll_op(self, marker: int, wait: float = 0.0) -> None:
        record = self.expected[marker]
        uri = record["acked"]["uri"]
        query = {"wait": wait} if wait else None
        response = self.client.request_raw("GET", uri, query=query)
        if response.status == 200:
            self.check(
                response.json_body["id"] == record["acked"]["id"],
                f"poll of {uri} answered a different job",
            )
        elif response.status in (429, 503):
            self.check(
                response.headers.get("Retry-After") is not None,
                f"{response.status} for GET {uri} lacks Retry-After",
            )
        elif response.status != 502:
            self.fail(f"acknowledged job {uri} answered unexpected {response.status}")

    def _post(self, marker: int, key: str):
        body = json.dumps({"a": marker, "b": 1}).encode()
        return self.client.request_raw(
            "POST",
            self.service_uri,
            body=body,
            headers={IDEMPOTENCY_KEY_HEADER: key, "Content-Type": "application/json"},
        )

    # ---------------------------------------------------------------- settle

    def settle(self, deadline: float = 10.0) -> None:
        """Faults off, everything restored, every key resolved to one job."""
        self.plan.deactivate()
        if self.crash is not None:
            self.crash.restore_all()
        self.gateway.replicas.check_now()
        for marker, record in self.expected.items():
            if record["acked"] is None:
                record["acked"] = self._resolve(marker, record, deadline)
        for marker, record in self.expected.items():
            self._await_terminal(record["acked"]["uri"], deadline)

    def _resolve(self, marker: int, record: dict, deadline: float) -> dict:
        """Retry a rejected submit (same key) on the healed cell until 201."""
        def accepted():
            response = self._post(marker, record["key"])
            if response.status == 201:
                return response.json_body
            if response.status not in (429, 503):
                self.fail(f"settle retry of {record['key']} answered {response.status}")
            return None

        try:
            return wait_until(accepted, timeout=deadline, interval=0.02)
        except TimeoutError:
            self.fail(f"settle retry of {record['key']} never got a 201")

    def _await_terminal(self, uri: str, deadline: float) -> dict:
        def terminal():
            response = self.client.request_raw("GET", uri, query={"wait": 1})
            if response.status == 200 and response.json_body["state"] in (
                "DONE",
                "FAILED",
                "CANCELLED",
            ):
                return response.json_body
            if response.status == 404:
                self.fail(f"acknowledged job {uri} vanished (404 after settle)")
            return None

        try:
            return wait_until(terminal, timeout=deadline, interval=0.02)
        except TimeoutError:
            self.fail(f"acknowledged job {uri} never reached a terminal state")

    # ------------------------------------------------------------ invariants

    def verify(self) -> None:
        """The post-settle invariant sweep; call after :meth:`settle`."""
        counts: Counter = Counter()
        for container in self.containers:
            for job in container.service("work").jobs.list():
                counts[job.inputs["a"]] += 1
        for marker, record in self.expected.items():
            self.check(
                counts.get(marker, 0) == 1,
                f"key {record['key']} owns {counts.get(marker, 0)} jobs (want exactly 1)",
            )
        for marker in counts:
            self.check(int(marker) in self.expected, f"job with unknown marker {marker!r} exists")
        self.verify_replicas_drained()
        self.check(
            self.gateway.idempotency.pending_count == 0,
            f"idempotency cache holds {self.gateway.idempotency.pending_count} reservations",
        )
        budget = self.gateway.retry_budget
        self.check(0 <= budget.balance <= budget.cap, f"retry budget off the rails: {budget.balance}")
        if self._journal_root is not None:
            self.verify_replay_binding()

    def verify_replicas_drained(self) -> None:
        """Every forward gave back what it took: no in-flight slot held,
        and no breaker holding a half-open probe permit nobody answered."""
        for replica in self.gateway.replicas.replicas():
            self.check(
                replica.in_flight == 0,
                f"replica {replica.id} in-flight gauge stuck at {replica.in_flight}",
            )
            self.check(
                replica.breaker.probes_in_flight == 0,
                f"replica {replica.id} breaker holds {replica.breaker.probes_in_flight} "
                "unanswered half-open probe permits",
            )

    def verify_replay_binding(self) -> None:
        """Replaying a key straight at its owning replica must bind to the
        original job — after a cold restart that binding comes from the
        journal-seeded submit ledger, not from any in-memory survivor."""
        for container in self.containers:
            uri = container.service_uri("work")
            for job in container.service("work").jobs.list():
                if not job.idempotency_key:
                    continue
                response = self.client.request_raw(
                    "POST",
                    uri,
                    body=json.dumps(job.inputs).encode(),
                    headers={
                        IDEMPOTENCY_KEY_HEADER: job.idempotency_key,
                        "Content-Type": "application/json",
                    },
                )
                self.check(
                    response.status == 201,
                    f"replay of {job.idempotency_key} answered {response.status}",
                )
                self.check(
                    response.json_body["id"] == job.id,
                    f"replay of {job.idempotency_key} bound to "
                    f"{response.json_body.get('id')} (want {job.id})",
                )
                self.check(
                    response.headers.get("Idempotent-Replay") == "true",
                    f"replay of {job.idempotency_key} lacks the Idempotent-Replay header",
                )


def run_gateway_chaos(
    seed: int,
    scenario_fn,
    nodeid: str,
    ops: int = 8,
    **cell_options,
) -> None:
    """The standard chaos exercise: workload under faults, settle, verify."""
    cell = GatewayChaosCell(seed, scenario_fn, nodeid=nodeid, **cell_options)
    try:
        cell.run_workload(ops=ops)
        cell.settle()
        cell.verify()
    finally:
        cell.shutdown()


class ExecutionTracker:
    """Counts overlapping executions per key from inside service callables."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active: Counter = Counter()
        self.peaks: Counter = Counter()
        self.totals: Counter = Counter()

    def enter(self, key) -> None:
        with self._lock:
            self._active[key] += 1
            self.totals[key] += 1
            if self._active[key] > self.peaks[key]:
                self.peaks[key] = self._active[key]

    def exit(self, key) -> None:
        with self._lock:
            self._active[key] -= 1


class CacheChaosCell(GatewayChaosCell):
    """A chaos cell whose replicas run with the result cache enabled.

    The workload hammers a *small* payload space with keyless POSTs, so
    content-addressed reuse (hits and single-flight coalescing) is the
    only thing standing between the cell and duplicate executions. On
    top of the usual sweep it checks the cache's own invariants:

    - **no fingerprint executes twice concurrently** within one container
      incarnation — the deployed callable counts overlapping entries per
      ``(incarnation, inputs)`` key (a cold restart starts a new
      incarnation: threads of the dying pool cannot be preempted, so the
      guarantee is scoped to each cache's lifetime, which is exactly
      what the store promises);
    - **a cache hit never serves a deleted or failed job** — every
      ``X-Cache: hit`` answer must name a ``DONE`` job, and no answer
      (during the run or after settling, including after cold-restart
      rehydration) may name a job the workload successfully deleted;
    - **the settled cell reuses** — resubmitting any successful payload
      after settle is answered from cache (hit or coalesced) with the
      original job id, while payloads that always fail are never served
      as hits.

    Routing is consistent-hash over the submit fingerprint, so identical
    payloads land on the same replica whenever it is up — that is what
    makes warm reuse deterministic enough to assert on.
    """

    #: Size of the payload space: small enough that duplicates dominate.
    DISTINCT = 6
    #: Markers whose executions always raise (failures must never cache).
    FAIL_MARKERS = frozenset({4})

    def __init__(self, seed: int, scenario_fn, nodeid: str = "", **options):
        self.tracker = ExecutionTracker()
        self._incarnations: Counter = Counter()
        #: ids whose DELETE was acknowledged (204): must never be seen again
        self.deleted_ids: set[str] = set()
        #: ids whose DELETE got an ambiguous answer: may or may not be gone
        self.delete_ambiguous: set[str] = set()
        # marker → acknowledged job documents (one per 201, duplicates fine)
        self.submitted: dict[int, list[dict]] = {}
        options.setdefault("policy", "consistent-hash")
        super().__init__(seed, scenario_fn, nodeid=nodeid, **options)

    def _container_options(self) -> dict:
        return {"cache": ResultCache(capacity=256, ttl=600.0, pending_timeout=5.0)}

    def _service_config(self, index: int) -> dict:
        incarnation = self._incarnations[index]
        self._incarnations[index] += 1
        node = f"{self.prefix}{index}#{incarnation}"
        tracker = self.tracker
        fail_markers = self.FAIL_MARKERS

        def work(a, b):
            key = (node, a, b)
            tracker.enter(key)
            try:
                time.sleep(0.002)  # widen the race window the cache must close
                if a in fail_markers:
                    raise RuntimeError(f"marker {a} always fails")
                return {"sum": a + b}
            finally:
                tracker.exit(key)

        config = dict(_WORK)
        config["config"] = {"callable": work}
        return config

    # -------------------------------------------------------------- workload

    def run_workload(self, ops: int = 12) -> None:
        chooser = self.plan.stream("workload")
        for _ in range(ops):
            if self.crash is not None:
                self.crash.step()
            roll = chooser.random()
            acked = [doc for docs in self.submitted.values() for doc in docs]
            if roll < 0.6 or not acked:
                self.cache_submit_op(chooser.randrange(self.DISTINCT))
            elif roll < 0.85:
                self.cache_poll_op(chooser.choice(acked))
            else:
                self.cache_delete_op(chooser)

    def cache_submit_op(self, marker: int) -> None:
        response = self._post_plain(marker)
        if response.status == 201:
            doc = response.json_body
            self.check(
                doc["id"] not in self.deleted_ids,
                f"submit for marker {marker} was answered with deleted job {doc['id']}",
            )
            if response.headers.get("X-Cache") == "hit":
                self.check(
                    doc["state"] == "DONE",
                    f"cache hit served job {doc['id']} in state {doc['state']}",
                )
            self.submitted.setdefault(marker, []).append(doc)
        elif response.status in (429, 503):
            self.check(
                response.headers.get("Retry-After") is not None,
                f"{response.status} for POST marker {marker} lacks Retry-After",
            )
        elif response.status != 502:
            # 502 is legal here: a keyless POST over a connection that died
            # mid-request is ambiguous and the gateway refuses to retry it
            self.fail(f"POST for marker {marker} answered unexpected {response.status}")

    def cache_poll_op(self, doc: dict) -> None:
        response = self.client.request_raw("GET", doc["uri"])
        if response.status == 200:
            self.check(
                doc["id"] not in self.deleted_ids,
                f"deleted job {doc['id']} still answers 200",
            )
        elif response.status == 404:
            self.check(
                doc["id"] in self.deleted_ids or doc["id"] in self.delete_ambiguous,
                f"acknowledged job {doc['uri']} vanished (404)",
            )
            self.deleted_ids.add(doc["id"])  # 404 confirms the delete landed
        elif response.status in (429, 503):
            self.check(
                response.headers.get("Retry-After") is not None,
                f"{response.status} for GET {doc['uri']} lacks Retry-After",
            )
        elif response.status != 502:
            self.fail(f"GET {doc['uri']} answered unexpected {response.status}")

    def cache_delete_op(self, chooser) -> None:
        """Delete one DONE job; later answers must never name it again."""
        candidates = [
            doc
            for docs in self.submitted.values()
            for doc in docs
            if doc["id"] not in self.deleted_ids
        ]
        if not candidates:
            return
        doc = chooser.choice(candidates)
        probe = self.client.request_raw("GET", doc["uri"])
        if probe.status != 200 or probe.json_body["state"] != "DONE":
            return  # only delete settled data, mirroring a client cleanup
        response = self.client.request_raw("DELETE", doc["uri"])
        if response.status == 204:
            self.deleted_ids.add(doc["id"])
        elif response.status == 404:
            self.deleted_ids.add(doc["id"])  # already gone: equally confirmed
        else:
            # a dropped/rejected DELETE may still have executed on the
            # replica before the answer was lost — ambiguous, not failed
            self.delete_ambiguous.add(doc["id"])

    def _post_plain(self, marker: int):
        body = json.dumps({"a": marker, "b": 1}).encode()
        return self.client.request_raw(
            "POST", self.service_uri, body=body, headers={"Content-Type": "application/json"}
        )

    # ---------------------------------------------------------------- settle

    def settle(self, deadline: float = 10.0) -> None:
        self.plan.deactivate()
        if self.crash is not None:
            self.crash.restore_all()
        self.gateway.replicas.check_now()
        for docs in self.submitted.values():
            for doc in docs:
                if doc["id"] in self.deleted_ids or doc["id"] in self.delete_ambiguous:
                    continue
                self._await_terminal(doc["uri"], deadline)

    # ------------------------------------------------------------ invariants

    def verify(self) -> None:
        for key, peak in sorted(self.tracker.peaks.items()):
            self.check(
                peak <= 1,
                f"fingerprint {key} executed {peak} times concurrently",
            )
        self.verify_replicas_drained()
        self.verify_warm_reuse()
        # the gateway saw the replicas' X-Cache answers: at least the warm
        # reuse sweep above must have registered
        counts = self.gateway.cache_stats
        self.check(counts["miss"] >= 1, f"gateway cache counters never moved: {counts}")
        self.check(
            counts["hit"] + counts["coalesced"] >= 1,
            f"settled cell never reused a result: {counts}",
        )

    def verify_warm_reuse(self, deadline: float = 10.0) -> None:
        """On the healed cell every successful payload is served from cache."""
        for marker in range(self.DISTINCT):
            first = self._settled_submit(marker, deadline)
            self._await_terminal(first.json_body["uri"], deadline)
            second = self._settled_submit(marker, deadline)
            if marker in self.FAIL_MARKERS:
                self.check(
                    second.headers.get("X-Cache") != "hit",
                    f"always-failing marker {marker} was served as a cache hit",
                )
            else:
                self.check(
                    second.headers.get("X-Cache") in ("hit", "coalesced"),
                    f"settled resubmit of marker {marker} was not reused "
                    f"(X-Cache: {second.headers.get('X-Cache')})",
                )
                self.check(
                    second.json_body["id"] == first.json_body["id"],
                    f"settled resubmit of marker {marker} bound to "
                    f"{second.json_body['id']} (want {first.json_body['id']})",
                )

    def _settled_submit(self, marker: int, deadline: float):
        def accepted():
            response = self._post_plain(marker)
            if response.status == 201:
                self.check(
                    response.json_body["id"] not in self.deleted_ids,
                    f"settled submit for marker {marker} served deleted job "
                    f"{response.json_body['id']}",
                )
                return response
            return None

        try:
            return wait_until(accepted, timeout=deadline, interval=0.02)
        except TimeoutError:
            self.fail(f"settled submit for marker {marker} never got a 201")


def run_cache_chaos(
    seed: int,
    scenario_fn,
    nodeid: str,
    ops: int = 12,
    **cell_options,
) -> None:
    """The cache chaos exercise: duplicate-heavy workload, settle, verify."""
    cell = CacheChaosCell(seed, scenario_fn, nodeid=nodeid, **cell_options)
    try:
        cell.run_workload(ops=ops)
        cell.settle()
        cell.verify()
    finally:
        cell.shutdown()
