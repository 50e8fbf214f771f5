"""The four workloads' client side: closed-loop op generators and the
check each op's output must pass.

Every op is one client-visible unit of work. ``Workload.op`` performs
it, checks its output and returns an :class:`OpResult`; a failed
request or a failed check raises :class:`CheckFailed`. Inputs come only
from ``(seed, op index)``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from perfbench import deploy
from repro.apps.cas.kernel import RationalMatrix
from repro.http.client import RestClient

JSON_HEADERS = {"Content-Type": "application/json"}
TERMINAL = ("DONE", "FAILED", "CANCELLED")
#: Long-poll wait per GET; every op here finishes well inside it.
WAIT_S = 30


class CheckFailed(Exception):
    """An op whose request failed or whose output check did not pass."""


@dataclass
class OpResult:
    #: ``time.perf_counter()`` when the op's first request was sent.
    start: float
    latency: float
    #: POST → 201 time, for ops that submit.
    submit: float | None
    #: Payload bytes the op delivered and verified.
    payload: int


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    #: ``(completion time, OpResult)`` of every op that passed its check.
    results: list = field(default_factory=list)
    #: ``(time, sample())`` at the window's start, slice boundaries
    #: and end.
    marks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def verified(self) -> int:
        return len(self.results)

    @property
    def elapsed(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]

    @property
    def latencies(self) -> list[float]:
        return [result.latency for _, result in self.results]

    @property
    def submits(self) -> list[float]:
        return [result.submit for _, result in self.results if result.submit is not None]

    @property
    def payload(self) -> int:
        return sum(result.payload for _, result in self.results)


class Workload:
    """Shared plumbing: one client, request ids, submit + long-poll."""

    name = ""
    clients = 1

    def __init__(self, seed: int, registry, submit_uri: str):
        self.seed = seed
        self.client = RestClient(registry, retry_after_cap=0)
        self.submit_uri = submit_uri
        self.properties: Counter = Counter()
        self._lock = threading.Lock()

    def note(self, **counts: int) -> None:
        with self._lock:
            self.properties.update(counts)

    def reset(self) -> None:
        """Forget what warm-up noted, so ``describe`` covers the window."""
        self.properties.clear()

    def close(self) -> None:
        """Stop whatever helper the workload started."""

    def warmup(self, stop_at: float, next_index) -> None:
        """Ops run before the window; defaults to the normal mix."""
        while time.perf_counter() < stop_at:
            index = next(next_index)
            self.op(f"w{index}", index)

    def submit(self, op_id: str, payload: dict, extra: dict | None = None, then=None):
        """POST, then long-poll ``GET`` until a terminal state; returns
        ``(answer, document, submit_seconds, created)``: the final answer
        and its job document, the POST → 201 time and the 201 itself.
        ``then()`` is called once the 201 is in, before the long-poll.

        The result is always read with at least one ``GET``, also when
        the 201 already says DONE: otherwise whether an op makes one
        request or two would depend on a race between the job and the
        201, and the latency distribution would split into two modes
        whose weights move from run to run."""
        headers = {**JSON_HEADERS, **(extra or {}), "X-Request-Id": f"{op_id}.0"}
        start = time.perf_counter()
        response = self.client.request_raw(
            "POST", self.submit_uri, body=json.dumps(payload).encode(), headers=headers)
        submitted = time.perf_counter() - start
        if response.status != 201:
            raise CheckFailed(f"POST answered {response.status}: {response.body[:200]!r}")
        if then is not None:
            then()
        document = response.json_body
        uri = response.headers.get("Location") or document.get("uri")
        poll_headers = {k: v for k, v in (extra or {}).items() if k != "Idempotency-Key"}
        rounds = 0
        while rounds == 0 or document.get("state") not in TERMINAL:
            rounds += 1
            answer = self.client.request_raw(
                "GET", uri, query={"wait": WAIT_S},
                headers={**poll_headers, "X-Request-Id": f"{op_id}.{rounds}"})
            if answer.status != 200:
                raise CheckFailed(f"GET {uri} answered {answer.status}")
            document = answer.json_body
        if document["state"] != "DONE":
            raise CheckFailed(f"job {uri} ended {document['state']}: {document.get('error')}")
        return answer, document, submitted, response

    def op(self, op_id: str, index: int) -> OpResult:
        raise NotImplementedError

    def describe(self) -> list[str]:
        return []


class GatewaySubmit(Workload):
    """Unique inputs through the gateway: every POST misses the cache."""

    name = "gateway-submit"
    clients = 2

    def op(self, op_id: str, index: int) -> OpResult:
        x = random.Random(f"{self.seed}/{index}").getrandbits(40)
        tenant = deploy.TENANTS[index % len(deploy.TENANTS)][0]
        extra = {"X-Tenant": tenant}
        if index % 4 == 0:
            extra["Idempotency-Key"] = f"ik-{self.seed}-{index}"
        start = time.perf_counter()
        answer, document, submitted, _ = self.submit(op_id, {"x": x, "k": index}, extra)
        latency = time.perf_counter() - start
        if document["results"].get("y") != deploy.poly(x, index)["y"]:
            raise CheckFailed(f"wrong y for x={x} k={index}: {document['results']}")
        self.note(ops=1, keyed=int("Idempotency-Key" in extra))
        return OpResult(start, latency, submitted, len(answer.body))

    def describe(self) -> list[str]:
        ops = self.properties["ops"] or 1
        return [f"distinct-input share 1.0 (every input unique); "
                f"Idempotency-Key share {self.properties['keyed'] / ops:.3f}; "
                f"tenants {', '.join(name for name, _ in deploy.TENANTS)} in rotation"]


@dataclass
class Seen:
    x: int
    k: int
    job_id: str
    uri: str
    etag: str


class LocalReuse(Workload):
    """Reads and cache hits in process.

    Ops are dealt from a seeded, shuffled deck of 20: 8 conditional GETs
    with the job's current ETag (304), 1 with a stale ETag (200 with the
    body), 8 submits repeating an earlier input (cache hit) and 3 fresh
    submits (miss, run, DONE). The proportions keep the median inside the
    hit/GET mass and p90 inside the misses, not on a boundary between
    them, so both percentiles repeat across seeds.
    """

    name = "local-reuse"
    clients = 1
    DECK = ["get"] * 8 + ["stale"] + ["repeat"] * 8 + ["fresh"] * 3
    #: Repeat inputs come from the most recent fresh jobs, a working set
    #: well inside the result cache's 2048-entry capacity.
    WORKING_SET = 256

    def __init__(self, seed, registry, submit_uri):
        super().__init__(seed, registry, submit_uri)
        self.rng = random.Random(seed)
        self.seen: list[Seen] = []
        self.deck: list[str] = []

    def warmup(self, stop_at, next_index):
        while len(self.seen) < 64:
            index = next(next_index)
            self.fresh(f"w{index}", index)
        super().warmup(stop_at, next_index)

    def op(self, op_id: str, index: int) -> OpResult:
        if not self.deck:
            self.deck = list(self.DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "fresh":
            return self.fresh(op_id, index)
        entry = self.seen[self.rng.randrange(len(self.seen))]
        if kind == "repeat":
            return self.repeat(op_id, entry)
        return self.conditional(op_id, entry, stale=kind == "stale")

    def fresh(self, op_id: str, index: int) -> OpResult:
        x = self.rng.getrandbits(40)
        start = time.perf_counter()
        answer, document, submitted, created = self.submit(op_id, {"x": x, "k": index})
        latency = time.perf_counter() - start
        if created.headers.get("X-Cache") != "miss":
            raise CheckFailed(f"fresh input answered X-Cache {created.headers.get('X-Cache')}")
        if document["results"].get("y") != deploy.poly(x, index)["y"]:
            raise CheckFailed(f"wrong y for x={x} k={index}")
        etag = answer.headers.get("ETag")
        if answer.status != 200 or not etag:
            raise CheckFailed(f"GET of DONE job answered {answer.status}, ETag {etag}")
        self.seen.append(Seen(x, index, document["id"], document["uri"], etag))
        del self.seen[:-self.WORKING_SET]
        self.note(submits=1, fresh=1)
        return OpResult(start, latency, submitted, len(answer.body))

    def repeat(self, op_id: str, entry: Seen) -> OpResult:
        start = time.perf_counter()
        response = self.client.request_raw(
            "POST", self.submit_uri, body=json.dumps({"x": entry.x, "k": entry.k}).encode(),
            headers={**JSON_HEADERS, "X-Request-Id": f"{op_id}.0"})
        latency = time.perf_counter() - start
        cache = response.headers.get("X-Cache")
        if response.status != 201 or cache not in ("hit", "coalesced"):
            raise CheckFailed(f"repeat input answered {response.status} X-Cache {cache}")
        document = response.json_body
        if document["id"] != entry.job_id:
            raise CheckFailed(f"{cache} named job {document['id']}, not {entry.job_id}")
        if document["results"].get("y") != deploy.poly(entry.x, entry.k)["y"]:
            raise CheckFailed(f"cached y wrong for job {entry.job_id}")
        self.note(submits=1, reused=1)
        return OpResult(start, latency, latency, len(response.body))

    def conditional(self, op_id: str, entry: Seen, stale: bool) -> OpResult:
        sent = '"stale-etag"' if stale else entry.etag
        start = time.perf_counter()
        response = self.client.request_raw(
            "GET", entry.uri, headers={"If-None-Match": sent, "X-Request-Id": f"{op_id}.0"})
        latency = time.perf_counter() - start
        etag = response.headers.get("ETag")
        if response.status == 304:
            if etag != sent:
                raise CheckFailed(f"304 for If-None-Match {sent} but ETag {etag}")
            self.note(not_modified=1)
            return OpResult(start, latency, None, 0)
        if response.status != 200 or etag == sent:
            raise CheckFailed(f"GET with If-None-Match {sent} answered {response.status}, "
                              f"ETag {etag}")
        document = response.json_body
        if document["results"].get("y") != deploy.poly(entry.x, entry.k)["y"]:
            raise CheckFailed(f"GET of job {entry.job_id} returned wrong y")
        self.note(full_gets=1)
        return OpResult(start, latency, None, len(response.body))

    def describe(self) -> list[str]:
        submits = self.properties["submits"] or 1
        return [f"distinct-input share {self.properties['fresh'] / submits:.3f} of submits; "
                f"observed X-Cache hit share {self.properties['reused'] / submits:.3f}; "
                f"304 answers {self.properties['not_modified']}, "
                f"full GETs {self.properties['full_gets']}"]


class WorkflowHilbert(Workload):
    """Exact Hilbert inversion through the WMS. Orders are dealt from a
    seeded, shuffled deck holding each order once, so every run has the
    same mix and the median falls inside the middle order's latencies."""

    name = "workflow-hilbert"
    clients = 1
    ORDERS = (8, 10, 12)

    def __init__(self, seed, registry, submit_uri):
        super().__init__(seed, registry, submit_uri)
        self.rng = random.Random(seed)
        self.deck: list[int] = []
        self.matrices = {n: RationalMatrix.hilbert(n) for n in self.ORDERS}
        self.documents = {n: m.to_json() for n, m in self.matrices.items()}

    def op(self, op_id: str, index: int) -> OpResult:
        if not self.deck:
            self.deck = list(self.ORDERS)
            self.rng.shuffle(self.deck)
        order = self.deck.pop()
        start = time.perf_counter()
        answer, document, submitted, _ = self.submit(op_id, {"matrix": self.documents[order]})
        latency = time.perf_counter() - start
        inverse = RationalMatrix.from_json(document["results"]["inverse"])
        if not (self.matrices[order] @ inverse).is_identity():
            raise CheckFailed(f"M·M⁻¹ ≠ I at order {order}")
        self.note(**{f"order_{order}": 1})
        return OpResult(start, latency, submitted, len(answer.body))

    def describe(self) -> list[str]:
        drawn = ", ".join(f"{n}: {self.properties[f'order_{n}']}" for n in self.ORDERS)
        return [f"Hilbert orders drawn (order: count) {drawn}"]


class BlobPipeline(Workload):
    """Fresh payloads through source → transform → sink by reference.

    The expected digest of op ``i + 1``'s payload is computed on a second
    client thread while op ``i``'s workflow runs (after its POST is
    answered, so it does not compete with the POST), and generating and
    hashing 2 MiB on the client does not lengthen the closed loop; the run
    prints how long the load thread still waited for it.
    """

    name = "blob-pipeline"
    clients = 1

    def __init__(self, seed, registry, submit_uri):
        super().__init__(seed, registry, submit_uri)
        self.checker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="check")
        #: ``(op index, future of its expected (digest, size) and cost)``
        self.ahead: tuple[int, Future | None] = (-1, None)
        self.check_s = self.wait_s = 0.0

    def spec(self, index: int) -> dict:
        return {"seed": self.seed, "op": index, "chunks": deploy.BLOB_CHUNKS}

    def prepare(self, index: int) -> Future:
        def timed():
            start = time.perf_counter()
            expected = deploy.expected_digest(self.spec(index))
            return expected, time.perf_counter() - start

        return self.checker.submit(timed)

    def op(self, op_id: str, index: int) -> OpResult:
        ahead, future = self.ahead
        pending = future if ahead == index else self.prepare(index)

        def look_ahead():
            self.ahead = (index + 1, self.prepare(index + 1))

        start = time.perf_counter()
        _, document, submitted, _ = self.submit(op_id, {"spec": self.spec(index)},
                                                then=look_ahead)
        latency = time.perf_counter() - start
        (digest, size), check_s = pending.result()
        waited = time.perf_counter() - start - latency
        results = document["results"]
        if results.get("digest") != digest or results.get("size") != size:
            raise CheckFailed(f"sink saw {results}, expected {digest} / {size} bytes")
        shared = sum(1 for chunk in range(deploy.BLOB_CHUNKS)
                     if deploy.chunk_generation(self.seed, index, chunk) != index)
        self.note(ops=1, chunks=deploy.BLOB_CHUNKS, shared=shared)
        with self._lock:
            self.check_s += check_s
            self.wait_s += waited
        return OpResult(start, latency, submitted, size)

    def reset(self) -> None:
        super().reset()
        self.check_s = self.wait_s = 0.0

    def close(self) -> None:
        self.checker.shutdown(wait=True, cancel_futures=True)

    def describe(self) -> list[str]:
        ops = self.properties["ops"] or 1
        chunks = self.properties["chunks"] or 1
        return [f"payload {deploy.BLOB_CHUNKS} x {deploy.BLOB_CHUNK // 1024} KiB chunks per op; "
                f"shared-chunk share {self.properties['shared'] / chunks:.3f} "
                "(chunks equal to the previous op's)",
                f"expected digest per op: {self.check_s / ops * 1e3:.2f} ms on the check "
                f"thread, {self.wait_s / ops * 1e3:.3f} ms waited for on the load thread"]


WORKLOADS = {cls.name: cls for cls in (GatewaySubmit, LocalReuse, WorkflowHilbert, BlobPipeline)}


def run_loop(workload: Workload, seconds: float, indices, recorder=None,
             sample=None, parts: int = 1) -> LoopStats:
    """Closed loop: each of ``workload.clients`` threads sends its next
    op only after the previous one completed, until ``seconds`` pass.

    Ops started before the deadline finish and count; the window ends
    when the last one does. The calling thread, which sends no load,
    splits the window into ``parts`` equal slices and calls
    ``sample()`` at each boundary (``stats.marks``).
    """
    stats = LoopStats()
    lock = threading.Lock()

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(indices)
            op_id = f"o{index}"
            try:
                if recorder is None:
                    result = workload.op(op_id, index)
                else:
                    result = recorder.op(op_id, workload.op, op_id, index)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                with lock:
                    stats.attempted += 1
                    stats.failed += 1
                    if len(stats.errors) < 5:
                        stats.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            done = time.perf_counter()
            with lock:
                stats.attempted += 1
                stats.results.append((done, result))

    threads = [threading.Thread(target=client, name=f"load-{n}") for n in range(workload.clients)]
    stats.marks.append((time.perf_counter(), sample() if sample else None))
    start = stats.marks[0][0]
    deadline = start + seconds
    for thread in threads:
        thread.start()
    for part in range(1, parts):
        time.sleep(max(0.0, start + part * seconds / parts - time.perf_counter()))
        stats.marks.append((time.perf_counter(), sample() if sample else None))
    for thread in threads:
        thread.join()
    stats.marks.append((time.perf_counter(), sample() if sample else None))
    return stats
