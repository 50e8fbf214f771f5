"""Span recording for the traced run, from the benchmark's own files.

:func:`install` wraps the public entry points of each ``repro`` layer at
runtime (nothing under ``src/`` changes). Every wrapped call records one
span ``(id, parent, name, start, end, op, tag)``:

- ``start``/``end`` come from ``time.perf_counter``, which on Linux reads
  the system-wide monotonic clock, so spans from the client and the
  server process share one time base;
- ``parent`` is the span active in the calling context (a contextvar);
- ``op`` is the client op the work belongs to. The load generator puts
  ``<op>.<n>`` in each request's ``X-Request-Id``; the ``RestApp.handle``
  wrapper reads it into a contextvar, and the wrappers of
  ``ExecutorPool.submit``, ``ThreadPoolExecutor.submit`` and
  ``Thread.start`` carry that contextvar into the threads they start
  work on. Outbound requests the platform makes on an op's behalf
  (engine → container, staging) get ``<op>.s<n>`` in their
  ``X-Request-Id`` when they carry none, so the receiving server groups
  them under the same op.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them out when the
run ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

_OP: contextvars.ContextVar[str | None] = contextvars.ContextVar("perfbench_op", default=None)
_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_span", default=None)

REQUEST_ID = "X-Request-Id"


def op_of(request_id: str) -> str | None:
    """The op a request id belongs to (the part before the first dot)."""
    return request_id.split(".", 1)[0] if request_id else None


class SpanRecorder:
    """In-memory span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Span ids, and the numbers of request ids minted for outbound calls.
        self.ids = itertools.count(1)
        self.outbound = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             tag: Callable[[tuple, Any], Any] | None = None) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span named ``name``."""
        sid = next(self.ids)
        parent = _SPAN.get()
        token = _SPAN.set(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _SPAN.reset(token)
            label = None
            if tag is not None:
                try:
                    label = tag(args, result)
                except (TypeError, IndexError, AttributeError):
                    pass  # the call raised: no result to label
            self.spans.append((sid, parent, name, start, end, _OP.get(), label))

    def op(self, op_id: str, fn: Callable, *args: Any) -> Any:
        """Run one client op under ``op_id``, the root of its spans.

        The op span covers the op's measured latency when the result
        carries one (``start`` and ``latency``), so the client's own
        output check after it is not part of the op.
        """
        sid = next(self.ids)
        op_token, span_token = _OP.set(op_id), _SPAN.set(sid)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            _SPAN.reset(span_token)
            _OP.reset(op_token)
        if hasattr(result, "latency"):
            start, end = result.start, result.start + result.latency
        self.spans.append((sid, None, "op", start, end, op_id, None))
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)

    # ------------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def timed(self, owner: Any, attr: str, name: str,
              tag: Callable[[tuple, Any], Any] | None = None) -> None:
        """Wrap ``owner.attr`` so each call records a span ``name``."""
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, tag)
            return wrapper
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _carry(fn: Callable, op: str | None, parent: int | None) -> Callable:
    """``fn`` run with the given op and parent span active."""
    def carried(*args, **kwargs):
        op_token = _OP.set(op)
        span_token = _SPAN.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _SPAN.reset(span_token)
            _OP.reset(op_token)
    return carried


def install() -> SpanRecorder:
    """Patch every layer's public entry points; returns the recorder."""
    from repro.blob import staging
    from repro.blob.store import BlobStore
    from repro.cache.fingerprint import ContentHasher
    from repro.cache.store import ResultCache
    from repro.container import service as container_service
    from repro.container.adapters.base import Adapter
    from repro.container.jobmanager import JobManager
    from repro.core import api as core_api
    from repro.core.description import ServiceDescription
    from repro.core.jobs import Job
    from repro.durability.journal import Journal
    from repro.gateway.balancer import POLICIES
    from repro.gateway.idempotency import IdempotencyCache
    from repro.http.app import DeferredResponse, RestApp
    from repro.http.client import RestClient
    from repro.http.messages import RequestParser
    from repro.http.registry import TransportRegistry
    from repro.http.router import Router
    from repro.observability.instrument import ObservabilityMiddleware
    from repro.runtime.pool import ExecutorPool
    from repro.tenancy.admission import FairShareQueue
    from repro.tenancy.gate import TenantGate
    from repro.tenancy.registry import TenantRegistry
    from repro.workflow.engine import WorkflowEngine
    import repro.blob

    rec = SpanRecorder()

    def header(headers: Any) -> str:
        if headers is None or not hasattr(headers, "items"):
            return ""
        for key, value in headers.items():
            if key.lower() == "x-request-id":
                return value
        return ""

    # -- client and transport
    def client_tag(args, _result):
        client, method, headers = args[0], args[1], args[5]
        return [method, header(headers) or header(client.default_headers)]

    def make_client(original):
        def request_raw(self, method, path, query=None, body=b"", headers=None):
            return rec.call("client.request", original,
                            (self, method, path, query, body, headers), {}, client_tag)
        return request_raw
    rec.patch(RestClient, "request_raw", make_client)

    def make_transport(original):
        def request(self, method, url, headers=None, body=b""):
            op = _OP.get()
            rid = header(headers)
            if op is not None and not rid:
                rid = f"{op}.s{next(rec.outbound)}"
                headers = {**(headers or {}), REQUEST_ID: rid}
            return rec.call("transport.request", original, (self, method, url, headers, body),
                            {}, lambda _a, _r: [method, rid])
        return request
    rec.patch(TransportRegistry, "request", make_transport)

    # -- HTTP core
    def make_feed(original):
        def feed(self, data):
            start = time.perf_counter()
            parsed = original(self, data)
            end = time.perf_counter()
            rid = header(parsed[0][0].headers) if parsed else ""
            rec.spans.append((next(rec.ids), _SPAN.get(), "http.parse", start, end,
                              op_of(rid), len(parsed)))
            return parsed
        return feed
    rec.patch(RequestParser, "feed", make_feed)

    def make_handle(original):
        def handle(self, request):
            rid = request.headers.get(REQUEST_ID) or ""
            token = _OP.set(op_of(rid)) if rid else None
            deferred = [False]

            def run(app, req):
                try:
                    return original(app, req)
                except DeferredResponse:
                    deferred[0] = True
                    raise
            try:
                return rec.call("http.handle", run, (self, request), {},
                                lambda _a, _r: [self.name, rid, deferred[0]])
            finally:
                if token is not None:
                    _OP.reset(token)
        return handle
    rec.patch(RestApp, "handle", make_handle)

    def middleware(owner, name):
        def make(original):
            def call(self, request, call_next):
                def chain(req):
                    return rec.call("chain", call_next, (req,), {})
                return rec.call(name, original, (self, request, chain), {})
            return call
        rec.patch(owner, "__call__", make)
    middleware(ObservabilityMiddleware, "observability.middleware")
    middleware(TenantGate, "tenancy.gate")
    rec.timed(Router, "resolve", "router.resolve")

    # -- threads: carry the op and parent span into pool tasks
    def make_pool_submit(original):
        def submit(self, fn, *args, **kwargs):
            op, parent, queued = _OP.get(), _SPAN.get(), time.perf_counter()
            if op is None:
                # the HTTP core hands each parsed request to the pool: its
                # request id names the op before any handler has run
                for arg in args:
                    rid = header(getattr(arg, "headers", None))
                    if rid:
                        op = op_of(rid)
                        break

            def task():
                started = time.perf_counter()
                rec.spans.append((next(rec.ids), parent, "runtime.queue_wait", queued, started,
                                  op, self.name))
                return _carry(fn, op, parent)(*args, **kwargs)
            return original(self, task)
        return submit
    rec.patch(ExecutorPool, "submit", make_pool_submit)

    def make_executor_submit(original):
        def submit(self, fn, /, *args, **kwargs):
            return original(self, _carry(fn, _OP.get(), _SPAN.get()), *args, **kwargs)
        return submit
    rec.patch(ThreadPoolExecutor, "submit", make_executor_submit)

    def make_thread_start(original):
        def start(self):
            op, parent = _OP.get(), _SPAN.get()
            if op is not None:
                self.run = _carry(self.run, op, parent)
            return original(self)
        return start
    rec.patch(threading.Thread, "start", make_thread_start)

    # -- service layers
    rec.timed(ServiceDescription, "validate_inputs", "jsonschema.validate")
    rec.timed(Job, "representation", "core.representation")
    rec.timed(core_api, "representation_etag", "core.etag")
    rec.timed(container_service, "job_fingerprint", "cache.fingerprint")
    rec.timed(ResultCache, "claim", "cache.claim", lambda _a, result: result[0])
    rec.timed(Journal, "append", "durability.append")
    rec.timed(Journal, "sync", "durability.sync")
    # batch mode fsyncs on the journal's group-commit thread, which calls
    # os.fsync directly; the journal is the only caller in these platforms
    rec.timed(os, "fsync", "durability.sync")
    rec.timed(container_service.DeployedService, "submit", "container.submit")
    rec.timed(JobManager, "enqueue", "container.enqueue")
    rec.timed(FairShareQueue, "offer", "tenancy.offer")
    rec.timed(FairShareQueue, "take", "tenancy.take")
    rec.timed(TenantRegistry, "charge", "tenancy.charge")
    for adapter in _subclasses(Adapter):
        if "execute" in vars(adapter):
            rec.timed(adapter, "execute", "adapters.execute",
                      lambda _a, _r, kind=adapter.__name__: kind)

    # -- gateway
    for policy in set(POLICIES.values()):
        if "choose" in vars(policy):
            rec.timed(policy, "choose", "gateway.choose")
    rec.timed(IdempotencyCache, "reserve", "gateway.idempotency")
    rec.timed(IdempotencyCache, "put", "gateway.idempotency")

    # -- workflow: the run, and each block's RUNNING → terminal wall time
    def make_execute(original):
        def execute(self, workflow, inputs=None, observer=None, *args, **kwargs):
            kinds = {block_id: block.kind for block_id, block in workflow.blocks.items()}
            started: dict[str, float] = {}
            run_id = [None]

            def observe(block_id, state, error):
                now = time.perf_counter()
                if state.value == "RUNNING":
                    started[block_id] = now
                elif block_id in started:
                    rec.spans.append((next(rec.ids), run_id[0], "workflow.block",
                                      started.pop(block_id), now, _OP.get(), kinds[block_id]))
                if observer is not None:
                    observer(block_id, state, error)

            def run(engine, *call_args):
                run_id[0] = _SPAN.get()
                return original(engine, *call_args, **kwargs)
            return rec.call("workflow.run", run, (self, workflow, inputs, observe, *args), {})
        return execute
    rec.patch(WorkflowEngine, "execute", make_execute)

    # -- blob data plane
    rec.timed(BlobStore, "put_bytes", "blob.put")
    rec.timed(BlobStore, "commit_manifest", "blob.put")
    rec.timed(BlobStore, "add_chunk", "blob.fetch")
    for owner in (staging, repro.blob):
        rec.timed(owner, "stage_blob", "blob.stage", lambda _a, manifest: len(manifest.chunks))
    rec.timed(ContentHasher, "update", "hash.update", lambda args, _r: len(args[1]))
    return rec


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
