"""Per-layer metrics of the traced run, and why each exists.

``LAYERS`` is the record later changes cite: for each metric, the
end-to-end metric it should move and the workload where the layer does
most of its work (and where it does next to none, so the prediction
there is *no change*). ``BENCHMARK.json`` lists the same names, units
and directions; its schema has no room for the reasons, so they live
here and are printed with every traced run.

Unless a row says otherwise, a ``_us``/``_ms`` metric is the median
per call of the wrapped entry point over the measured window; a layer
absent from a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.analysis import (
    END, NAME, OP, PARENT, SID, START, TAG,
    ancestors, attribute, by_op, children_index, median, self_time, union_length,
)

GATEWAY_ROLE, WMS_ROLE, REPLICA_ROLE = "gateway", "wms", "replica"

#: name, unit, better, should move, most work / next to none
LAYERS = [
    ("client.http_requests_per_op", "count/op", "lower", "latency_p50_ms",
     "gateway-submit (long-poll rounds) / local-reuse hits"),
    ("client.request_p50_us", "us", "lower", "submit_p50_ms", "gateway-submit / -"),
    ("http.parse_us", "us", "lower", "cpu_ms_per_op",
     "gateway-submit / local-reuse (no sockets)"),
    ("http.app_handle_us", "us", "lower", "submit_p50_ms", "gateway-submit / -"),
    ("http.app_handle_us.gateway", "us", "lower", "submit_p50_ms",
     "gateway-submit / the other three"),
    ("http.app_handle_us.replica", "us", "lower", "submit_p50_ms", "local-reuse / -"),
    ("http.app_handle_us.wms", "us", "lower", "submit_p50_ms",
     "workflow-hilbert, blob-pipeline / gateway-submit, local-reuse"),
    ("http.wire_us", "us", "lower", "submit_p50_ms", "gateway-submit / local-reuse"),
    ("observability.middleware_us", "us", "lower", "cpu_ms_per_op", "every workload / -"),
    ("tenancy.gate_us", "us", "lower", "cpu_ms_per_op", "gateway-submit / the other three"),
    ("tenancy.admission_us", "us", "lower", "latency_p50_ms",
     "gateway-submit / the other three"),
    ("tenancy.charges_per_op", "count/op", "lower", "cpu_ms_per_op",
     "gateway-submit / the other three"),
    ("router.resolve_us", "us", "lower", "latency_p50_ms", "local-reuse (largest share) / -"),
    ("jsonschema.validate_us", "us", "lower", "submit_p50_ms",
     "local-reuse, gateway-submit / -"),
    ("core.representation_us", "us", "lower", "latency_p50_ms", "local-reuse (304 path) / -"),
    ("cache.fingerprint_us", "us", "lower", "submit_p50_ms", "local-reuse / workflow-hilbert"),
    ("cache.claim_us", "us", "lower", "submit_p50_ms", "local-reuse / workflow-hilbert"),
    ("cache.hit_ratio", "ratio", "higher", "ops_per_s",
     "local-reuse / gateway-submit (0 by design)"),
    ("durability.append_us", "us", "lower", "cpu_ms_per_op", "gateway-submit / local-reuse"),
    ("durability.appends_per_op", "count/op", "lower", "cpu_ms_per_op",
     "gateway-submit, blob-pipeline / local-reuse"),
    ("durability.sync_ms", "ms", "lower", "latency_p90_ms", "gateway-submit / local-reuse"),
    ("runtime.queue_wait_us", "us", "lower", "latency_p50_ms", "gateway-submit / -"),
    ("container.submit_us", "us", "lower", "submit_p50_ms",
     "gateway-submit, local-reuse / -"),
    ("container.enqueue_us", "us", "lower", "submit_p50_ms",
     "gateway-submit / local-reuse hits"),
    ("adapters.execute_ms", "ms", "lower", "ops_per_s",
     "workflow-hilbert (the useful work), blob-pipeline / gateway-submit"),
    ("gateway.self_us", "us", "lower", "submit_p50_ms", "gateway-submit / the other three"),
    ("gateway.forward_us", "us", "lower", "latency_p50_ms", "gateway-submit / the other three"),
    ("gateway.attempts_per_forward", "ratio", "lower", "ok_ratio", "gateway-submit / -"),
    ("gateway.choose_us", "us", "lower", "cpu_ms_per_op", "gateway-submit / -"),
    ("gateway.idempotency_us", "us", "lower", "submit_p50_ms", "gateway-submit / -"),
    ("workflow.run_ms", "ms", "lower", "latency_p50_ms",
     "workflow-hilbert, blob-pipeline / the other two"),
    ("workflow.block_overhead_ms", "ms", "lower", "latency_p50_ms",
     "workflow-hilbert, blob-pipeline / the other two"),
    ("workflow.requests_per_block", "count/block", "lower", "cpu_ms_per_op",
     "workflow-hilbert, blob-pipeline / the other two"),
    ("workflow.overhead_share", "ratio", "lower", "ops_per_s",
     "workflow-hilbert (the paper's C1), blob-pipeline / the other two"),
    ("blob.put_ms", "ms", "lower", "mb_per_s", "blob-pipeline / the other three"),
    ("blob.stage_ms", "ms", "lower", "mb_per_s", "blob-pipeline / -"),
    ("blob.chunk_fetch_ratio", "ratio", "lower", "mb_per_s", "blob-pipeline / -"),
    ("blob.hashed_bytes_per_byte", "ratio", "lower", "mb_per_s", "blob-pipeline / -"),
    ("trace.unattributed_share", "ratio", "lower", "- (quality of the trace)",
     "every workload / -"),
    ("trace.overhead_ratio", "ratio", "higher", "- (cost of tracing)", "every workload / -"),
]

#: Span name → layer, for blocking-path attribution. ``chain`` is the
#: continuation a middleware calls; time inside it that no deeper span
#: covers is the route handler's own work.
LAYER_OF = {
    "client.request": "client",
    "transport.request": "transport",
    "http.parse": "http.parse",
    "http.handle": "http.handle",
    "chain": "http.handler",
    "observability.middleware": "observability",
    "tenancy.gate": "tenancy.gate",
    "tenancy.offer": "tenancy.admission",
    "tenancy.take": "tenancy.admission",
    "tenancy.charge": "tenancy.charge",
    "router.resolve": "router",
    "jsonschema.validate": "jsonschema",
    "core.representation": "core.representation",
    "core.etag": "core.representation",
    "cache.fingerprint": "cache",
    "cache.claim": "cache",
    "durability.append": "durability",
    "durability.sync": "durability",
    "runtime.queue_wait": "runtime.queue_wait",
    "container.submit": "container",
    "container.enqueue": "container.enqueue",
    "adapters.execute": "adapters",
    "gateway.choose": "gateway",
    "gateway.idempotency": "gateway",
    "workflow.run": "workflow",
    "workflow.block": "workflow.block",
    "blob.put": "blob",
    "blob.stage": "blob",
    "blob.fetch": "blob",
    "hash.update": "blob.hash",
}


#: Spans inside the blob store: hashing under these is the data plane's.
BLOB_STORE_SPANS = ("blob.put", "blob.fetch", "blob.stage")

#: Layers whose self time lies between a caller and the server layers it
#: calls: wire, sockets, event-loop hand-offs (``LocalTransport``'s own
#: work in process) and whatever server work no wrapped entry point
#: covers. ``trace.unattributed_share`` counts it as unattributed, so the
#: share measures what no server layer accounts for.
WIRE_LAYERS = ("client", "transport")

#: Ops the reconciliation attributes, evenly sampled from the window: a
#: local-reuse window holds ~6x10^4 ops, and attributing each op walks its
#: spans once per span boundary.
RECONCILE_SAMPLE = 2000


def role(app_name: str) -> str:
    if app_name.startswith("gw"):
        return GATEWAY_ROLE
    if app_name.startswith("wms"):
        return WMS_ROLE
    return REPLICA_ROLE


def _us(seconds: float) -> float:
    return seconds * 1e6


class LayerReport:
    """Per-layer metrics and the reconciliation of one traced window.

    ``spans`` holds both processes' spans (see ``analysis.merge``);
    ``window`` is ``(start, end)`` on the shared clock; ``payload_bytes``
    is what the client delivered and verified in the window.
    """

    def __init__(self, spans: list, window: tuple[float, float], payload_bytes: int,
                 overhead_ratio: float):
        low, high = window
        self.ops = [span for span in spans if span[NAME] == "op" and low <= span[START] < high]
        op_ids = {span[OP] for span in self.ops}
        # per-call metrics use every span that started in the window; the
        # per-op ones only spans of ops measured in it
        self.spans = [span for span in spans if low <= span[START] < high or span[OP] in op_ids]
        self.by_id = {span[SID]: span for span in self.spans}
        self.children = children_index(self.spans)
        self.named: dict[str, list] = defaultdict(list)
        for span in self.spans:
            if low <= span[START] < high:
                self.named[span[NAME]].append(span)
        self.op_spans = {op: members for op, members in by_op(self.spans).items()
                         if op in op_ids}
        self.payload_bytes = payload_bytes
        self.overhead_ratio = overhead_ratio
        self._reconciled: dict | None = None

    # ------------------------------------------------------------ helpers

    def durations(self, name: str) -> list[float]:
        return [span[END] - span[START] for span in self.named[name]]

    def median_us(self, name: str) -> float:
        return _us(median(self.durations(name)))

    def self_us(self, name: str) -> float:
        return _us(median([self_time(span, self.children.get(span[SID], []))
                           for span in self.named[name]]))

    def per_op(self, count: float) -> float:
        return count / len(self.ops) if self.ops else 0.0

    def client_requests(self) -> list:
        return [span for span in self.named["client.request"]
                if span[PARENT] in self.by_id and self.by_id[span[PARENT]][NAME] == "op"]

    def handles(self, which: str | None = None) -> list:
        return [span for span in self.named["http.handle"]
                if which is None or role(span[TAG][0]) == which]

    def nearest(self, span, name: str):
        for ancestor in ancestors(span, self.by_id):
            if ancestor[NAME] == name:
                return ancestor
        return None

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {}
        client = self.client_requests()
        values["client.http_requests_per_op"] = self.per_op(len(client))
        values["client.request_p50_us"] = _us(median([s[END] - s[START] for s in client]))
        parsed = sum(span[TAG] for span in self.named["http.parse"])
        parse_time = sum(self.durations("http.parse"))
        values["http.parse_us"] = _us(parse_time / parsed) if parsed else 0.0
        values["http.app_handle_us"] = _us(median([s[END] - s[START] for s in self.handles()]))
        for which in (GATEWAY_ROLE, REPLICA_ROLE, WMS_ROLE):
            values[f"http.app_handle_us.{which}"] = _us(
                median([s[END] - s[START] for s in self.handles(which)]))
        values["http.wire_us"] = self._wire_us(client)
        values["observability.middleware_us"] = self.self_us("observability.middleware")
        values["tenancy.gate_us"] = self.self_us("tenancy.gate")
        values["tenancy.admission_us"] = (self.median_us("tenancy.offer")
                                          + self.median_us("tenancy.take"))
        values["tenancy.charges_per_op"] = self.per_op(len(self.named["tenancy.charge"]))
        values["router.resolve_us"] = self.median_us("router.resolve")
        values["jsonschema.validate_us"] = self.median_us("jsonschema.validate")
        values["core.representation_us"] = (self.median_us("core.representation")
                                            + self.median_us("core.etag"))
        values["cache.fingerprint_us"] = self.median_us("cache.fingerprint")
        values["cache.claim_us"] = self.median_us("cache.claim")
        claims = [span[TAG] for span in self.named["cache.claim"]]
        reused = sum(1 for kind in claims if kind in ("hit", "coalesced"))
        values["cache.hit_ratio"] = reused / len(claims) if claims else 0.0
        values["durability.append_us"] = self.median_us("durability.append")
        values["durability.appends_per_op"] = self.per_op(len(self.named["durability.append"]))
        values["durability.sync_ms"] = median(self.durations("durability.sync")) * 1e3
        values["runtime.queue_wait_us"] = self.median_us("runtime.queue_wait")
        values["container.submit_us"] = self.self_us("container.submit")
        values["container.enqueue_us"] = self.median_us("container.enqueue")
        values["adapters.execute_ms"] = median(self.durations("adapters.execute")) * 1e3
        values.update(self._gateway())
        values.update(self._workflow())
        values["blob.put_ms"] = median(self.durations("blob.put")) * 1e3
        values["blob.stage_ms"] = median(self.durations("blob.stage")) * 1e3
        referenced = sum(span[TAG] for span in self.named["blob.stage"])
        fetched = len(self.named["blob.fetch"])
        values["blob.chunk_fetch_ratio"] = fetched / referenced if referenced else 0.0
        hashed = sum(span[TAG] for span in self.named["hash.update"]
                     if any(a[NAME] in BLOB_STORE_SPANS for a in ancestors(span, self.by_id)))
        values["blob.hashed_bytes_per_byte"] = (
            hashed / self.payload_bytes if self.payload_bytes else 0.0)
        values["trace.unattributed_share"] = self.reconcile()["unattributed_share"]
        values["trace.overhead_ratio"] = self.overhead_ratio
        return values

    def _wire_us(self, client: list) -> float:
        """Client request time minus the outermost server handle time of
        the same request id (handles that parked a long-poll excluded)."""
        outermost: dict[str, tuple] = {}
        for span in self.named["http.handle"]:
            rid = span[TAG][1]
            if rid and (rid not in outermost or span[START] < outermost[rid][START]):
                outermost[rid] = span
        wires = []
        for span in client:
            handle = outermost.get(span[TAG][1])
            if handle is not None and not handle[TAG][2]:
                wires.append((span[END] - span[START]) - (handle[END] - handle[START]))
        return _us(median(wires))

    def _gateway(self) -> dict[str, float]:
        forwards: dict[int, list] = defaultdict(list)
        for span in self.named["transport.request"]:
            handle = self.nearest(span, "http.handle")
            if handle is not None and role(handle[TAG][0]) == GATEWAY_ROLE:
                forwards[handle[SID]].append(span)
        gateway_handles = self.handles(GATEWAY_ROLE)
        self_times = [
            (s[END] - s[START]) - union_length((f[START], f[END]) for f in forwards[s[SID]])
            for s in gateway_handles
        ]
        attempts = sum(len(spans) for spans in forwards.values())
        forwarded = sum(1 for spans in forwards.values() if spans)
        return {
            "gateway.self_us": _us(median(self_times)),
            "gateway.forward_us": _us(median(
                [f[END] - f[START] for spans in forwards.values() for f in spans])),
            "gateway.attempts_per_forward": attempts / forwarded if forwarded else 0.0,
            "gateway.choose_us": self.median_us("gateway.choose"),
            "gateway.idempotency_us": self.median_us("gateway.idempotency"),
        }

    def _workflow(self) -> dict[str, float]:
        runs = self.named["workflow.run"]
        overheads, requests, shares = [], [], []
        engine_requests: dict[int, int] = defaultdict(int)
        for span in self.named["client.request"]:
            run = self.nearest(span, "workflow.run")
            if run is not None:
                engine_requests[run[SID]] += 1
        for run in runs:
            blocks = [s for s in self.children.get(run[SID], [])
                      if s[NAME] == "workflow.block" and s[TAG] == "service"]
            executes = [s for s in self.op_spans.get(run[OP], []) if s[NAME] == "adapters.execute"]
            duration = run[END] - run[START]
            if blocks:
                walls = sum(s[END] - s[START] for s in blocks)
                work = sum(s[END] - s[START] for s in executes)
                overheads.append((walls - work) / len(blocks))
                requests.append(engine_requests[run[SID]] / len(blocks))
            if duration > 0:
                shares.append(1.0 - union_length((s[START], s[END]) for s in executes) / duration)
        return {
            "workflow.run_ms": median([s[END] - s[START] for s in runs]) * 1e3,
            "workflow.block_overhead_ms": median(overheads) * 1e3,
            "workflow.requests_per_block": median(requests),
            "workflow.overhead_share": median(shares),
        }

    # ------------------------------------------------------- reconciliation

    def reconcile(self) -> dict:
        """Blocking-path self time per layer, per op, beside op latency;
        the unattributed share is the part of each op's latency that no
        server-side layer covers (``WIRE_LAYERS`` self time and gaps)."""
        if self._reconciled is not None:
            return self._reconciled
        ops = self.ops
        if len(ops) > RECONCILE_SAMPLE:
            step = len(ops) / RECONCILE_SAMPLE
            ops = [ops[int(i * step)] for i in range(RECONCILE_SAMPLE)]
        per_layer: dict[str, list[float]] = defaultdict(list)
        unattributed, latencies = [], []
        for op in ops:
            latency = op[END] - op[START]
            shares = attribute(op, self.op_spans.get(op[OP], []), LAYER_OF.get)
            for layer in set(LAYER_OF.values()):
                per_layer[layer].append(shares.get(layer, 0.0))
            latencies.append(latency)
            if latency > 0:
                inside = sum(time for layer, time in shares.items() if layer not in WIRE_LAYERS)
                unattributed.append(1.0 - inside / latency)
        self._reconciled = {
            "latency_p50_us": _us(median(latencies)),
            "layers": {layer: _us(median(times)) for layer, times in per_layer.items()},
            "layer_means": {layer: _us(sum(times) / len(times))
                            for layer, times in per_layer.items() if times},
            "unattributed_share": median(unattributed),
            "ops_sampled": len(ops),
        }
        return self._reconciled

    def print_reconciliation(self, out) -> None:
        report = self.reconcile()
        print(f"reconciliation over {report['ops_sampled']} ops: "
              f"latency p50 {report['latency_p50_us']:.0f} us", file=out)
        print(f"  {'layer':24s} {'median us':>10s} {'mean us':>10s}", file=out)
        means = report["layer_means"]
        for layer in sorted(means, key=means.get, reverse=True):
            if means[layer] > 0:
                print(f"  {layer:24s} {report['layers'][layer]:10.1f} {means[layer]:10.1f}",
                      file=out)
        total = sum(means.values())
        print(f"  {'sum of layer means':24s} {'':>10s} {total:10.1f}", file=out)
        print(f"  trace.unattributed_share {report['unattributed_share']:.4f} "
              f"(gaps plus {' + '.join(WIRE_LAYERS)} self time: wire, sockets, hand-offs)",
              file=out)
