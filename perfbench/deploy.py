"""The systems under test, one builder per workload, and their services.

Both the server process (``server.py``) and the in-process
``local-reuse`` workload build their platform here, so the deployment a
workload measures is defined once. The services' outputs are pure
functions of their inputs, and the functions that compute the expected
outputs (``poly``, ``payload_pieces``, ``expected_digest``) live beside
them: the load generator checks every op against the same definition the
platform ran.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.cas.service import cas_service_config
from repro.apps.matrix import build_inversion_workflow
from repro.container import ServiceContainer
from repro.gateway.gateway import ServiceGateway
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from repro.tenancy.registry import TenantSpec
from repro.workflow.model import DataType, InputBlock, OutputBlock, ServiceBlock, Workflow
from repro.workflow.wms import WorkflowManagementService

#: Tenants the gateway-submit clients rotate through via ``X-Tenant``.
#: Weights differ so the fair-share queue has real scheduling to do; no
#: rate limit or quota is declared, so no request is ever refused.
TENANTS = (("astro", 1.0), ("bio", 2.0), ("chem", 3.0))

#: Blob chunk size the containers use (the platform default).
BLOB_CHUNK = 1024 * 1024
#: Chunks per blob-pipeline payload; half are shared with the previous op.
BLOB_CHUNKS = 2

_FLIP = bytes(255 - value for value in range(256))


# ------------------------------------------------------------------ services

def poly(x: int, k: int) -> dict[str, int]:
    """The submit workloads' service: cheap, exact, input-determined."""
    return {"y": x * x + 7 * k}


def poly_config() -> dict[str, Any]:
    return {
        "description": {
            "name": "poly",
            "inputs": {
                "x": {"schema": {"type": "integer"}},
                "k": {"schema": {"type": "integer"}},
            },
            "outputs": {"y": {"schema": {"type": "integer"}}},
        },
        "adapter": "python",
        "config": {"callable": poly},
    }


def chunk_generation(seed: int, op: int, index: int) -> int:
    """Which op first produced chunk ``index`` of op ``op``'s payload.

    Alternate chunks are new in each op, the others repeat the previous
    op's chunk at that position; the seed picks which half.
    """
    if op == 0 or (index + op + seed) % 2 == 0:
        return op
    return op - 1


def payload_pieces(spec: dict[str, Any]):
    """The payload of one blob-pipeline op, one chunk at a time."""
    seed, op = int(spec["seed"]), int(spec["op"])
    for index in range(int(spec["chunks"])):
        generation = chunk_generation(seed, op, index)
        yield random.Random(f"{seed}/{index}/{generation}").randbytes(BLOB_CHUNK)


def expected_digest(spec: dict[str, Any]) -> tuple[str, int]:
    """SHA-256 and size of the payload after the transform stage."""
    hasher = hashlib.sha256()
    size = 0
    for piece in payload_pieces(spec):
        hasher.update(piece.translate(_FLIP))
        size += len(piece)
    return hasher.hexdigest(), size


def _source(context, spec):
    return {"data": context.store_blob(payload_pieces(spec), name="payload")}


def _transform(context, data):
    flipped = (piece.translate(_FLIP) for piece in context.open_blob(data))
    return {"data": context.store_blob(flipped, name="flipped")}


def _sink(context, data):
    hasher = hashlib.sha256()
    size = 0
    for piece in context.open_blob(data):
        hasher.update(piece)
        size += len(piece)
    return {"digest": hasher.hexdigest(), "size": size}


def _stage_config(name: str, inputs: dict, outputs: dict, fn: Callable) -> dict[str, Any]:
    return {
        "description": {
            "name": name,
            "inputs": {key: {"schema": {"type": kind}} for key, kind in inputs.items()},
            "outputs": {key: {"schema": {"type": kind}} for key, kind in outputs.items()},
        },
        "adapter": "python",
        "config": {"callable": fn},
    }


# ------------------------------------------------------------------ platforms

@dataclass
class Platform:
    """A built system under test: where to send ops, and how to stop it."""

    #: URI the workload's ops POST to.
    submit_uri: str
    #: Registry that reaches the platform (used in process only).
    registry: TransportRegistry
    closers: list[Callable[[], None]] = field(default_factory=list)
    #: Blob-store stats resources of the pipeline's containers.
    blob_stats_uris: list[str] = field(default_factory=list)

    def close(self) -> None:
        for closer in reversed(self.closers):
            closer()
        self.closers.clear()


def _tenants(registry) -> None:
    for name, weight in TENANTS:
        registry.register(TenantSpec(name=name, weight=weight))


def build_gateway_submit(workdir: str) -> Platform:
    """Consistent-hash gateway over 2 TCP replicas, every feature on."""
    registry = TransportRegistry()
    platform = Platform(submit_uri="", registry=registry)
    replicas = []
    for index in range(2):
        container = ServiceContainer(
            f"replica-{index}",
            registry=registry,
            journal_dir=f"{workdir}/journal-{index}",
            journal_fsync="batch",
            cache=True,
        )
        platform.closers.append(container.shutdown)
        _tenants(container.enable_tenancy())
        container.deploy(poly_config())
        container.serve()
        replicas.append(container)
    gateway = ServiceGateway(registry=registry, name="gw", policy="consistent-hash")
    platform.closers.append(gateway.shutdown)
    _tenants(gateway.enable_tenancy())
    for index, container in enumerate(replicas):
        gateway.add_replica(container.base_uri, replica_id=f"r{index}")
    gateway.serve()
    platform.submit_uri = gateway.service_uri("poly")
    return platform


def build_local_reuse(workdir: str) -> Platform:
    """One in-process container with the result cache on; no journal,
    no tenancy, no sockets."""
    registry = TransportRegistry()
    container = ServiceContainer("local", registry=registry, cache=True)
    container.deploy(poly_config())
    return Platform(
        submit_uri=container.service_uri("poly"), registry=registry, closers=[container.shutdown]
    )


def build_workflow_hilbert(workdir: str) -> Platform:
    """The paper's 4-block Hilbert inversion published on a WMS over an
    in-process-packaged CAS container, both over TCP."""
    registry = TransportRegistry()
    platform = Platform(submit_uri="", registry=registry)
    cas = ServiceContainer("cas-host", handlers=2, registry=registry)
    platform.closers.append(cas.shutdown)
    cas.deploy(cas_service_config(name="cas", packaging="python"))
    cas.serve()
    wms = WorkflowManagementService("wms", registry=registry, max_parallel=2)
    platform.closers.append(wms.shutdown)
    wms.serve()
    workflow = build_inversion_workflow(cas.service_uri("cas"), registry)
    wms.deploy_workflow(workflow)
    platform.submit_uri = wms.service_uri(workflow.name)
    return platform


def build_blob_pipeline(workdir: str) -> Platform:
    """B1's source → transform → sink by-reference pipeline across three
    containers, published on a WMS, all over TCP."""
    registry = TransportRegistry()
    platform = Platform(submit_uri="", registry=registry)
    stages = (
        ("source", {"spec": "object"}, {"data": "object"}, _source),
        ("transform", {"data": "object"}, {"data": "object"}, _transform),
        ("sink", {"data": "object"}, {"digest": "string", "size": "integer"}, _sink),
    )
    uris = []
    for name, inputs, outputs, fn in stages:
        # journaled, so blob commits and pins go through the write-ahead log
        container = ServiceContainer(f"b1-{name}", handlers=2, registry=registry,
                                     journal_dir=f"{workdir}/journal-{name}")
        platform.closers.append(container.shutdown)
        container.deploy(_stage_config(name, inputs, outputs, fn))
        container.serve()
        uris.append(container.service_uri(name))
    wms = WorkflowManagementService("wms", registry=registry)
    platform.closers.append(wms.shutdown)
    wms.serve()
    workflow = Workflow("b1-pipeline")
    workflow.add(InputBlock("spec", type=DataType.OBJECT))
    for block_id, uri in zip(("src", "mid", "out"), uris):
        block = ServiceBlock(block_id, uri=uri)
        block.introspect(registry)
        workflow.add(block)
    workflow.connect("spec.value", "src.spec")
    workflow.connect("src.data", "mid.data")
    workflow.connect("mid.data", "out.data")
    for port in ("digest", "size"):
        workflow.add(OutputBlock(port))
        workflow.connect(f"out.{port}", f"{port}.value")
    wms.deploy_workflow(workflow)
    platform.submit_uri = wms.service_uri(workflow.name)
    platform.blob_stats_uris = [uri.rsplit("/services/", 1)[0] + "/blobs" for uri in uris]
    return platform


BUILDERS: dict[str, Callable[[str], Platform]] = {
    "gateway-submit": build_gateway_submit,
    "local-reuse": build_local_reuse,
    "workflow-hilbert": build_workflow_hilbert,
    "blob-pipeline": build_blob_pipeline,
}


def first_request(registry: TransportRegistry, submit_uri: str) -> None:
    """The request whose acceptance ends set-up: the service description."""
    response = RestClient(registry).request_raw("GET", submit_uri)
    if response.status != 200:
        raise RuntimeError(f"platform answered {response.status} to GET {submit_uri}")
