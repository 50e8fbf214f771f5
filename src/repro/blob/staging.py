"""Staging: pulling a remote blob into a local store chunk by chunk.

This is the consumer half of by-reference data passing. A workflow block
receives a blob *reference* (digest + the owning container's blob URL);
before the adapter runs, the consuming container stages the content into
its own blob store — fetching the manifest, then only the chunks it does
not already hold, each with a ranged GET sized to one chunk. The engine
never touches the bytes, transfers are restartable at chunk granularity,
and cross-container dedup falls out of content addressing: a chunk shared
with any previously staged blob is never fetched again.
"""

from __future__ import annotations

import json
import time

from repro.blob.store import BlobError, BlobManifest, BlobStore
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from repro.runtime.trace import span

__all__ = ["StagingError", "stage_blob"]


class StagingError(BlobError):
    """A remote blob could not be staged (recoverable: fail the job, not
    the worker)."""


def stage_blob(
    store: BlobStore,
    registry: TransportRegistry,
    uri: str,
    digest: str,
    max_bytes: "int | None" = None,
    timeout: "float | None" = None,
) -> BlobManifest:
    """Pull blob ``digest`` from ``uri`` (its resource on the owning
    container) into ``store``; returns the committed manifest.

    Already-present blobs return immediately. ``max_bytes`` caps the
    advertised size before any content moves; ``timeout`` bounds the whole
    transfer with a monotonic deadline checked between chunks (each
    individual read is additionally bounded by the transport's socket
    timeout). Commit re-verifies the full content digest, so a lying or
    corrupted producer cannot plant wrong bytes under a digest.
    """
    if store.exists(digest):
        return store.manifest(digest)
    with span("blob.stage", labels={"digest": digest[:16]}):
        return _stage_remote(store, registry, uri, digest, max_bytes, timeout)


def _stage_remote(
    store: BlobStore,
    registry: TransportRegistry,
    uri: str,
    digest: str,
    max_bytes: "int | None",
    timeout: "float | None",
) -> BlobManifest:
    deadline = None if timeout is None else time.monotonic() + timeout
    client = RestClient(registry)
    try:
        raw = client.get_bytes(f"{uri}/manifest", max_bytes=max_bytes)
        manifest = BlobManifest.from_json(json.loads(raw))
    except (ValueError, BlobError) as exc:
        raise StagingError(f"cannot fetch blob manifest from {uri!r}: {exc}") from exc
    if manifest.digest != digest:
        raise StagingError(
            f"manifest at {uri!r} describes {manifest.digest}, not the referenced {digest}"
        )
    if max_bytes is not None and manifest.size > max_bytes:
        raise StagingError(
            f"blob {digest} is {manifest.size} bytes, over the {max_bytes}-byte staging limit"
        )
    offset = 0
    for chunk_digest, size in manifest.chunks:
        start = offset
        offset += size
        if store.has_chunk(chunk_digest):
            continue  # cross-blob dedup: never re-fetch a chunk we hold
        if deadline is not None and time.monotonic() > deadline:
            raise StagingError(f"staging blob {digest} from {uri!r} exceeded its deadline")
        chunk = client.get_bytes(
            uri, headers={"Range": f"bytes={start}-{start + size - 1}"}
        )
        try:
            store.add_chunk(chunk_digest, chunk)
        except BlobError as exc:
            raise StagingError(f"bad chunk from {uri!r}: {exc}") from exc
    try:
        return store.commit_manifest(manifest)
    except BlobError as exc:
        raise StagingError(f"cannot commit staged blob {digest}: {exc}") from exc
