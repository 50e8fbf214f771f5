"""A small JSON-aware REST client used throughout the platform.

:class:`RestClient` layers three conveniences over a transport registry:
URL joining against a base URI, JSON encoding/decoding, and converting
HTTP-level errors (4xx/5xx) into :class:`ClientError` exceptions carrying
the server's JSON error body.
"""

from __future__ import annotations

import json
import re
import time
import uuid
from typing import Any, Mapping
from urllib.parse import urlencode

from repro.http.messages import JSON_CONTENT_TYPE, Response
from repro.http.registry import TransportRegistry

#: Header marking a POST as safely replayable (gateway retries, client
#: resubmissions). Idempotent methods never need it.
IDEMPOTENCY_KEY_HEADER = "Idempotency-Key"

#: Header reporting how the platform resolved a submission against the
#: content-addressed result cache: ``hit`` (served a completed job),
#: ``coalesced`` (attached to an identical in-flight job) or ``miss``.
X_CACHE_HEADER = "X-Cache"

#: Conditional-GET headers used by polling clients (RFC 9110 §13).
ETAG_HEADER = "ETag"
IF_NONE_MATCH_HEADER = "If-None-Match"

#: Methods that may be retried without an idempotency key.
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE"})


def new_idempotency_key() -> str:
    return "ik-" + uuid.uuid4().hex[:16]


def parse_retry_after(value: "str | None") -> float | None:
    """The ``Retry-After`` header as seconds (seconds form only).

    HTTP-date form and malformed values return ``None`` — the caller then
    treats the response as non-retryable rather than guessing a delay.
    """
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class ClientError(Exception):
    """An HTTP error response received from a service."""

    def __init__(self, status: int, message: str, details: Any = None, url: str = "",
                 retry_after: float | None = None):
        super().__init__(f"{status}: {message}" + (f" ({url})" if url else ""))
        self.status = status
        self.message = message
        self.details = details
        self.url = url
        #: The response's ``Retry-After`` in seconds, when it carried one —
        #: backoff loops (the workflow engine's submit retries) honour it.
        self.retry_after = retry_after


def join_url(base: str, path: str) -> str:
    """Join ``path`` onto ``base`` without collapsing the base path.

    Unlike ``urllib.parse.urljoin``, a relative path is always appended
    below the base URI — which is what resource hierarchies need::

        >>> join_url("http://h/services/add", "jobs/1")
        'http://h/services/add/jobs/1'
    """
    if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*://", path):
        return path
    if not path:
        return base
    return base.rstrip("/") + "/" + path.lstrip("/")


class RestClient:
    """JSON request helpers over a :class:`TransportRegistry`."""

    def __init__(
        self,
        registry: TransportRegistry | None = None,
        base: str = "",
        headers: Mapping[str, str] | None = None,
        retry_after_cap: float = 5.0,
    ):
        self.registry = registry or TransportRegistry()
        self.base = base
        #: Headers attached to every request (used for credentials).
        self.default_headers: dict[str, str] = dict(headers or {})
        #: Total seconds the client may spend honouring ``Retry-After``
        #: waits on one request; ``0`` disables retrying entirely.
        self.retry_after_cap = retry_after_cap

    def with_headers(self, headers: Mapping[str, str]) -> "RestClient":
        """A copy of this client with extra default headers."""
        merged = {**self.default_headers, **headers}
        return RestClient(
            self.registry, base=self.base, headers=merged, retry_after_cap=self.retry_after_cap
        )

    def url(self, path: str, query: Mapping[str, Any] | None = None) -> str:
        absolute = join_url(self.base, path)
        if query:
            absolute += "?" + urlencode({k: str(v) for k, v in query.items()})
        return absolute

    def request_raw(
        self,
        method: str,
        path: str,
        query: Mapping[str, Any] | None = None,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        """Send a request and return the raw response, whatever its status.

        ``429``/``503`` responses advertising a seconds-form ``Retry-After``
        are retried after the advertised delay — but only for requests that
        are safe to replay (idempotent methods, or POSTs carrying an
        ``Idempotency-Key``). The total time spent waiting is bounded by
        :attr:`retry_after_cap` on a monotonic deadline.
        """
        merged = {**self.default_headers, **(headers or {})}
        url = self.url(path, query)
        response = self.registry.request(method, url, headers=merged, body=body)
        if self.retry_after_cap <= 0 or response.status not in (429, 503):
            return response
        if method.upper() not in _IDEMPOTENT_METHODS and IDEMPOTENCY_KEY_HEADER not in merged:
            return response
        deadline = time.monotonic() + self.retry_after_cap
        while response.status in (429, 503):
            delay = parse_retry_after(response.headers.get("Retry-After"))
            if delay is None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0 or delay > remaining:
                # retrying before the server said it would be ready just
                # wastes the attempt — stop rather than truncate the wait
                break
            time.sleep(delay)
            response = self.registry.request(method, url, headers=merged, body=body)
        return response

    def request_json(
        self,
        method: str,
        path: str,
        query: Mapping[str, Any] | None = None,
        payload: Any = None,
        headers: Mapping[str, str] | None = None,
    ) -> Any:
        """Send a JSON request; return the parsed JSON body.

        Raises :class:`ClientError` for 4xx/5xx responses, extracting the
        service's JSON error envelope when present.
        """
        body = b""
        merged = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            merged.setdefault("Content-Type", JSON_CONTENT_TYPE)
        response = self.request_raw(method, path, query=query, body=body, headers=merged)
        return self._decode(response, self.url(path, query))

    def get(self, path: str = "", query: Mapping[str, Any] | None = None) -> Any:
        return self.request_json("GET", path, query=query)

    def post(self, path: str = "", payload: Any = None, query: Mapping[str, Any] | None = None) -> Any:
        return self.request_json("POST", path, query=query, payload=payload)

    def put(self, path: str = "", payload: Any = None) -> Any:
        return self.request_json("PUT", path, payload=payload)

    def delete(self, path: str = "") -> Any:
        return self.request_json("DELETE", path)

    def get_conditional(
        self,
        path: str = "",
        etag: "str | None" = None,
        query: Mapping[str, Any] | None = None,
    ) -> "tuple[Any, str | None, bool]":
        """A conditional JSON GET: ``(body, etag, not_modified)``.

        With ``etag`` the request carries ``If-None-Match``; a ``304``
        answer returns ``(None, etag, True)`` and the caller keeps its
        cached representation. Poll loops use this to stop re-shipping
        identical job documents on every tick.
        """
        headers: dict[str, str] = {}
        if etag:
            headers[IF_NONE_MATCH_HEADER] = etag
        response = self.request_raw("GET", path, query=query, headers=headers)
        fresh_etag = response.headers.get(ETAG_HEADER) or etag
        if response.status == 304:
            return None, fresh_etag, True
        return self._decode(response, self.url(path, query)), fresh_etag, False

    def get_bytes(
        self,
        path: str,
        headers: Mapping[str, str] | None = None,
        max_bytes: "int | None" = None,
    ) -> bytes:
        """Fetch a binary resource (file contents); raises on error statuses.

        ``max_bytes`` caps the accepted payload: a longer body raises
        :class:`ClientError` (413) instead of handing the caller an
        arbitrarily large buffer — the guard behind bounded file-reference
        resolution.
        """
        response = self.request_raw("GET", path, headers=headers)
        if not response.ok and response.status != 206:
            self._decode(response, self.url(path))  # raises ClientError
        if max_bytes is not None and len(response.body) > max_bytes:
            raise ClientError(
                413,
                f"response body of {len(response.body)} bytes exceeds the"
                f" caller's {max_bytes}-byte limit",
                url=self.url(path),
            )
        return response.body

    @staticmethod
    def _decode(response: Response, url: str) -> Any:
        if response.status == 304:
            # Not Modified carries no body by design; conditional callers
            # (JobHandle polls) reuse their cached representation
            return None
        if response.ok:
            if not response.body:
                return None
            content_type = response.headers.get("Content-Type", "") or ""
            if "json" in content_type:
                return response.json_body
            return response.text_body
        message, details = response.text_body or "error", None
        try:
            envelope = response.json_body
            if isinstance(envelope, dict):
                message = envelope.get("error", message)
                details = envelope.get("details")
        except (ValueError, UnicodeDecodeError):
            pass
        raise ClientError(
            response.status, message, details=details, url=url,
            retry_after=parse_retry_after(response.headers.get("Retry-After")),
        )
