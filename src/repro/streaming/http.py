"""A compact HTTP model for the control plane.

Video manifests, segments, PDN signaling bootstraps, and web pages all
travel over HTTP(S) in the real system. Here HTTP exchanges are
synchronous calls routed through a :class:`UrlSpace` (DNS + TCP in one),
with byte accounting on both ends. What matters for the paper is not
packet-level HTTP realism but (a) who talks to whom, (b) the headers —
``Origin``/``Referer`` drive the free-riding authentication story — and
(c) how many bytes each party pays for; all three are modeled exactly.

An :class:`HttpClient` can be pointed at an intercepting proxy
(:mod:`repro.proxy.mitm`), which is how the paper's analyzer rewrites
headers and redirects CDN fetches to a fake CDN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.util.errors import HttpError, NetworkError


def parse_url(url: str) -> tuple[str, str, str]:
    """Split a URL into (scheme, host, path+query).

    >>> parse_url("https://cdn.test.com/vod/clip/seg-1.ts")
    ('https', 'cdn.test.com', '/vod/clip/seg-1.ts')
    """
    if "://" not in url:
        raise NetworkError(f"malformed url: {url!r}")
    scheme, rest = url.split("://", 1)
    if "/" in rest:
        host, path = rest.split("/", 1)
        path = "/" + path
    else:
        host, path = rest, "/"
    if not host:
        raise NetworkError(f"malformed url: {url!r}")
    return scheme, host, path


@dataclass
class HttpRequest:
    """One HTTP request. ``client_ip`` is the connecting address a server sees."""

    method: str
    url: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    client_ip: str = "0.0.0.0"

    @property
    def host(self) -> str:
        """The host name the URL targets, as name resolution sees it."""
        return parse_url(self.url)[1]

    @property
    def path(self) -> str:
        """The URL's path and query, ``/`` when the URL names only a host."""
        return parse_url(self.url)[2]

    def header(self, name: str, default: str | None = None) -> str | None:
        """The value of header ``name``, matched case-insensitively, else ``default``."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclass
class HttpResponse:
    """One HTTP response: status code, body bytes and headers."""

    status: int
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True for a 2xx status."""
        return 200 <= self.status < 300

    def raise_for_status(self) -> "HttpResponse":
        """Return this response if it is 2xx; raise :class:`HttpError` otherwise."""
        if not self.ok:
            raise HttpError(self.status, f"HTTP {self.status} for response")
        return self


class HttpServer(Protocol):
    """Anything that answers HTTP requests."""

    def handle_request(self, request: HttpRequest) -> HttpResponse:  # pragma: no cover
        """Serve one HTTP request."""
        ...


class UrlSpace:
    """The name space of reachable HTTP servers (DNS analog)."""

    def __init__(self) -> None:
        self._servers: dict[str, HttpServer] = {}
        # Interceptors run before name resolution; the first to return a
        # response wins. The fault injector uses this to 503 requests
        # into an outage window (repro.net.faults.ServiceOutage).
        self._interceptors: list = []

    def add_interceptor(self, interceptor) -> None:
        """Register ``interceptor(request) -> HttpResponse | None``."""
        self._interceptors.append(interceptor)

    def register(self, hostname: str, server: HttpServer) -> None:
        """Serve ``hostname`` (case-insensitive) by ``server``, replacing any earlier one."""
        self._servers[hostname.lower()] = server

    def unregister(self, hostname: str) -> None:
        """Stop serving ``hostname``; a name that was never registered is ignored."""
        self._servers.pop(hostname.lower(), None)

    def resolve(self, hostname: str) -> HttpServer | None:
        """The server registered for ``hostname``, or None if the name is unknown."""
        return self._servers.get(hostname.lower())

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request: interceptors first, then the named server."""
        for interceptor in self._interceptors:
            response = interceptor(request)
            if response is not None:
                return response
        server = self.resolve(request.host)
        if server is None:
            return HttpResponse(502, b"bad gateway: unknown host " + request.host.encode())
        return server.handle_request(request)


class HttpClient:
    """An HTTP client bound to a client identity (IP), optionally proxied.

    The proxy, when set, receives every request *before* name resolution
    — mirroring how the analyzer's peers are configured with a proxy
    client that hands all traffic to the control panel's proxy server.
    """

    def __init__(self, urlspace: UrlSpace, client_ip: str = "0.0.0.0", proxy=None) -> None:
        self.urlspace = urlspace
        self.client_ip = client_ip
        self.proxy = proxy
        self.requests_made = 0
        self.bytes_downloaded = 0
        self.bytes_uploaded = 0

    def request(
        self,
        method: str,
        url: str,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> HttpResponse:
        """Send one request as this client and account its bytes both ways.

        The proxy, when set, sees the request before name resolution.
        An unknown host yields a 502 response rather than an error.
        """
        request = HttpRequest(method, url, dict(headers or {}), body, self.client_ip)
        self.requests_made += 1
        self.bytes_uploaded += len(body)
        if self.proxy is not None:
            response = self.proxy.handle(request, self.urlspace)
        else:
            response = self.urlspace.dispatch(request)
        self.bytes_downloaded += len(response.body)
        return response

    def get(self, url: str, headers: dict[str, str] | None = None) -> HttpResponse:
        """Send a GET for ``url``."""
        return self.request("GET", url, headers)

    def post(self, url: str, body: bytes, headers: dict[str, str] | None = None) -> HttpResponse:
        """Send a POST of ``body`` to ``url``."""
        return self.request("POST", url, headers, body)
