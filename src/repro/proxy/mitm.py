"""An intercepting HTTP proxy with header rewriting and URL redirection.

The paper's analyzer configures each peer with a self-signed root
certificate so its proxy can decrypt and modify TLS traffic; in this
model the proxy simply sits on the :class:`~repro.streaming.http.HttpClient`
path. Its two capabilities map one-to-one onto the attacks:

- ``spoof_domain`` rewrites ``Origin``/``Referer`` to a victim domain —
  the §IV-B domain-spoofing attack that defeats every allowlist;
- ``redirect_host`` reroutes the peer's CDN fetches to a fake CDN — the
  §IV-C pollution attack's first hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.streaming.http import HttpRequest, HttpResponse, UrlSpace, parse_url


@dataclass
class ProxiedExchange:
    """One logged request/response pair."""

    method: str
    url: str
    rewritten_url: str
    status: int
    request_headers: dict[str, str]


class MitmProxy:
    """Intercepts, rewrites, logs, and forwards HTTP exchanges."""

    def __init__(self, name: str = "mitm") -> None:
        self.name = name
        self._header_overrides: dict[str, str] = {}
        self._host_redirects: dict[str, str] = {}
        self._response_hooks: list[Callable[[HttpRequest, HttpResponse], HttpResponse]] = []
        self.log: list[ProxiedExchange] = []

    # -- configuration ---------------------------------------------------

    def set_header(self, name: str, value: str) -> None:
        """Force a header on every forwarded request."""
        self._header_overrides[name] = value

    def spoof_domain(self, victim_domain: str) -> None:
        """Impersonate a victim PDN customer (the domain-spoofing attack)."""
        origin = f"https://{victim_domain}"
        self.set_header("Origin", origin)
        self.set_header("Referer", origin + "/")

    def redirect_host(self, from_host: str, to_host: str) -> None:
        """Reroute all requests for one host to another (fake CDN hop)."""
        self._host_redirects[from_host.lower()] = to_host

    def add_response_hook(
        self, hook: Callable[[HttpRequest, HttpResponse], HttpResponse]
    ) -> None:
        """Add response hook."""
        self._response_hooks.append(hook)

    # -- the proxy hot path -------------------------------------------------

    def handle(self, request: HttpRequest, urlspace: UrlSpace) -> HttpResponse:
        """Proxy hook: rewrite, forward, and log one HTTP exchange."""
        original_url = request.url
        scheme, host, path = parse_url(request.url)
        redirect_target = self._host_redirects.get(host.lower())
        if redirect_target is not None:
            request.url = f"{scheme}://{redirect_target}{path}"
        for name, value in self._header_overrides.items():
            request.headers[name] = value
        response = urlspace.dispatch(request)
        for hook in self._response_hooks:
            response = hook(request, response)
        self.log.append(
            ProxiedExchange(
                request.method, original_url, request.url, response.status, dict(request.headers)
            )
        )
        return response
