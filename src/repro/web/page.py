"""Web pages and websites with PDN embeds.

A :class:`Website` is an HTTP server whose pages carry exactly the
artifacts the paper's detector keys on:

- an external script tag matching the provider's SDK URL pattern
  (``api.peer5.com/peer5.js?id=...``);
- an inline API key — in the clear for most customers, or obfuscated
  (``_0x101f38[...]``) for the ones whose keys the paper could not
  extract by regex;
- for private services, inline WebRTC code referencing the platform's
  own signaling domain (Table IV);
- load *conditions* (geolocation gates, subscription walls) that explain
  why dynamic analysis confirms only a subset of potential customers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.streaming.http import HttpRequest, HttpResponse


class LoadCondition(enum.Enum):
    """Preconditions a customer sets before loading the PDN service."""

    ALWAYS = "always"
    GEO = "geo"  # only load for viewers in a given country (e.g. Douyu: CN)
    SUBSCRIPTION = "subscription"  # behind a paywall; dynamic analysis can't reach it
    DEEP_SUBPAGE = "deep_subpage"  # only on pages deeper than the crawl limit


@dataclass
class PdnEmbed:
    """The PDN integration carried by a page."""

    provider: object  # PdnProvider
    credential: str  # static API key (public) or customer id (private)
    video_url: str
    obfuscated: bool = False
    load_condition: LoadCondition = LoadCondition.ALWAYS
    geo_country: str = "CN"
    relay_only: bool = False  # xhamsterlive/stripchat-style TURN relaying
    token_issuer: object | None = None  # §V-A defense: TokenIssuer at the backend
    # Microsoft-eCDN-style integrations deliver the credential through
    # enterprise configuration; nothing key-like ever reaches the page.
    credential_in_page: bool = True

    @property
    def profile(self):
        """Profile."""
        return self.provider.profile

    def loads_for(self, viewer_country: str, subscribed: bool = False) -> bool:
        """Would this page actually start the PDN for this viewer?"""
        if self.load_condition is LoadCondition.ALWAYS:
            return True
        if self.load_condition is LoadCondition.GEO:
            return viewer_country == self.geo_country
        if self.load_condition is LoadCondition.SUBSCRIPTION:
            return subscribed
        return False  # DEEP_SUBPAGE embeds only live on deep pages


@dataclass
class WebPage:
    """One page of a website."""

    path: str
    title: str = ""
    has_video: bool = False
    links: list[str] = field(default_factory=list)  # same-site subpage paths
    embed: PdnEmbed | None = None
    video_url: str | None = None  # for plain (no-PDN) playback
    extra_html: str = ""

    def render(self, domain: str) -> str:
        """The HTML the server returns (what the crawler fingerprints)."""
        parts = [
            "<!DOCTYPE html>",
            f"<html><head><title>{self.title or domain}</title></head><body>",
        ]
        if self.has_video:
            parts.append('<video id="player" controls></video>')
        if self.embed is not None:
            parts.append(self._render_embed())
        for link in self.links:
            parts.append(f'<a href="{link}">{link}</a>')
        if self.extra_html:
            parts.append(self.extra_html)
        parts.append("</body></html>")
        return "\n".join(parts)

    def _render_embed(self) -> str:
        embed = self.embed
        assert embed is not None
        profile = embed.profile
        if not embed.credential_in_page:
            # The SDK loads from a fixed URL; the tenant credential comes
            # from enterprise configuration, never from page source.
            sdk_base = profile.sdk_url_pattern.format(key="").rstrip("=/")
            return (
                f'<script src="{sdk_base}"></script>\n'
                f"<script>startPlayer('{embed.video_url}');</script>"
            )
        if profile.is_private:
            # Private services: first-party player code invoking WebRTC
            # against the platform's own signaling domain.
            return (
                "<script>\n"
                "var pc = new RTCPeerConnection({iceServers:[]});\n"
                f"var signal = new WebSocket('wss://{profile.signaling_host}/ws');\n"
                f"player.load('{embed.video_url}');\n"
                "</script>"
            )
        if embed.obfuscated:
            # The key never appears contiguously: it is chunked, reversed,
            # and the SDK script is loaded dynamically — the URL-pattern
            # signature still matches, but regex key extraction fails
            # (the paper's `_0x101f38[_0x2c4aeb(0x234)]` cases).
            chunks = "','".join(
                reversed([embed.credential[i : i + 4] for i in range(0, len(embed.credential), 4)])
            )
            sdk_base = profile.sdk_url_pattern.format(key="")
            return (
                "<script>\n"
                f"var _0x101f38=['{chunks}'];\n"
                "var _0x2c4aeb=function(i){return _0x101f38.slice().reverse().join('');};\n"
                "var _s=document.createElement('script');\n"
                f"_s.src='{sdk_base}'+_0x2c4aeb(0x234);\n"
                "document.head.appendChild(_s);\n"
                f"startPlayer('{embed.video_url}');\n"
                "</script>"
            )
        sdk_url = profile.sdk_url(embed.credential)
        return (
            f'<script src="{sdk_url}"></script>\n'
            f"<script>var pdnApiKey = '{embed.credential}';\n"
            f"startPlayer('{embed.video_url}');</script>"
        )


@dataclass
class Website:
    """A whole site: domain, ranking metadata, and its pages."""

    domain: str
    rank: int = 10**9
    category: str = "general"
    monthly_visits: int | None = None
    pages: dict[str, WebPage] = field(default_factory=dict)

    def add_page(self, page: WebPage) -> WebPage:
        """Add page."""
        self.pages[page.path] = page
        return page

    def page(self, path: str) -> WebPage | None:
        """Page."""
        return self.pages.get(path if path.startswith("/") else "/" + path)

    @property
    def landing(self) -> WebPage | None:
        """Landing."""
        return self.pages.get("/")

    def pdn_pages(self) -> list[WebPage]:
        """Pdn pages."""
        return [p for p in self.pages.values() if p.embed is not None]

    # -- HTTP -------------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one HTTP request."""
        page = self.page(request.path)
        if page is None:
            return HttpResponse(404, b"not found")
        return HttpResponse(
            200, page.render(self.domain).encode(), {"content-type": "text/html"}
        )

    def issue_viewer_credential(self, page: WebPage) -> str | None:
        """What a real viewer's browser ends up holding.

        Public providers: the static API key straight from the page.
        Private services: the site backend mints a session token on page
        load (bound to the video URL iff the platform does that).
        """
        if page.embed is None:
            return None
        if page.embed.token_issuer is not None:
            # §V-A defense: the backend mints a fresh disposable token
            # bound to this page's video manifests.
            return page.embed.token_issuer.issue([page.embed.video_url])
        if page.embed.profile.is_private:
            return page.embed.provider.issue_session_token(
                self.domain, page.embed.video_url
            )
        return page.embed.credential
