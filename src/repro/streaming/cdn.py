"""Origin and CDN edge servers.

The paper's controlled experiments run a Wowza origin on EC2 fronted by
CloudFront; :class:`OriginServer` and :class:`CdnEdge` are those two
boxes. The edge caches segment bodies and accounts the bytes it serves
(the CDN bill a PDN exists to reduce), which the Fig. 4/5 and defense
benchmarks read back.

URL layout served by the origin/edge::

    /vod/<video_id>/playlist.m3u8      VOD playlist (ENDLIST)
    /vod/<video_id>/seg-<i>.ts         VOD segment
    /live/<channel>/playlist.m3u8      live sliding-window playlist
    /live/<channel>/seg-<i>.ts         live segment
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.clock import EventLoop
from repro.streaming.hls import VariantEntry, generate_master_playlist, generate_media_playlist
from repro.streaming.http import HttpRequest, HttpResponse
from repro.streaming.video import VideoSource


@dataclass
class LiveChannel:
    """A live stream: segments become available as wall-clock advances."""

    video: VideoSource
    window: int = 5
    started_at: float = 0.0
    loop_forever: bool = True  # keep cycling segments so a channel never ends

    def available_range(self, now: float) -> tuple[int, int]:
        """(first_index, last_index_exclusive) of the current live window."""
        elapsed = max(0.0, now - self.started_at)
        produced = int(elapsed / self.video.segment_duration) + 1
        if not self.loop_forever:
            produced = min(produced, len(self.video.segments))
        first = max(0, produced - self.window)
        return first, produced

    def segment_for(self, index: int) -> bytes | None:
        """The body of live segment ``index``, or None if there is none.

        A looping channel cycles through its source segments, so any
        index has a body.
        """
        total = len(self.video.segments)
        if total == 0:
            return None
        if self.loop_forever:
            return self.video.segments[index % total].data
        seg = self.video.segment(index)
        return seg.data if seg else None

    def playlist(self, now: float) -> str:
        """The live media playlist for the window available at ``now``."""
        first, end = self.available_range(now)
        if self.loop_forever:
            # Render the window by cycling through the source segments.
            lines = [
                "#EXTM3U",
                "#EXT-X-VERSION:3",
                f"#EXT-X-TARGETDURATION:{int(round(self.video.segment_duration))}",
                f"#EXT-X-MEDIA-SEQUENCE:{first}",
            ]
            for index in range(first, end):
                duration = self.video.segments[index % len(self.video.segments)].duration
                lines.append(f"#EXTINF:{duration:.3f},")
                lines.append(f"seg-{index}.ts")
            return "\n".join(lines) + "\n"
        return generate_media_playlist(self.video, first_index=first, window=end - first, endlist=False)


class OriginServer:
    """The streaming origin (Wowza analog)."""

    def __init__(self, loop: EventLoop, hostname: str = "origin.test.com") -> None:
        self.loop = loop
        self.hostname = hostname
        self._vod: dict[str, VideoSource] = {}
        self._live: dict[str, LiveChannel] = {}
        self._extra_files: dict[tuple[str, str], bytes] = {}
        self.requests_served = 0
        self.bytes_served = 0

    def add_vod(self, video: VideoSource) -> None:
        """Publish ``video`` under ``/vod/<video_id>/``."""
        self._vod[video.video_id] = video

    def add_extra_file(self, video_id: str, filename: str, body: bytes) -> None:
        """Publish a sidecar object next to a video (e.g. an integrity
        manifest for the hash-based pollution defenses)."""
        self._extra_files[(video_id, filename)] = body

    def add_vod_renditions(self, video_id: str, renditions: dict[str, VideoSource]) -> None:
        """Publish a multi-bitrate VOD: a master playlist plus one media
        playlist (and segment set) per rendition."""
        variants = []
        for name, video in sorted(renditions.items(), key=lambda kv: kv[1].total_bytes):
            self._vod[f"{video_id}/{name}"] = video
            bits_per_second = int(video.total_bytes * 8 / max(1.0, video.duration))
            variants.append(VariantEntry(f"{name}/playlist.m3u8", bits_per_second, name))
        self.add_extra_file(video_id, "master.m3u8", generate_master_playlist(variants).encode())

    def add_live(self, channel_id: str, video: VideoSource, window: int = 5) -> LiveChannel:
        """Start a live channel from ``video`` now, with a ``window``-segment playlist."""
        channel = LiveChannel(video, window=window, started_at=self.loop.now)
        self._live[channel_id] = channel
        return channel

    def vod(self, video_id: str) -> VideoSource | None:
        """The VOD published as ``video_id``, or None."""
        return self._vod.get(video_id)

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one HTTP request."""
        self.requests_served += 1
        parts = [p for p in request.path.split("/") if p]
        if len(parts) == 4 and parts[0] == "vod":
            # multi-bitrate layout: /vod/<id>/<rendition>/<file>
            kind, content_id, filename = parts[0], f"{parts[1]}/{parts[2]}", parts[3]
        elif len(parts) == 3:
            kind, content_id, filename = parts
        else:
            return HttpResponse(404, b"not found")
        if kind == "vod":
            body = self._serve_vod(content_id, filename)
        elif kind == "live":
            body = self._serve_live(content_id, filename)
        else:
            body = None
        if body is None:
            return HttpResponse(404, b"not found")
        self.bytes_served += len(body)
        return HttpResponse(200, body)

    def _serve_vod(self, video_id: str, filename: str) -> bytes | None:
        extra = self._extra_files.get((video_id, filename))
        if extra is not None:
            return extra
        video = self._vod.get(video_id)
        if video is None:
            return None
        if filename == "playlist.m3u8":
            return generate_media_playlist(video).encode()
        if filename.startswith("seg-") and filename.endswith(".ts"):
            index = _parse_segment_index(filename)
            segment = video.segment(index) if index is not None else None
            return segment.data if segment else None
        return None

    def _serve_live(self, channel_id: str, filename: str) -> bytes | None:
        channel = self._live.get(channel_id)
        if channel is None:
            return None
        if filename == "playlist.m3u8":
            return channel.playlist(self.loop.now).encode()
        if filename.startswith("seg-") and filename.endswith(".ts"):
            index = _parse_segment_index(filename)
            return channel.segment_for(index) if index is not None else None
        return None


def _parse_segment_index(filename: str) -> int | None:
    stem = filename[len("seg-") : -len(".ts")]
    return int(stem) if stem.isdigit() else None


class CdnEdge:
    """A caching CDN edge (CloudFront analog) with byte billing."""

    def __init__(
        self,
        origin: OriginServer,
        hostname: str = "cdn.test.com",
        price_per_gb: float = 0.085,
        cacheable_suffixes: tuple[str, ...] = (".ts",),
    ) -> None:
        self.origin = origin
        self.hostname = hostname
        self.price_per_gb = price_per_gb
        self.cacheable_suffixes = cacheable_suffixes
        self._cache: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.requests_served = 0
        self._fail_requests_remaining = 0  # fault injection

    def inject_failures(self, count: int) -> None:
        """Make the next ``count`` requests fail with 503 (edge outage)."""
        self._fail_requests_remaining = count

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one HTTP request."""
        self.requests_served += 1
        if self._fail_requests_remaining > 0:
            self._fail_requests_remaining -= 1
            return HttpResponse(503, b"edge outage (injected)")
        path = request.path
        cacheable = path.endswith(self.cacheable_suffixes)
        if cacheable and path in self._cache:
            self.hits += 1
            body = self._cache[path]
            self.bytes_served += len(body)
            return HttpResponse(200, body, headers={"x-cache": "hit"})
        origin_request = HttpRequest(
            request.method,
            f"https://{self.origin.hostname}{path}",
            dict(request.headers),
            request.body,
            request.client_ip,
        )
        response = self.origin.handle_request(origin_request)
        if response.ok and cacheable:
            self._cache[path] = response.body
        if cacheable:
            self.misses += 1
        if response.ok:
            self.bytes_served += len(response.body)
        response.headers["x-cache"] = "miss"
        return response

    @property
    def traffic_cost(self) -> float:
        """Dollar cost of bytes served so far."""
        return self.bytes_served / 1e9 * self.price_per_gb

    def purge(self) -> None:
        """Drop every cached body, so the next request for each goes to the origin."""
        self._cache.clear()


def vod_playlist_url(cdn_host: str, video_id: str) -> str:
    """The URL of ``video_id``'s VOD playlist on ``cdn_host``."""
    return f"https://{cdn_host}/vod/{video_id}/playlist.m3u8"


def live_playlist_url(cdn_host: str, channel_id: str) -> str:
    """The URL of ``channel_id``'s live playlist on ``cdn_host``."""
    return f"https://{cdn_host}/live/{channel_id}/playlist.m3u8"
