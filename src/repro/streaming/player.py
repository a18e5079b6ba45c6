"""A buffered HLS player with a pluggable segment loader.

The loader abstraction is the seam the whole study hinges on: a plain
:class:`CdnLoader` fetches everything over HTTP, while the PDN SDK
(:mod:`repro.pdn.sdk`) substitutes a hybrid loader that serves part of
the traffic from peers. The player itself is oblivious — just like real
video elements fed by MSE — and simply records what it *played*, which
is how the pollution experiments detect that altered bytes reached the
screen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.net.clock import EventLoop
from repro.streaming.hls import (
    is_master_playlist,
    parse_master_playlist,
    parse_media_playlist,
)
from repro.streaming.http import HttpClient
from repro.util.errors import ConfigurationError

#: ``on_done`` of :meth:`SegmentLoader.fetch_segment`: ``(data, source, digest)``.
SegmentCallback = Callable[[bytes | None, str, str | None], None]


class SegmentLoader(Protocol):
    """Fetches playlists and segments on behalf of a player."""

    def fetch_playlist(self, url: str, on_done: Callable[[str | None], None]) -> None:
        """Fetch the playlist at ``url``; ``on_done`` gets its text, or None on failure."""
        ...  # pragma: no cover

    def fetch_segment(self, base_url: str, uri: str, index: int, on_done: SegmentCallback) -> None:
        """Fetch segment ``index`` from ``base_url + uri``.

        Calls ``on_done(data, source, digest)`` once: ``source`` names
        where the bytes came from (``"cdn"``, ``"p2p"`` or ``"cache"``)
        and ``digest`` is the SHA-256 hex digest of exactly ``data``,
        computed once by the loader where the bytes arrived. A failed
        fetch passes ``(None, source, None)``.
        """
        ...  # pragma: no cover


class CdnLoader:
    """The no-PDN baseline: every byte comes from the CDN over HTTP."""

    def __init__(self, http: HttpClient) -> None:
        self.http = http

    def fetch_playlist(self, url: str, on_done: Callable[[str | None], None]) -> None:
        """GET the playlist from the CDN."""
        response = self.http.get(url)
        on_done(response.body.decode() if response.ok else None)

    def fetch_segment(self, base_url: str, uri: str, index: int, on_done: SegmentCallback) -> None:
        """GET the segment from the CDN and hash the body once."""
        response = self.http.get(base_url + uri)
        if not response.ok:
            on_done(None, "cdn", None)
            return
        on_done(response.body, "cdn", hashlib.sha256(response.body).hexdigest())


@dataclass
class PlayedSegment:
    """One segment that reached the screen: its index, the SHA-256 hex
    digest of the bytes the loader delivered for it, where they came from,
    and the simulated time it played."""

    index: int
    digest: str
    source: str  # "cdn" or "p2p"
    at: float


@dataclass
class PlayerStats:
    """What one player played, stalled on, skipped and downloaded."""

    played: list[PlayedSegment] = field(default_factory=list)
    stalls: int = 0
    stall_time: float = 0.0
    seeks: int = 0
    segments_skipped: int = 0
    bytes_from_cdn: int = 0
    bytes_from_p2p: int = 0

    @property
    def p2p_ratio(self) -> float:
        """Share of downloaded segment bytes that came from peers."""
        total = self.bytes_from_cdn + self.bytes_from_p2p
        return self.bytes_from_p2p / total if total else 0.0

    def played_digests(self) -> list[str]:
        """SHA-256 digests of every segment this peer played."""
        return [p.digest for p in self.played]


class VideoPlayer:
    """Plays one HLS stream, VOD or live."""

    def __init__(
        self,
        loop: EventLoop,
        loader: SegmentLoader,
        playlist_url: str,
        buffer_target: int = 3,
        max_segments: int | None = None,
        name: str = "player",
    ) -> None:
        if buffer_target < 1:
            raise ConfigurationError("buffer_target must be >= 1")
        if "/" not in playlist_url:
            raise ConfigurationError(f"bad playlist url {playlist_url!r}")
        self.loop = loop
        self.loader = loader
        self.playlist_url = playlist_url
        self.base_url = playlist_url.rsplit("/", 1)[0] + "/"
        self.buffer_target = buffer_target
        self.max_segments = max_segments
        self.name = name

        self.stats = PlayerStats()
        self.on_finished: Callable[[], None] | None = None
        self.finished = False
        self.started = False
        self.live = False
        # Adaptive bitrate: populated when the URL points at a master
        # playlist. Start at the lowest rendition, move up after a run of
        # smooth segments, drop a level on a stall.
        self._variants: list = []
        self._level = 0
        self._smooth_run = 0
        self.abr_upgrade_after = 4
        self.rendition_switches: list[tuple[float, str]] = []
        self._entries: dict[int, str] = {}  # absolute index -> uri
        self._durations: dict[int, float] = {}  # absolute index -> seconds
        self._end_index: int | None = None  # exclusive, known for VOD
        self._buffer: dict[int, tuple[str, str]] = {}  # index -> (digest, source)
        self._inflight: set[int] = set()
        self._fetch_retries: dict[int, int] = {}
        self._skipped: set[int] = set()
        self.max_fetch_retries = 5
        self._next_fetch = 0
        self._play_index = 0
        self._playing = False
        self._stall_started: float | None = None
        self._stopped = False
        self._refresh_timer = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start this component."""
        if self.started:
            return
        self.started = True
        self._refresh_playlist()

    def stop(self) -> None:
        """Stop this component."""
        self._stopped = True
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()

    # -- playlist handling -----------------------------------------------------

    def _refresh_playlist(self) -> None:
        if self._stopped:
            return
        self.loader.fetch_playlist(self.playlist_url, self._on_playlist)

    def _on_playlist(self, text: str | None) -> None:
        if self._stopped or text is None:
            return
        if is_master_playlist(text):
            master = parse_master_playlist(text)
            self._variants = sorted(master.variants, key=lambda v: v.bandwidth)
            self._apply_level(0)
            return
        playlist = parse_media_playlist(text)
        self.live = playlist.is_live
        for offset, entry in enumerate(playlist.entries):
            index = playlist.media_sequence + offset
            self._entries.setdefault(index, entry.uri)
            self._durations.setdefault(index, entry.duration)
        if not self.started or self._next_fetch < playlist.media_sequence:
            # joining a live stream: start at the window's edge
            self._next_fetch = max(self._next_fetch, playlist.media_sequence)
            self._play_index = max(self._play_index, playlist.media_sequence)
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()  # a rendition switch may race a pending refresh
        if playlist.endlist:
            self._end_index = playlist.media_sequence + len(playlist.entries)
        else:
            # Real players jitter their refresh timers; without this,
            # co-watching live viewers phase-align and race every new
            # segment straight to the CDN. The offset is deterministic
            # per player name so runs stay reproducible.
            jitter = 0.8 + (int(hashlib.sha256(self.name.encode()).hexdigest()[:4], 16) % 100) / 250.0
            self._refresh_timer = self.loop.schedule(
                playlist.target_duration / 2 * jitter, self._refresh_playlist
            )
        self._fill_buffer()

    # -- adaptive bitrate ------------------------------------------------------

    @property
    def current_rendition(self) -> str | None:
        """Name (or URI) of the rendition being fetched; None without a master playlist."""
        if not self._variants:
            return None
        return self._variants[self._level].name or self._variants[self._level].uri

    def _apply_level(self, level: int) -> None:
        """Point playlist/base URLs at the chosen rendition and (re)load.

        Renditions share segment naming and timing, so already-buffered
        segments stay valid; only future fetches use the new base URL.
        """
        self._level = max(0, min(level, len(self._variants) - 1))
        variant = self._variants[self._level]
        if not self.rendition_switches:
            self._master_base = self.playlist_url.rsplit("/", 1)[0] + "/"
        self.playlist_url = self._master_base + variant.uri
        self.base_url = self.playlist_url.rsplit("/", 1)[0] + "/"
        self.rendition_switches.append((self.loop.now, variant.name or variant.uri))
        self.loader.fetch_playlist(self.playlist_url, self._on_playlist)

    def _abr_on_stall(self) -> None:
        self._smooth_run = 0
        if self._variants and self._level > 0:
            self._apply_level(self._level - 1)

    def _abr_on_smooth_segment(self) -> None:
        if not self._variants:
            return
        self._smooth_run += 1
        if self._smooth_run >= self.abr_upgrade_after and self._level < len(self._variants) - 1:
            self._smooth_run = 0
            self._apply_level(self._level + 1)

    # -- fetching -----------------------------------------------------------

    def _fill_buffer(self) -> None:
        if self._stopped or self.finished:
            return
        while (
            self._next_fetch in self._entries
            and len(self._buffer) + len(self._inflight) < self.buffer_target
            and not self._played_enough(self._next_fetch)
        ):
            index = self._next_fetch
            self._next_fetch += 1
            self._inflight.add(index)
            uri = self._entries[index]
            self.loader.fetch_segment(self.base_url, uri, index, self._segment_callback(index))
        if not self._playing and (self._buffer or self._inflight or not self._reached_end()):
            self._maybe_start_playback()

    def _played_enough(self, index: int) -> bool:
        return self.max_segments is not None and index >= self._first_index() + self.max_segments

    def _first_index(self) -> int:
        return min(self._entries) if self._entries else 0

    def nudge(self) -> None:
        """Churn notification: re-drive fetching after a fault heals.

        Retries pending in `_fetch_retries` already have backoff timers;
        nudging retries them now (the timer's later firing no-ops via the
        ``_inflight`` guard) and tops the buffer back up — what a real
        player's network-change listener does when connectivity returns.
        """
        if self._stopped or self.finished:
            return
        for index in sorted(self._fetch_retries):
            self._retry_fetch(index)
        self._fill_buffer()

    def seek(self, segments_forward: int = 1) -> None:
        """Scrub forward by whole segments (VoD trick-play).

        Playback jumps ahead, buffered segments behind the new position
        are discarded, and fetching resumes from the seek target. Seeks
        clamp to the known end of a VOD playlist; a seek past the end
        finishes on the next playback tick.
        """
        if self._stopped or self.finished or segments_forward < 1:
            return
        target = self._play_index + segments_forward
        if self._end_index is not None:
            target = min(target, self._end_index)
        if target <= self._play_index:
            return
        self._play_index = target
        self._next_fetch = max(self._next_fetch, target)
        for index in [i for i in self._buffer if i < target]:
            del self._buffer[index]
        self.stats.seeks += 1
        self._fill_buffer()

    def _retry_fetch(self, index: int) -> None:
        if self._stopped or self.finished or index in self._buffer or index in self._inflight:
            return
        uri = self._entries.get(index)
        if uri is None or index < self._play_index:
            return
        self._inflight.add(index)
        self.loader.fetch_segment(self.base_url, uri, index, self._segment_callback(index))

    def _segment_callback(self, index: int) -> SegmentCallback:
        return lambda data, source, digest: self._on_segment(index, data, source, digest)

    def _on_segment(self, index: int, data: bytes | None, source: str, digest: str | None) -> None:
        self._inflight.discard(index)
        if self._stopped:
            return
        if data is None:
            # Transient delivery failure: retry with backoff; after the
            # budget, skip the segment (what real players do) rather than
            # stalling forever.
            retries = self._fetch_retries.get(index, 0) + 1
            self._fetch_retries[index] = retries
            if retries <= self.max_fetch_retries:
                self.loop.schedule(1.0, self._retry_fetch, index)
            else:
                self._skipped.add(index)
            self._fill_buffer()
            return
        self._fetch_retries.pop(index, None)
        if source == "p2p":
            self.stats.bytes_from_p2p += len(data)
        else:
            self.stats.bytes_from_cdn += len(data)
        if index < self._play_index:
            # A seek (or a live-edge jump) moved playback past this fetch
            # while it was in flight; buffering it would pin a dead entry
            # against buffer_target forever. The bytes still crossed the
            # wire, so they stay counted above.
            self._fill_buffer()
            return
        self._buffer[index] = (digest, source)
        self._maybe_start_playback()
        self._fill_buffer()

    # -- playback -----------------------------------------------------------

    def _maybe_start_playback(self) -> None:
        if not self._playing and self._play_index in self._buffer:
            self._playing = True
            self.loop.schedule(0.0, self._playback_tick)

    def _playback_tick(self) -> None:
        if self._stopped or self.finished:
            return
        if self._reached_end() and self._play_index not in self._buffer:
            self._finish()
            return
        entry = self._buffer.pop(self._play_index, None)
        if entry is None:
            if self._play_index in self._skipped:
                # Permanently undeliverable: skip it and keep playing.
                self.stats.segments_skipped += 1
                self._play_index += 1
                self._fill_buffer()
                self.loop.schedule(0.1, self._playback_tick)
                return
            # buffer underrun: stall, adapt down, retry
            if self._stall_started is None:
                self._stall_started = self.loop.now
                self.stats.stalls += 1
                self._abr_on_stall()
            self.loop.schedule(0.25, self._playback_tick)
            return
        if self._stall_started is not None:
            self.stats.stall_time += self.loop.now - self._stall_started
            self._stall_started = None
        digest, source = entry
        self.stats.played.append(PlayedSegment(self._play_index, digest, source, self.loop.now))
        self._abr_on_smooth_segment()
        self._play_index += 1
        self._fill_buffer()
        if self._played_enough(self._play_index):
            self._finish()
            return
        played_duration = self._durations.get(self._play_index - 1, 10.0)
        self.loop.schedule(max(0.1, played_duration), self._playback_tick)

    def _reached_end(self) -> bool:
        return self._end_index is not None and self._play_index >= self._end_index

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self._playing = False
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()
        if self.on_finished is not None:
            self.on_finished()
