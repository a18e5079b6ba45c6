"""HLS media playlists (RFC 8216 subset).

The pollution attacks operate on exactly these artifacts: a manifest
(M3U8) tracking TS segments. The generator/parser here covers the tags
the paper's pipeline touches — target duration, media sequence (for live
sliding windows), per-segment EXTINF, and the ENDLIST marker that
distinguishes VOD from live playlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.streaming.video import VideoSource
from repro.util.errors import ProtocolError


@dataclass(frozen=True)
class PlaylistEntry:
    """One segment reference in a media playlist."""

    uri: str
    duration: float


@dataclass(frozen=True)
class VariantEntry:
    """One rendition reference in a master playlist."""

    uri: str
    bandwidth: int  # bits per second
    name: str = ""


@dataclass
class MasterPlaylist:
    """A parsed multi-bitrate master playlist."""

    variants: list[VariantEntry] = field(default_factory=list)

    def lowest(self) -> VariantEntry:
        """The rendition with the least bandwidth: the fallback when none is affordable."""
        return min(self.variants, key=lambda v: v.bandwidth)

    def best_for(self, bits_per_second: float) -> VariantEntry:
        """Highest rendition sustainable at the given throughput."""
        affordable = [v for v in self.variants if v.bandwidth <= bits_per_second]
        return max(affordable, key=lambda v: v.bandwidth) if affordable else self.lowest()


def generate_master_playlist(variants: list[VariantEntry]) -> str:
    """Render a master playlist (#EXT-X-STREAM-INF per rendition)."""
    lines = ["#EXTM3U", "#EXT-X-VERSION:3"]
    for variant in variants:
        name = f',NAME="{variant.name}"' if variant.name else ""
        lines.append(f"#EXT-X-STREAM-INF:BANDWIDTH={variant.bandwidth}{name}")
        lines.append(variant.uri)
    return "\n".join(lines) + "\n"


def parse_master_playlist(text: str) -> MasterPlaylist:
    """Parse a master playlist."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise ProtocolError("playlist does not start with #EXTM3U")
    master = MasterPlaylist()
    pending: dict | None = None
    for line in lines[1:]:
        if line.startswith("#EXT-X-STREAM-INF:"):
            attributes = line.split(":", 1)[1]
            bandwidth = 0
            name = ""
            for chunk in attributes.split(","):
                if chunk.startswith("BANDWIDTH="):
                    bandwidth = int(chunk.split("=", 1)[1])
                elif chunk.startswith("NAME="):
                    name = chunk.split("=", 1)[1].strip('"')
            pending = {"bandwidth": bandwidth, "name": name}
        elif line.startswith("#"):
            continue
        else:
            if pending is None:
                raise ProtocolError(f"variant uri {line!r} without #EXT-X-STREAM-INF")
            master.variants.append(VariantEntry(line, pending["bandwidth"], pending["name"]))
            pending = None
    if not master.variants:
        raise ProtocolError("master playlist has no variants")
    return master


def is_master_playlist(text: str) -> bool:
    """True if ``text`` lists renditions (``#EXT-X-STREAM-INF``) rather than segments."""
    return "#EXT-X-STREAM-INF:" in text


@dataclass
class MediaPlaylist:
    """A parsed media playlist."""

    version: int = 3
    target_duration: float = 10.0
    media_sequence: int = 0
    entries: list[PlaylistEntry] = field(default_factory=list)
    endlist: bool = False

    @property
    def is_live(self) -> bool:
        """True while the playlist has no ``#EXT-X-ENDLIST``, so it may still grow."""
        return not self.endlist

    def segment_indices(self) -> list[int]:
        """Absolute segment indices covered by this playlist window."""
        return list(range(self.media_sequence, self.media_sequence + len(self.entries)))


def generate_media_playlist(
    video: VideoSource,
    first_index: int = 0,
    window: int | None = None,
    endlist: bool = True,
    uri_prefix: str = "",
) -> str:
    """Render an M3U8 media playlist for ``video``.

    For live streams, pass ``endlist=False`` with a sliding ``window``
    starting at ``first_index`` (which becomes EXT-X-MEDIA-SEQUENCE).
    """
    if window is not None:
        segments = video.segments[first_index : first_index + window]
    else:
        segments = video.segments[first_index:]
    target = max((s.duration for s in segments), default=video.segment_duration)
    lines = [
        "#EXTM3U",
        "#EXT-X-VERSION:3",
        f"#EXT-X-TARGETDURATION:{int(round(target))}",
        f"#EXT-X-MEDIA-SEQUENCE:{first_index}",
    ]
    for segment in segments:
        lines.append(f"#EXTINF:{segment.duration:.3f},")
        lines.append(f"{uri_prefix}{segment.filename}")
    if endlist:
        lines.append("#EXT-X-ENDLIST")
    return "\n".join(lines) + "\n"


def parse_media_playlist(text: str) -> MediaPlaylist:
    """Parse an M3U8 media playlist."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise ProtocolError("playlist does not start with #EXTM3U")
    playlist = MediaPlaylist()
    pending_duration: float | None = None
    for line in lines[1:]:
        if line.startswith("#EXT-X-VERSION:"):
            playlist.version = int(line.split(":", 1)[1])
        elif line.startswith("#EXT-X-TARGETDURATION:"):
            playlist.target_duration = float(line.split(":", 1)[1])
        elif line.startswith("#EXT-X-MEDIA-SEQUENCE:"):
            playlist.media_sequence = int(line.split(":", 1)[1])
        elif line.startswith("#EXTINF:"):
            value = line.split(":", 1)[1].rstrip(",").split(",")[0]
            pending_duration = float(value)
        elif line == "#EXT-X-ENDLIST":
            playlist.endlist = True
        elif line.startswith("#"):
            continue  # unknown tag: tolerated, like real players do
        else:
            if pending_duration is None:
                raise ProtocolError(f"segment uri {line!r} without preceding #EXTINF")
            playlist.entries.append(PlaylistEntry(line, pending_duration))
            pending_duration = None
    return playlist
