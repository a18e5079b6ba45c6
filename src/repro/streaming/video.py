"""Synthetic video sources.

Segment payloads are deterministic pseudo-random bytes derived from
``(video_id, segment index)``, so any two components can independently
agree on what the *authentic* content of a segment is — which is what
lets the pollution experiments verify, by hash, whether a player ended
up rendering polluted bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class VideoSegment:
    """One media segment (a TS file in HLS terms)."""

    index: int
    data: bytes
    duration: float = 10.0

    @property
    def size(self) -> int:
        """The segment's payload length in bytes."""
        return len(self.data)

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the payload: what a hash-checking defense compares."""
        return hashlib.sha256(self.data).hexdigest()

    @property
    def filename(self) -> str:
        """The segment's name in a playlist and its URL: ``seg-<index>.ts``."""
        return f"seg-{self.index}.ts"


_PAYLOAD_BLOCK = 65536  # one hash seeds 64 KiB; keeps multi-MB segments cheap


def _segment_payload(video_id: str, index: int, size: int) -> bytes:
    """Deterministic pseudo-random payload for a segment."""
    blocks = []
    remaining = size
    counter = 0
    while remaining > 0:
        digest = hashlib.sha256(f"{video_id}:{index}:{counter}".encode()).digest()
        block = (digest * (_PAYLOAD_BLOCK // len(digest)))[: min(_PAYLOAD_BLOCK, remaining)]
        blocks.append(block)
        remaining -= len(block)
        counter += 1
    return b"".join(blocks)


@dataclass
class VideoSource:
    """A complete video: an ordered list of segments plus identity."""

    video_id: str
    segments: list[VideoSegment] = field(default_factory=list)
    segment_duration: float = 10.0

    @property
    def total_bytes(self) -> int:
        """Payload bytes over every segment."""
        return sum(s.size for s in self.segments)

    @property
    def duration(self) -> float:
        """Seconds of media over every segment."""
        return sum(s.duration for s in self.segments)

    def segment(self, index: int) -> VideoSegment | None:
        """Segment ``index``, or None outside the video."""
        if 0 <= index < len(self.segments):
            return self.segments[index]
        return None

    def authentic_digest(self, index: int) -> str | None:
        """The digest segment ``index`` must have if unpolluted; None outside the video."""
        seg = self.segment(index)
        return seg.digest if seg else None


def make_video(
    video_id: str,
    num_segments: int = 12,
    segment_duration: float = 10.0,
    segment_size: int = 200_000,
) -> VideoSource:
    """Build a deterministic synthetic video.

    The default segment size keeps simulations fast; experiments that
    need the paper's 3 MB segments (Table VI) pass ``segment_size``
    explicitly.
    """
    segments = [
        VideoSegment(i, _segment_payload(video_id, i, segment_size), segment_duration)
        for i in range(num_segments)
    ]
    return VideoSource(video_id, segments, segment_duration)


def make_multi_bitrate_video(
    video_id: str,
    num_segments: int = 12,
    segment_duration: float = 10.0,
    bitrates_kbps: dict[str, int] | None = None,
) -> dict[str, VideoSource]:
    """Build aligned renditions of one video at several bitrates.

    Returns ``{rendition_name: VideoSource}`` with identical segment
    counts/durations; content differs per rendition (as real encodes
    do), so PDN swarms form per rendition.
    """
    bitrates_kbps = bitrates_kbps or {"360p": 800, "720p": 2500, "1080p": 5000}
    renditions = {}
    for name, kbps in bitrates_kbps.items():
        size = int(kbps * 1000 / 8 * segment_duration)
        renditions[name] = make_video(
            f"{video_id}/{name}", num_segments, segment_duration, size
        )
    return renditions


def pollute_segment(segment: VideoSegment, marker: bytes = b"POLLUTED") -> VideoSegment:
    """Return an altered copy of a segment (same size, corrupted content)."""
    body = (marker * (len(segment.data) // len(marker) + 1))[: len(segment.data)]
    return VideoSegment(segment.index, body, segment.duration)
