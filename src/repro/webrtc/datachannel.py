"""Reliable, ordered message channels over DTLS (SCTP-lite).

PDN SDKs move video segments between peers over WebRTC data channels.
Segments are megabytes, datagrams are not, and the network may drop
packets — so this layer chunks messages, acknowledges chunks, and
retransmits, giving the reliability SCTP provides under real WebRTC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.net.clock import EventLoop, TimerHandle
from repro.util.errors import ProtocolError

_DATA = 0
_ACK = 1
_HEADER = struct.Struct("!BHIHH")  # kind, channel_id, msg_id, chunk_index, chunk_total
_RETRANSMIT_INTERVAL = 0.4
_MAX_RETRIES = 12
# DTLS records carry a 16-bit length and real DTLS caps payloads at 2^14;
# chunks must leave room for the channel header and the record MAC.
DEFAULT_CHUNK_SIZE = 16000


@dataclass
class _OutgoingMessage:
    """A sent message until its last chunk is acked.

    It holds the caller's payload once; each (re)send slices its chunk
    afresh, so no second copy of the message waits for acks.
    """

    channel_id: int
    msg_id: int
    payload: bytes
    chunk_total: int
    unacked: set[int] = field(default_factory=set)
    retries: int = 0
    timer: TimerHandle | None = None


@dataclass
class _IncomingMessage:
    chunk_total: int
    chunks: dict[int, bytes] = field(default_factory=dict)


class DataChannelLayer:
    """Multiplexes reliable message channels over one DTLS session.

    ``transmit`` is the DTLS ``send_application`` callable; inbound
    plaintext records are fed to :meth:`handle_record`. Completed
    messages are delivered via ``on_message(channel_id, payload)``.
    """

    def __init__(
        self,
        loop: EventLoop,
        transmit: Callable[[bytes], None],
        on_message: Callable[[int, bytes], None] | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size <= 0:
            raise ProtocolError("chunk size must be positive")
        self.loop = loop
        self.transmit = transmit
        self.on_message = on_message
        self.chunk_size = chunk_size
        self._next_msg_id = 1
        self._outgoing: dict[tuple[int, int], _OutgoingMessage] = {}
        self._incoming: dict[tuple[int, int], _IncomingMessage] = {}
        self._delivered: set[tuple[int, int]] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_abandoned = 0
        self.chunks_retransmitted = 0
        self.bytes_sent = 0

    # -- sending -----------------------------------------------------------

    def send(self, channel_id: int, payload: bytes) -> int:
        """Send one message; returns its message id."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        # An empty message still travels as one empty chunk.
        total = max(1, -(-len(payload) // self.chunk_size))
        if total > 0xFFFF:
            raise ProtocolError("message too large for 16-bit chunk count")
        message = _OutgoingMessage(channel_id, msg_id, payload, total, unacked=set(range(total)))
        self._outgoing[(channel_id, msg_id)] = message
        self.messages_sent += 1
        for index in range(total):
            self._transmit_chunk(message, index)
        message.timer = self.loop.schedule(_RETRANSMIT_INTERVAL, self._retransmit, channel_id, msg_id)
        return msg_id

    def _transmit_chunk(self, message: _OutgoingMessage, index: int) -> None:
        start = index * self.chunk_size
        chunk = message.payload[start : start + self.chunk_size]
        header = _HEADER.pack(_DATA, message.channel_id, message.msg_id, index, message.chunk_total)
        self.bytes_sent += len(chunk)
        self.transmit(header + chunk)

    def _retransmit(self, channel_id: int, msg_id: int) -> None:
        message = self._outgoing.get((channel_id, msg_id))
        if message is None or not message.unacked:
            return
        message.retries += 1
        if message.retries > _MAX_RETRIES:
            self.messages_abandoned += 1
            del self._outgoing[(channel_id, msg_id)]
            return
        for index in sorted(message.unacked):
            self.chunks_retransmitted += 1
            self._transmit_chunk(message, index)
        message.timer = self.loop.schedule(_RETRANSMIT_INTERVAL, self._retransmit, channel_id, msg_id)

    # -- receiving -----------------------------------------------------------

    def handle_record(self, plaintext: bytes) -> None:
        """Process one decrypted DTLS application record."""
        if len(plaintext) < _HEADER.size:
            return
        kind, channel_id, msg_id, chunk_index, chunk_total = _HEADER.unpack(
            plaintext[: _HEADER.size]
        )
        body = plaintext[_HEADER.size :]
        if kind == _ACK:
            self._handle_ack(channel_id, msg_id, chunk_index)
        elif kind == _DATA:
            self._handle_data(channel_id, msg_id, chunk_index, chunk_total, body)

    def _handle_ack(self, channel_id: int, msg_id: int, chunk_index: int) -> None:
        message = self._outgoing.get((channel_id, msg_id))
        if message is None:
            return
        message.unacked.discard(chunk_index)
        if not message.unacked:
            if message.timer is not None:
                message.timer.cancel()
            del self._outgoing[(channel_id, msg_id)]

    def _handle_data(
        self, channel_id: int, msg_id: int, chunk_index: int, chunk_total: int, body: bytes
    ) -> None:
        ack = _HEADER.pack(_ACK, channel_id, msg_id, chunk_index, chunk_total)
        self.transmit(ack)
        key = (channel_id, msg_id)
        if key in self._delivered:
            return  # duplicate chunk of an already-delivered message
        incoming = self._incoming.setdefault(key, _IncomingMessage(chunk_total))
        incoming.chunks[chunk_index] = body
        if len(incoming.chunks) == incoming.chunk_total:
            payload = b"".join(incoming.chunks[i] for i in range(incoming.chunk_total))
            del self._incoming[key]
            self._delivered.add(key)
            self.messages_delivered += 1
            if self.on_message is not None:
                self.on_message(channel_id, payload)

    @property
    def inflight_messages(self) -> int:
        """Messages sent but not yet fully acked or abandoned."""
        return len(self._outgoing)
