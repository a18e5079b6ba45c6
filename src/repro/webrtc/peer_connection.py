"""PeerConnection: ICE + DTLS + data channels behind one API.

This is the WebRTC surface the PDN SDK programs against, mirroring the
browser's ``RTCPeerConnection`` lifecycle: create offer (gather
candidates), signal it, apply the answer, run connectivity checks,
complete the DTLS handshake, then exchange data-channel messages.

Privacy posture is decided here: with ``relay_only`` set (the §V-C
mitigation) the connection publishes only TURN-relayed candidates and
tunnels everything through the relay, so the remote peer never observes
a real transport address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.net.addresses import Endpoint
from repro.net.clock import EventLoop
from repro.net.network import Host, UdpSocket
from repro.util.errors import ProtocolError, StunDecodeError
from repro.util.rand import DeterministicRandom
from repro.webrtc.certificates import Certificate
from repro.webrtc.datachannel import DEFAULT_CHUNK_SIZE, DataChannelLayer
from repro.webrtc.dtls import DtlsSession, is_dtls_datagram
from repro.webrtc.ice import IceAgent, IceCandidate
from repro.webrtc.stun import decode_stun, is_stun_datagram
from repro.webrtc.turn import TurnClient


@dataclass
class RtcConfig:
    """Configuration shared by every connection a client creates."""

    stun_servers: list[Endpoint] = field(default_factory=list)
    turn_server: Endpoint | None = None
    relay_only: bool = False
    chunk_size: int = DEFAULT_CHUNK_SIZE


@dataclass
class SessionDescription:
    """SDP-like session description carried over signaling."""

    kind: str  # "offer" | "answer"
    ufrag: str
    pwd: str
    fingerprint: str
    candidates: list[IceCandidate]

    def to_dict(self) -> dict:
        """The description as it travels over signaling, candidates included."""
        return {
            "kind": self.kind,
            "ufrag": self.ufrag,
            "pwd": self.pwd,
            "fingerprint": self.fingerprint,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionDescription":
        """Rebuild a description received over signaling (inverse of :meth:`to_dict`)."""
        return cls(
            kind=data["kind"],
            ufrag=data["ufrag"],
            pwd=data["pwd"],
            fingerprint=data["fingerprint"],
            candidates=[IceCandidate.from_dict(c) for c in data["candidates"]],
        )


class PeerConnection:
    """One peer-to-peer association (the browser RTCPeerConnection analog)."""

    def __init__(
        self,
        host: Host,
        loop: EventLoop,
        rand: DeterministicRandom,
        config: RtcConfig | None = None,
        name: str = "pc",
    ) -> None:
        self.host = host
        self.loop = loop
        # Keyed by (host, name), both caller-chosen: a process address
        # (id(self)) here would give each run a stream keyed to heap
        # layout, breaking replay across processes. Callers creating
        # several connections per host pass distinct names (the PDN SDK
        # keys them "<client>-><peer_id>").
        self.rand = rand.fork(f"pc:{host.name}:{name}")
        self.config = config or RtcConfig()
        self.name = name
        self.socket: UdpSocket = host.bind_udp(0, self._on_datagram)
        self.certificate = Certificate.generate(self.rand, subject=name)

        self.turn_client: TurnClient | None = None
        if self.config.turn_server is not None:
            self.turn_client = TurnClient(
                self.rand.fork("turn"),
                self.config.turn_server,
                raw_send=self.socket.send,
                on_relayed_data=self._on_relayed_data,
            )

        self.ice = IceAgent(
            loop,
            self.rand.fork("ice"),
            local_ip=host.ip,
            local_port=self.socket.port,
            transport_send=self._transport_send,
            stun_servers=self.config.stun_servers,
            relay_only=self.config.relay_only,
        )

        self.role: str | None = None
        self.dtls: DtlsSession | None = None
        self.channels: DataChannelLayer | None = None
        self.remote_endpoint: Endpoint | None = None
        self.remote_description: SessionDescription | None = None
        self.connected = False
        self.closed = False
        self.on_connected: Callable[[], None] | None = None
        self.on_message: Callable[[int, bytes], None] | None = None
        self.on_error: Callable[[Exception], None] | None = None
        self._pending_sends: list[tuple[int, bytes]] = []

    # -- transport ----------------------------------------------------------

    def _transport_send(self, dst: Endpoint, payload: bytes) -> None:
        if self.closed:
            return
        if self.config.relay_only and self.turn_client is not None:
            if dst == self.config.turn_server:
                self.socket.send(dst, payload)  # TURN control traffic goes direct
            else:
                self.turn_client.send_via_relay(dst, payload)
        else:
            self.socket.send(dst, payload)

    def _on_datagram(self, data: bytes, src: Endpoint, sock: UdpSocket) -> None:
        if self.closed:
            return
        self._demux(data, src)

    def _on_relayed_data(self, payload: bytes, peer: Endpoint) -> None:
        """Data arriving via our TURN allocation, as if sent by ``peer``."""
        self._demux(payload, peer)

    def _demux(self, data: bytes, src: Endpoint) -> None:
        if is_stun_datagram(data):
            try:
                message = decode_stun(data)
            except StunDecodeError:
                return
            if self.turn_client is not None and self.turn_client.handle_stun(message, src):
                return
            self.ice.handle_stun(message, src)
        elif is_dtls_datagram(data):
            if self.remote_endpoint is None:
                self.remote_endpoint = src
            if self.dtls is not None:
                self.dtls.handle_datagram(data)

    # -- signaling lifecycle ---------------------------------------------------

    def create_offer(self, on_ready: Callable[[SessionDescription], None]) -> None:
        """Gather candidates and produce an offer (we become DTLS client)."""
        self.role = "offer"
        self._gather_then(lambda: on_ready(self._local_description("offer")))

    def accept_offer(
        self, offer: SessionDescription, on_ready: Callable[[SessionDescription], None]
    ) -> None:
        """Apply a remote offer and produce an answer (we become DTLS server)."""
        if offer.kind != "offer":
            raise ProtocolError(f"expected an offer, got {offer.kind}")
        self.role = "answer"
        self.remote_description = offer
        self.ice.set_remote(offer.candidates, offer.ufrag, offer.pwd)
        self._create_dtls(role="server", expected_fingerprint=offer.fingerprint)

        def after_gather() -> None:
            """Wait for the offerer's nomination, then hand back the answer."""
            self.ice.wait_nominated(self._on_ice_nominated)
            on_ready(self._local_description("answer"))

        self._gather_then(after_gather)

    def set_answer(self, answer: SessionDescription) -> None:
        """Apply the remote answer and start connectivity checks."""
        if self.role != "offer":
            raise ProtocolError("set_answer is only valid on the offering side")
        if answer.kind != "answer":
            raise ProtocolError(f"expected an answer, got {answer.kind}")
        self.remote_description = answer
        self.ice.set_remote(answer.candidates, answer.ufrag, answer.pwd)
        self.ice.start_checks(self._on_ice_nominated)

    def _gather_then(self, proceed: Callable[[], None]) -> None:
        if self.turn_client is not None and self.turn_client.relayed_endpoint is None:

            def on_allocated(relayed: Endpoint) -> None:
                """Give ICE the relayed address to gather as a candidate, then proceed."""
                self.ice.relay_endpoint = relayed
                self.ice.gather(lambda _candidates: proceed())

            self.turn_client.allocate(on_allocated)
        else:
            self.ice.gather(lambda _candidates: proceed())

    def _local_description(self, kind: str) -> SessionDescription:
        return SessionDescription(
            kind=kind,
            ufrag=self.ice.ufrag,
            pwd=self.ice.pwd,
            fingerprint=self.certificate.fingerprint,
            candidates=list(self.ice.local_candidates),
        )

    # -- ICE / DTLS progression ---------------------------------------------------

    def _on_ice_nominated(self, remote: Endpoint) -> None:
        self.remote_endpoint = remote
        if self.role == "offer" and self.dtls is None:
            assert self.remote_description is not None
            self._create_dtls(role="client", expected_fingerprint=self.remote_description.fingerprint)
            assert self.dtls is not None
            self.dtls.start()

    def _create_dtls(self, role: str, expected_fingerprint: str) -> None:
        self.dtls = DtlsSession(
            self.loop,
            self.rand.fork("dtls"),
            role=role,
            certificate=self.certificate,
            expected_fingerprint=expected_fingerprint,
            send=self._send_dtls_datagram,
            on_established=self._on_dtls_established,
            on_data=self._on_dtls_data,
            on_error=self._on_dtls_error,
        )

    def _send_dtls_datagram(self, data: bytes) -> None:
        if self.remote_endpoint is not None:
            self._transport_send(self.remote_endpoint, data)

    def _on_dtls_established(self) -> None:
        assert self.dtls is not None
        self.channels = DataChannelLayer(
            self.loop,
            transmit=self.dtls.send_application,
            on_message=self._on_channel_message,
            chunk_size=self.config.chunk_size,
        )
        self.connected = True
        for channel_id, payload in self._pending_sends:
            self.channels.send(channel_id, payload)
        self._pending_sends.clear()
        if self.on_connected is not None:
            self.on_connected()

    def _on_dtls_data(self, plaintext: bytes) -> None:
        if self.channels is not None:
            self.channels.handle_record(plaintext)

    def _on_channel_message(self, channel_id: int, payload: bytes) -> None:
        if self.on_message is not None:
            self.on_message(channel_id, payload)

    def _on_dtls_error(self, error: Exception) -> None:
        if self.on_error is not None:
            self.on_error(error)

    # -- application API ---------------------------------------------------------

    def send(self, channel_id: int, payload: bytes) -> None:
        """Send a message; queued if the connection is still establishing."""
        if self.closed:
            raise ProtocolError("connection is closed")
        if self.channels is None:
            self._pending_sends.append((channel_id, payload))
        else:
            self.channels.send(channel_id, payload)

    def refresh_connectivity(self) -> None:
        """Re-validate the peer path after a local network change.

        Called by the PDN SDK when its NAT rebinds: the authenticated
        ICE check re-punches a mapping at the fresh external address and
        lets the remote agent follow us there, so the association
        either survives the rebind or times out into CDN fallback.
        """
        if not self.closed:
            self.ice.refresh()

    def close(self) -> None:
        """Close and release resources."""
        self.closed = True
        self.socket.close()
