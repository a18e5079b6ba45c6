"""TURN relay server and client (RFC 5766-shaped).

TURN is the paper's §V-C mitigation for the peer IP leak: when peers
publish only relayed candidates and tunnel all traffic through the relay,
remote peers observe the TURN server's address instead of the viewer's.
The paper notes two adult platforms already do this, at substantial
relay-bandwidth cost — which :class:`TurnServer` accounts so the ablation
benchmark can quantify the trade-off.
"""

from __future__ import annotations

from typing import Callable

from repro.net.addresses import Endpoint
from repro.net.network import Host, UdpSocket
from repro.util.rand import DeterministicRandom
from repro.webrtc.stun import (
    AttributeType,
    StunClass,
    StunMessage,
    StunMethod,
    decode_stun,
    encode_stun,
    encode_xor_address,
    is_stun_datagram,
)


class TurnServer:
    """Allocates relayed ports and forwards traffic in both directions."""

    DEFAULT_PORT = 3478

    def __init__(self, host: Host, port: int = DEFAULT_PORT) -> None:
        self.host = host
        self.socket = host.bind_udp(port, self._on_control_datagram)
        # client wire address -> relay socket serving that client
        self._allocations: dict[Endpoint, UdpSocket] = {}
        self._clients_by_relay_port: dict[int, Endpoint] = {}
        self.relayed_bytes = 0
        self.allocations_made = 0

    @property
    def endpoint(self) -> Endpoint:
        """The public control address for Allocate requests and Send indications."""
        return Endpoint(self.host.public_ip, self.socket.port)

    # -- control plane -----------------------------------------------------

    def _on_control_datagram(self, data: bytes, src: Endpoint, sock: UdpSocket) -> None:
        if not is_stun_datagram(data):
            return
        message = decode_stun(data)
        if message.method is StunMethod.ALLOCATE and message.msg_class is StunClass.REQUEST:
            self._handle_allocate(message, src, sock)
        elif message.method is StunMethod.SEND and message.msg_class is StunClass.INDICATION:
            self._handle_send_indication(message, src)

    def _handle_allocate(self, message: StunMessage, src: Endpoint, sock: UdpSocket) -> None:
        if src not in self._allocations:
            relay_socket = self.host.bind_udp(0, self._on_relay_datagram)
            self._allocations[src] = relay_socket
            self._clients_by_relay_port[relay_socket.port] = src
            self.allocations_made += 1
        relay_socket = self._allocations[src]
        relayed = Endpoint(self.host.public_ip, relay_socket.port)
        response = StunMessage(StunMethod.ALLOCATE, StunClass.SUCCESS, message.transaction_id)
        response.add(AttributeType.XOR_RELAYED_ADDRESS, encode_xor_address(relayed, message.transaction_id))
        sock.send(src, encode_stun(response))

    def _handle_send_indication(self, message: StunMessage, src: Endpoint) -> None:
        relay_socket = self._allocations.get(src)
        if relay_socket is None:
            return  # no allocation; real TURN would return 437
        peer = message.xor_peer_address()
        payload = message.attr(AttributeType.DATA)
        if peer is None or payload is None:
            return
        self.relayed_bytes += len(payload)
        relay_socket.send(peer, payload)

    # -- data plane (peer -> client direction) -------------------------------

    def _on_relay_datagram(self, data: bytes, src: Endpoint, sock: UdpSocket) -> None:
        client = self._clients_by_relay_port.get(sock.port)
        if client is None:
            return
        self.relayed_bytes += len(data)
        indication = StunMessage(StunMethod.DATA, StunClass.INDICATION, b"\x00" * 12)
        indication.add(AttributeType.XOR_PEER_ADDRESS, encode_xor_address(src, b"\x00" * 12))
        indication.add(AttributeType.DATA, data)
        self.socket.send(client, encode_stun(indication))


class TurnClient:
    """Client side of a TURN allocation, sharing the owner's socket.

    The owning peer connection routes TURN control traffic here; data
    received in DATA indications is surfaced through ``on_relayed_data``
    as if it had arrived directly from the peer.
    """

    def __init__(
        self,
        rand: DeterministicRandom,
        server: Endpoint,
        raw_send: Callable[[Endpoint, bytes], None],
        on_relayed_data: Callable[[bytes, Endpoint], None],
    ) -> None:
        self.rand = rand
        self.server = server
        self._raw_send = raw_send
        self.on_relayed_data = on_relayed_data
        self.relayed_endpoint: Endpoint | None = None
        self._allocate_txn: bytes | None = None
        self._on_allocated: Callable[[Endpoint], None] | None = None
        self.bytes_via_relay = 0

    def allocate(self, on_allocated: Callable[[Endpoint], None]) -> None:
        """Request a relayed address; ``on_allocated(relayed)`` runs when it is granted."""
        self._on_allocated = on_allocated
        self._allocate_txn = self.rand.bytes(12)
        request = StunMessage(StunMethod.ALLOCATE, StunClass.REQUEST, self._allocate_txn)
        self._raw_send(self.server, encode_stun(request))

    def send_via_relay(self, peer: Endpoint, payload: bytes) -> None:
        """Send ``payload`` to ``peer`` from the relayed address, via a Send indication."""
        indication = StunMessage(StunMethod.SEND, StunClass.INDICATION, self.rand.bytes(12))
        indication.add(AttributeType.XOR_PEER_ADDRESS, encode_xor_address(peer, b"\x00" * 12))
        indication.add(AttributeType.DATA, payload)
        self.bytes_via_relay += len(payload)
        self._raw_send(self.server, encode_stun(indication))

    def handle_stun(self, message: StunMessage, src: Endpoint) -> bool:
        """Consume TURN-related messages; returns True if handled."""
        if (
            message.method is StunMethod.ALLOCATE
            and message.msg_class is StunClass.SUCCESS
            and message.transaction_id == self._allocate_txn
        ):
            self.relayed_endpoint = message.xor_relayed_address()
            if self._on_allocated is not None and self.relayed_endpoint is not None:
                self._on_allocated(self.relayed_endpoint)
            return True
        if message.method is StunMethod.DATA and message.msg_class is StunClass.INDICATION:
            peer = message.xor_peer_address()
            payload = message.attr(AttributeType.DATA)
            if peer is not None and payload is not None:
                self.on_relayed_data(payload, peer)
            return True
        return False
