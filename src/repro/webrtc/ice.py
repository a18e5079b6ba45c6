"""Interactive Connectivity Establishment (ICE) — candidates and checks.

ICE is the stage at which the paper's *peer IP leak* happens: host and
server-reflexive candidates carry real transport addresses, which the
signaling server forwards to arbitrary swarm members and which then
appear again in clear-text STUN connectivity checks. The agent records
every remote address it observes (`observed_remotes`) — exactly the data
the paper's harvesting peer collects with a Wireshark script.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.net.addresses import Endpoint
from repro.net.clock import EventLoop
from repro.util.errors import ProtocolError
from repro.util.rand import DeterministicRandom
from repro.webrtc.stun import (
    AttributeType,
    StunClass,
    StunMessage,
    StunMethod,
    add_message_integrity,
    encode_stun,
    encode_xor_address,
    verify_message_integrity,
)

_GATHER_TIMEOUT = 1.0
_CHECK_RETRANSMIT = 0.3
_MAX_CHECK_SENDS = 4


class CandidateType(enum.Enum):
    """How a candidate address was learned: local interface, STUN reflection or TURN relay."""

    HOST = "host"
    SRFLX = "srflx"  # server-reflexive (public address learned via STUN)
    RELAY = "relay"  # TURN-relayed


_TYPE_PREFERENCE = {CandidateType.HOST: 126, CandidateType.SRFLX: 100, CandidateType.RELAY: 2}


@dataclass(frozen=True)
class IceCandidate:
    """One candidate transport address."""

    cand_type: CandidateType
    endpoint: Endpoint
    priority: int
    foundation: str

    @classmethod
    def make(cls, cand_type: CandidateType, endpoint: Endpoint, component: int = 1) -> "IceCandidate":
        """A candidate with its RFC 8445 priority and a type-plus-IP foundation."""
        priority = (_TYPE_PREFERENCE[cand_type] << 24) | (65535 << 8) | (256 - component)
        return cls(cand_type, endpoint, priority, f"{cand_type.value}:{endpoint.ip}")

    def to_dict(self) -> dict:
        """The candidate as it travels in signaling: type, ip, port, priority, foundation."""
        return {
            "type": self.cand_type.value,
            "ip": self.endpoint.ip,
            "port": self.endpoint.port,
            "priority": self.priority,
            "foundation": self.foundation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IceCandidate":
        """Rebuild a candidate from its :meth:`to_dict` form."""
        return cls(
            CandidateType(data["type"]),
            Endpoint(data["ip"], data["port"]),
            data["priority"],
            data["foundation"],
        )


class IceAgent:
    """Gathers candidates and runs connectivity checks over one socket.

    The owning :class:`~repro.webrtc.peer_connection.PeerConnection`
    demultiplexes inbound datagrams and passes STUN messages here via
    :meth:`handle_stun`. ``transport_send(dst, payload)`` abstracts the
    socket so relay-only mode can tunnel checks through TURN.
    """

    def __init__(
        self,
        loop: EventLoop,
        rand: DeterministicRandom,
        local_ip: str,
        local_port: int,
        transport_send: Callable[[Endpoint, bytes], None],
        stun_servers: list[Endpoint] | None = None,
        relay_endpoint: Endpoint | None = None,
        relay_only: bool = False,
    ) -> None:
        self.loop = loop
        self.rand = rand
        self.local_ip = local_ip
        self.local_port = local_port
        self._send = transport_send
        self.stun_servers = list(stun_servers or [])
        self.relay_endpoint = relay_endpoint
        self.relay_only = relay_only

        self.ufrag = rand.bytes(4).hex()
        self.pwd = rand.bytes(12).hex()
        self.remote_ufrag: str | None = None
        self.remote_pwd: str | None = None

        self.local_candidates: list[IceCandidate] = []
        self.remote_candidates: list[IceCandidate] = []
        self.nominated_remote: Endpoint | None = None
        self.controlling = False
        self.observed_remotes: list[tuple[float, Endpoint]] = []

        self._gather_pending: dict[bytes, Endpoint] = {}
        self._gather_done_cb: Callable[[list[IceCandidate]], None] | None = None
        self._gather_deadline = None
        self._check_transactions: dict[bytes, IceCandidate] = {}
        self._on_nominated: Callable[[Endpoint], None] | None = None
        self.checks_sent = 0
        self.checks_received = 0

    # -- gathering ---------------------------------------------------------

    def gather(self, on_complete: Callable[[list[IceCandidate]], None]) -> None:
        """Collect host/srflx/relay candidates, then invoke the callback.

        In relay-only (privacy) mode, host and server-reflexive
        candidates are suppressed so no real address is ever signaled.
        """
        self._gather_done_cb = on_complete
        if not self.relay_only:
            self.local_candidates.append(
                IceCandidate.make(CandidateType.HOST, Endpoint(self.local_ip, self.local_port))
            )
        if self.relay_endpoint is not None:
            self.local_candidates.append(IceCandidate.make(CandidateType.RELAY, self.relay_endpoint))
        if self.relay_only or not self.stun_servers:
            self._finish_gathering()
            return
        for server in self.stun_servers:
            transaction_id = self.rand.bytes(12)
            self._gather_pending[transaction_id] = server
            request = StunMessage(StunMethod.BINDING, StunClass.REQUEST, transaction_id)
            request.add(AttributeType.SOFTWARE, b"repro-ice")
            self._send(server, encode_stun(request))
        self._gather_deadline = self.loop.schedule(_GATHER_TIMEOUT, self._finish_gathering)

    def _finish_gathering(self) -> None:
        if self._gather_done_cb is None:
            return
        callback, self._gather_done_cb = self._gather_done_cb, None
        if self._gather_deadline is not None:
            self._gather_deadline.cancel()
        self._gather_pending.clear()
        callback(list(self.local_candidates))

    def _on_gather_response(self, message: StunMessage) -> None:
        self._gather_pending.pop(message.transaction_id, None)
        mapped = message.xor_mapped_address()
        if mapped is not None:
            known = {c.endpoint for c in self.local_candidates}
            if mapped not in known:
                self.local_candidates.append(IceCandidate.make(CandidateType.SRFLX, mapped))
        if not self._gather_pending:
            self._finish_gathering()

    # -- connectivity checks -------------------------------------------------

    def set_remote(self, candidates: list[IceCandidate], ufrag: str, pwd: str) -> None:
        """Store the peer's candidates, highest priority first, and its ICE credentials."""
        self.remote_candidates = sorted(candidates, key=lambda c: -c.priority)
        self.remote_ufrag = ufrag
        self.remote_pwd = pwd

    def start_checks(self, on_nominated: Callable[[Endpoint], None]) -> None:
        """Controlling side: probe every remote candidate; first success wins."""
        if self.remote_ufrag is None:
            raise ProtocolError("start_checks before set_remote")
        self.controlling = True
        self._on_nominated = on_nominated
        for candidate in self.remote_candidates:
            self._send_check(candidate, attempt=1)

    def _send_check(self, candidate: IceCandidate, attempt: int) -> None:
        if self.nominated_remote is not None:
            return
        transaction_id = self.rand.bytes(12)
        self._check_transactions[transaction_id] = candidate
        request = StunMessage(StunMethod.BINDING, StunClass.REQUEST, transaction_id)
        request.add(AttributeType.USERNAME, f"{self.remote_ufrag}:{self.ufrag}".encode())
        request.add(AttributeType.PRIORITY, candidate.priority.to_bytes(4, "big"))
        request.add(AttributeType.ICE_CONTROLLING, b"\x00" * 8)
        request.add(AttributeType.USE_CANDIDATE, b"")
        # Short-term credential: prove knowledge of the remote's ICE pwd.
        if self.remote_pwd:
            add_message_integrity(request, self.remote_pwd.encode())
        self.checks_sent += 1
        self._send(candidate.endpoint, encode_stun(request))
        if attempt < _MAX_CHECK_SENDS:
            self.loop.schedule(_CHECK_RETRANSMIT, self._send_check, candidate, attempt + 1)

    def _on_check_response(self, message: StunMessage, src: Endpoint) -> None:
        candidate = self._check_transactions.pop(message.transaction_id, None)
        if candidate is None or self.nominated_remote is not None:
            return
        self.nominated_remote = candidate.endpoint
        if self._on_nominated is not None:
            self._on_nominated(candidate.endpoint)

    # -- inbound STUN ---------------------------------------------------------

    def handle_stun(self, message: StunMessage, src: Endpoint) -> None:
        """Process one inbound STUN message (already decoded)."""
        if message.msg_class is StunClass.SUCCESS:
            if message.transaction_id in self._gather_pending:
                self._on_gather_response(message)
            else:
                self._on_check_response(message, src)
            return
        if message.msg_class is not StunClass.REQUEST or message.method is not StunMethod.BINDING:
            return
        # Inbound connectivity check from the remote peer.
        username = message.username()
        expected = f"{self.ufrag}:{self.remote_ufrag}" if self.remote_ufrag else None
        if expected is not None and username != expected:
            return  # not for us (stale or cross-session); drop silently
        # A check bearing a username must prove knowledge of our pwd.
        authenticated = username is not None and username == expected
        if username is not None and not verify_message_integrity(message, self.pwd.encode()):
            return
        self.checks_received += 1
        self.observed_remotes.append((self.loop.now, src))
        response = StunMessage(StunMethod.BINDING, StunClass.SUCCESS, message.transaction_id)
        response.add(AttributeType.XOR_MAPPED_ADDRESS, encode_xor_address(src, message.transaction_id))
        self._send(src, encode_stun(response))
        if not self.controlling and message.attr(AttributeType.USE_CANDIDATE) is not None:
            if self.nominated_remote is None:
                self.nominated_remote = src
                if self._on_nominated is not None:
                    self._on_nominated(src)
                return
        if authenticated and self.nominated_remote is not None and src != self.nominated_remote:
            # Peer-reflexive switch: an *authenticated* check from a new
            # transport address means the remote's mapping changed (NAT
            # rebind). Follow it, or every reply keeps black-holing at
            # the stale address. Unauthenticated traffic never switches.
            self.nominated_remote = src
            if self._on_nominated is not None:
                self._on_nominated(src)

    def refresh(self) -> None:
        """Send one authenticated check to the nominated remote.

        The RFC 7675-style consent/keepalive: after a local NAT rebind
        the first outbound datagram re-punches a fresh mapping, and the
        authenticated check lets the remote's agent switch its nominated
        address to the new mapping (see :meth:`handle_stun`).
        """
        if self.nominated_remote is None or self.remote_ufrag is None:
            return
        transaction_id = self.rand.bytes(12)
        request = StunMessage(StunMethod.BINDING, StunClass.REQUEST, transaction_id)
        request.add(AttributeType.USERNAME, f"{self.remote_ufrag}:{self.ufrag}".encode())
        if self.remote_pwd:
            add_message_integrity(request, self.remote_pwd.encode())
        self.checks_sent += 1
        self._send(self.nominated_remote, encode_stun(request))

    def wait_nominated(self, on_nominated: Callable[[Endpoint], None]) -> None:
        """Controlled side: register the nomination callback."""
        self._on_nominated = on_nominated
        if self.nominated_remote is not None:
            on_nominated(self.nominated_remote)
