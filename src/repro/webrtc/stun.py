"""STUN message codec and server (RFC 5389 framing, RFC 5766 methods).

The encoding is wire-accurate where it matters for the paper: 20-byte
header with the 0x2112A442 magic cookie, 4-byte-aligned TLV attributes,
and XOR-MAPPED-ADDRESS obfuscation. The dynamic PDN detector
(:mod:`repro.detection.traffic`) recognises STUN traffic exactly the way
Wireshark does — by the two zero top bits of the message type and the
magic cookie — and extracts the candidate addresses carried inside,
which is also precisely what makes the peer IP leak observable.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.net.addresses import Endpoint
from repro.net.network import UdpSocket
from repro.util.errors import StunDecodeError

MAGIC_COOKIE = 0x2112A442
HEADER_LEN = 20


class StunMethod(enum.IntEnum):
    """STUN/TURN methods used by the stack."""

    BINDING = 0x001
    ALLOCATE = 0x003  # TURN
    SEND = 0x006  # TURN send indication
    DATA = 0x007  # TURN data indication


class StunClass(enum.IntEnum):
    """The class bits of a message type: request, indication, success or error response."""

    REQUEST = 0b00
    INDICATION = 0b01
    SUCCESS = 0b10
    ERROR = 0b11


class AttributeType(enum.IntEnum):
    """Attribute type codes the stack reads or writes (RFC 5389, RFC 5766, RFC 8445)."""

    MAPPED_ADDRESS = 0x0001
    USERNAME = 0x0006
    MESSAGE_INTEGRITY = 0x0008
    ERROR_CODE = 0x0009
    XOR_PEER_ADDRESS = 0x0012
    DATA = 0x0013
    XOR_RELAYED_ADDRESS = 0x0016
    XOR_MAPPED_ADDRESS = 0x0020
    PRIORITY = 0x0024
    USE_CANDIDATE = 0x0025
    SOFTWARE = 0x8022
    ICE_CONTROLLED = 0x8029
    ICE_CONTROLLING = 0x802A


@dataclass(frozen=True)
class StunAttribute:
    """One TLV attribute (value held un-padded)."""

    attr_type: int
    value: bytes


@dataclass
class StunMessage:
    """A decoded STUN message."""

    method: StunMethod
    msg_class: StunClass
    transaction_id: bytes
    attributes: list[StunAttribute] = field(default_factory=list)

    def attr(self, attr_type: int) -> bytes | None:
        """The value of the first attribute of ``attr_type``, or ``None`` if absent."""
        for attribute in self.attributes:
            if attribute.attr_type == attr_type:
                return attribute.value
        return None

    def add(self, attr_type: int, value: bytes) -> "StunMessage":
        """Append one attribute; returns the message so calls chain."""
        self.attributes.append(StunAttribute(attr_type, value))
        return self

    # -- typed attribute helpers ----------------------------------------

    def xor_mapped_address(self) -> Endpoint | None:
        """The sender's address as the STUN server saw it, or ``None``."""
        raw = self.attr(AttributeType.XOR_MAPPED_ADDRESS)
        return decode_xor_address(raw, self.transaction_id) if raw else None

    def xor_relayed_address(self) -> Endpoint | None:
        """The relayed address a TURN server allocated, or ``None``."""
        raw = self.attr(AttributeType.XOR_RELAYED_ADDRESS)
        return decode_xor_address(raw, self.transaction_id) if raw else None

    def xor_peer_address(self) -> Endpoint | None:
        """The peer a TURN Send or Data indication is for or from, or ``None``."""
        raw = self.attr(AttributeType.XOR_PEER_ADDRESS)
        return decode_xor_address(raw, self.transaction_id) if raw else None

    def username(self) -> str | None:
        """The USERNAME attribute as text (ICE sends ``remote:local`` ufrags), or ``None``."""
        raw = self.attr(AttributeType.USERNAME)
        return raw.decode("utf-8") if raw is not None else None


def _encode_type(method: StunMethod, msg_class: StunClass) -> int:
    """Pack method + class into the 14-bit STUN message type."""
    m = int(method)
    c = int(msg_class)
    return (
        ((m & 0xF80) << 2)
        | ((c & 0x2) << 7)
        | ((m & 0x070) << 1)
        | ((c & 0x1) << 4)
        | (m & 0x00F)
    )


def _decode_type(msg_type: int) -> tuple[StunMethod, StunClass]:
    c = ((msg_type >> 7) & 0x2) | ((msg_type >> 4) & 0x1)
    m = ((msg_type >> 2) & 0xF80) | ((msg_type >> 1) & 0x070) | (msg_type & 0x00F)
    try:
        return StunMethod(m), StunClass(c)
    except ValueError as exc:
        raise StunDecodeError(f"unknown STUN method/class in type 0x{msg_type:04x}") from exc


def encode_xor_address(endpoint: Endpoint, transaction_id: bytes) -> bytes:
    """Encode an IPv4 endpoint as an XOR-*-ADDRESS attribute value."""
    xport = endpoint.port ^ (MAGIC_COOKIE >> 16)
    octets = [int(o) for o in endpoint.ip.split(".")]
    xaddr = struct.unpack("!I", bytes(octets))[0] ^ MAGIC_COOKIE
    return struct.pack("!BBHI", 0, 0x01, xport, xaddr)


def decode_xor_address(value: bytes, transaction_id: bytes) -> Endpoint:
    """Undo the magic-cookie XOR of an IPv4 XOR-*-ADDRESS value.

    Raises :class:`StunDecodeError` on a bad length or a non-IPv4 family.
    """
    if len(value) != 8:
        raise StunDecodeError(f"bad XOR address length {len(value)}")
    _, family, xport, xaddr = struct.unpack("!BBHI", value)
    if family != 0x01:
        raise StunDecodeError(f"unsupported address family {family}")
    port = xport ^ (MAGIC_COOKIE >> 16)
    addr = xaddr ^ MAGIC_COOKIE
    ip = ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return Endpoint(ip, port)


def encode_stun(message: StunMessage) -> bytes:
    """Serialise a STUN message to wire bytes."""
    if len(message.transaction_id) != 12:
        raise StunDecodeError("transaction id must be 12 bytes")
    body = b""
    for attribute in message.attributes:
        padded_len = (len(attribute.value) + 3) & ~3
        body += struct.pack("!HH", int(attribute.attr_type), len(attribute.value))
        body += attribute.value + b"\x00" * (padded_len - len(attribute.value))
    header = struct.pack(
        "!HHI",
        _encode_type(message.method, message.msg_class),
        len(body),
        MAGIC_COOKIE,
    )
    return header + message.transaction_id + body


def decode_stun(data: bytes) -> StunMessage:
    """Parse wire bytes into a STUN message, validating framing."""
    if len(data) < HEADER_LEN:
        raise StunDecodeError("datagram shorter than STUN header")
    msg_type, length, cookie = struct.unpack("!HHI", data[:8])
    if msg_type & 0xC000:
        raise StunDecodeError("top bits of STUN type must be zero")
    if cookie != MAGIC_COOKIE:
        raise StunDecodeError("bad magic cookie")
    if len(data) != HEADER_LEN + length:
        raise StunDecodeError(f"length field {length} does not match datagram")
    transaction_id = data[8:20]
    method, msg_class = _decode_type(msg_type)
    message = StunMessage(method, msg_class, transaction_id)
    offset = HEADER_LEN
    while offset < len(data):
        if offset + 4 > len(data):
            raise StunDecodeError("truncated attribute header")
        attr_type, attr_len = struct.unpack("!HH", data[offset : offset + 4])
        offset += 4
        if offset + attr_len > len(data):
            raise StunDecodeError("truncated attribute value")
        value = data[offset : offset + attr_len]
        offset += (attr_len + 3) & ~3
        message.attributes.append(StunAttribute(attr_type, value))
    return message


def is_stun_datagram(data: bytes) -> bool:
    """Cheap demultiplexing check (RFC 7983 style)."""
    return len(data) >= HEADER_LEN and data[0] < 4 and data[4:8] == struct.pack("!I", MAGIC_COOKIE)


def add_message_integrity(message: StunMessage, key: bytes) -> StunMessage:
    """Append a MESSAGE-INTEGRITY attribute (HMAC over the message).

    RFC 5389 computes HMAC-SHA1 over the message up to the attribute;
    this implementation MACs the encoding of all preceding attributes
    with HMAC-SHA256 (stronger, same protocol role: a short-term
    credential proving knowledge of the ICE password)."""
    import hashlib
    import hmac as hmac_mod

    digest = hmac_mod.new(key, encode_stun(message), hashlib.sha256).digest()[:20]
    message.add(AttributeType.MESSAGE_INTEGRITY, digest)
    return message


def verify_message_integrity(message: StunMessage, key: bytes) -> bool:
    """Check the MESSAGE-INTEGRITY attribute; False if absent or wrong."""
    import hashlib
    import hmac as hmac_mod

    mac = message.attr(AttributeType.MESSAGE_INTEGRITY)
    if mac is None:
        return False
    stripped = StunMessage(
        message.method,
        message.msg_class,
        message.transaction_id,
        [a for a in message.attributes if a.attr_type != AttributeType.MESSAGE_INTEGRITY],
    )
    expected = hmac_mod.new(key, encode_stun(stripped), hashlib.sha256).digest()[:20]
    return hmac_mod.compare_digest(mac, expected)


class StunServer:
    """A classic STUN binding server.

    Replies to binding requests with the XOR-MAPPED-ADDRESS it observed,
    which is how NATed peers discover their server-reflexive candidates.
    """

    DEFAULT_PORT = 3478

    def __init__(self, host, port: int = DEFAULT_PORT, software: str = "repro-stun") -> None:
        self.host = host
        self.software = software
        self.socket: UdpSocket = host.bind_udp(port, self._on_datagram)
        self.requests_served = 0

    @property
    def endpoint(self) -> Endpoint:
        """The public address clients send binding requests to."""
        return Endpoint(self.host.public_ip, self.socket.port)

    def _on_datagram(self, data: bytes, src: Endpoint, sock: UdpSocket) -> None:
        if not is_stun_datagram(data):
            return
        try:
            request = decode_stun(data)
        except StunDecodeError:
            return
        if request.method is not StunMethod.BINDING or request.msg_class is not StunClass.REQUEST:
            return
        response = StunMessage(StunMethod.BINDING, StunClass.SUCCESS, request.transaction_id)
        response.add(AttributeType.XOR_MAPPED_ADDRESS, encode_xor_address(src, request.transaction_id))
        response.add(AttributeType.SOFTWARE, self.software.encode())
        self.requests_served += 1
        sock.send(src, encode_stun(response))
