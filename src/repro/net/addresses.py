"""IPv4 endpoints and address classification.

The paper's in-the-wild IP-leak analysis (§IV-D) classifies harvested
addresses into public IPs and *bogons* — private (RFC 1918), shared
CGNAT space (RFC 6598), and reserved ranges. :func:`classify_ip`
implements exactly that taxonomy so the leak experiment can reproduce
the paper's 7,159-public / 581-bogon split.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.util.errors import ConfigurationError


class Endpoint(NamedTuple):
    """An (ip, port) transport address."""

    ip: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.ip}:{self.port}"


class IpClass(enum.Enum):
    """Coarse address classes used in the leak analysis."""

    PUBLIC = "public"
    PRIVATE = "private"  # RFC 1918
    SHARED_NAT = "shared_nat"  # RFC 6598 (100.64.0.0/10), used by carrier NAT
    RESERVED = "reserved"  # loopback, link-local, 240/4, 0/8, multicast


def ip_to_int(ip: str) -> int:
    """Parse dotted-quad IPv4 into an int, validating each octet."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ConfigurationError(f"invalid IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ConfigurationError(f"invalid IPv4 address: {ip!r}")
        octet = int(part)
        if octet > 255:
            raise ConfigurationError(f"invalid IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit int as dotted-quad IPv4."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ConfigurationError(f"ip int out of range: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


#: ``(base, mask, class)`` per bogon block, in the order
#: :func:`classify_ip` tests them: private, shared NAT, then reserved.
_BOGON_BLOCKS: tuple[tuple[int, int, IpClass], ...] = tuple(
    (ip_to_int(network), (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF, ip_class)
    for network, prefix, ip_class in (
        ("10.0.0.0", 8, IpClass.PRIVATE),
        ("172.16.0.0", 12, IpClass.PRIVATE),
        ("192.168.0.0", 16, IpClass.PRIVATE),
        ("100.64.0.0", 10, IpClass.SHARED_NAT),
        ("0.0.0.0", 8, IpClass.RESERVED),
        ("127.0.0.0", 8, IpClass.RESERVED),
        ("169.254.0.0", 16, IpClass.RESERVED),
        ("192.0.2.0", 24, IpClass.RESERVED),
        ("198.51.100.0", 24, IpClass.RESERVED),
        ("203.0.113.0", 24, IpClass.RESERVED),
        ("224.0.0.0", 4, IpClass.RESERVED),
        ("240.0.0.0", 4, IpClass.RESERVED),
    )
)


def classify_ip_int(value: int) -> IpClass:
    """Classify an already-parsed IPv4 address (see :func:`classify_ip`)."""
    for base, mask, ip_class in _BOGON_BLOCKS:
        if value & mask == base:
            return ip_class
    return IpClass.PUBLIC


def classify_ip(ip: str) -> IpClass:
    """Classify an IPv4 address per the paper's bogon taxonomy."""
    return classify_ip_int(ip_to_int(ip))


def is_bogon(ip: str) -> bool:
    """True for any non-public (private/shared/reserved) address."""
    return classify_ip(ip) is not IpClass.PUBLIC
