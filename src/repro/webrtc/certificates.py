"""Self-signed certificates for the DTLS-like handshake.

WebRTC peers authenticate DTLS with self-signed certificates whose
fingerprints travel in the signaled SDP. We model a certificate as a
random secret plus a derived public value; the fingerprint is the
SHA-256 of the public value formatted the way SDP ``a=fingerprint``
lines are. The key *schedule* built on top (see :mod:`repro.webrtc.dtls`)
is a simulation of the protocol flow, not real public-key cryptography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.util.rand import DeterministicRandom


@dataclass(frozen=True)
class Certificate:
    """A self-signed certificate (toy keypair: public = SHA-256(secret))."""

    subject: str
    secret: bytes = field(repr=False)

    @classmethod
    def generate(cls, rand: DeterministicRandom, subject: str) -> "Certificate":
        """A certificate for ``subject`` with a fresh 32-byte secret drawn from ``rand``."""
        return cls(subject=subject, secret=rand.bytes(32))

    @property
    def public_key(self) -> bytes:
        """The value peers see and fingerprint: SHA-256 of ``b"pub:" + secret``."""
        return hashlib.sha256(b"pub:" + self.secret).digest()

    @property
    def fingerprint(self) -> str:
        """SDP-style ``sha-256 AA:BB:...`` fingerprint of the public key."""
        digest = hashlib.sha256(self.public_key).hexdigest().upper()
        return "sha-256 " + ":".join(digest[i : i + 2] for i in range(0, len(digest), 2))

    @staticmethod
    def fingerprint_of(public_key: bytes) -> str:
        """The SDP ``sha-256 AA:BB:...`` fingerprint of a received public value."""
        digest = hashlib.sha256(public_key).hexdigest().upper()
        return "sha-256 " + ":".join(digest[i : i + 2] for i in range(0, len(digest), 2))
