"""A DTLS-shaped handshake and record layer.

What is faithful to DTLS 1.2 here is everything the paper's analyses
observe or depend on:

- record framing (content type, version ``0xFEFD``, epoch, sequence
  number, length) so the traffic classifier can demultiplex DTLS from
  STUN exactly like Wireshark does;
- a certificate exchange verified against the fingerprint signaled in
  the SDP — a fingerprint mismatch aborts the handshake;
- a MAC-authenticated application-data epoch (HMAC-SHA256 over
  ``seq || ciphertext``, truncated to 16 bytes), so on-path tampering
  with peer-to-peer segments is detected (which is *why* the paper's
  pollution attack must inject before encryption, at the fake CDN).

No plaintext crosses the wire: each direction scrambles its records
through a byte-substitution table drawn from its write key. Like the
key schedule (`SHA-256` over public values and nonces), that models
the flow, not the cryptographic strength.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
from typing import Callable

from repro.net.clock import EventLoop
from repro.util.encoding import b64url_decode, b64url_encode
from repro.util.errors import DtlsHandshakeError, DtlsRecordError
from repro.util.rand import DeterministicRandom
from repro.webrtc.certificates import Certificate

DTLS_VERSION = 0xFEFD  # DTLS 1.2 on the wire
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPDATA = 23

_RECORD_HEADER = struct.Struct("!BHHQH")  # type, version, epoch, seq, length
_MAC_LEN = 16
_MAX_APPDATA = 0xFFFF - _MAC_LEN  # the sealed record must fit the 16-bit length
_HANDSHAKE_RETRANSMIT = 0.5
_MAX_RETRANSMITS = 6


def is_dtls_datagram(data: bytes) -> bool:
    """RFC 7983-style demultiplexing check for DTLS records."""
    if len(data) < _RECORD_HEADER.size:
        return False
    if not 20 <= data[0] <= 63:
        return False
    (version,) = struct.unpack("!H", data[1:3])
    return version == DTLS_VERSION


def _encode_record(content_type: int, epoch: int, seq: int, payload: bytes) -> bytes:
    return _RECORD_HEADER.pack(content_type, DTLS_VERSION, epoch, seq, len(payload)) + payload


def _decode_record(data: bytes) -> tuple[int, int, int, bytes]:
    if len(data) < _RECORD_HEADER.size:
        raise DtlsRecordError("datagram shorter than record header")
    content_type, version, epoch, seq, length = _RECORD_HEADER.unpack(data[: _RECORD_HEADER.size])
    if version != DTLS_VERSION:
        raise DtlsRecordError(f"bad DTLS version 0x{version:04x}")
    payload = data[_RECORD_HEADER.size :]
    if len(payload) != length:
        raise DtlsRecordError("record length mismatch")
    return content_type, epoch, seq, payload


def _parse_flight(payload: bytes) -> list[dict] | None:
    """The handshake messages a record carries, or None if it holds no flight."""
    try:
        body = json.loads(payload.decode())
    except ValueError:  # UnicodeDecodeError included
        return None
    flight = body.get("flight") if isinstance(body, dict) else None
    if not isinstance(flight, list) or not all(isinstance(m, dict) for m in flight):
        return None
    return flight


def _substitution(key: bytes) -> bytes:
    """A byte permutation drawn from ``key``: the ``bytes.translate`` table."""
    return bytes(sorted(range(256), key=hashlib.shake_256(key).digest(256).__getitem__))


def _record_mac(key: bytes, seq: int, ciphertext: bytes) -> bytes:
    """HMAC-SHA256 over ``seq || ciphertext``, truncated to 16 bytes."""
    return hmac.digest(key, struct.pack("!Q", seq) + ciphertext, "sha256")[:_MAC_LEN]


class DtlsSession:
    """One end of a DTLS association over an unreliable datagram path.

    The caller supplies ``send`` (raw datagram out) and feeds inbound
    datagrams to :meth:`handle_datagram`. ``role`` is ``"client"`` for
    the side that initiates (in WebRTC, per the SDP ``setup`` attribute).
    """

    def __init__(
        self,
        loop: EventLoop,
        rand: DeterministicRandom,
        role: str,
        certificate: Certificate,
        expected_fingerprint: str | None,
        send: Callable[[bytes], None],
        on_established: Callable[[], None] | None = None,
        on_data: Callable[[bytes], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        if role not in ("client", "server"):
            raise DtlsHandshakeError(f"role must be client or server, got {role!r}")
        self.loop = loop
        self.rand = rand
        self.role = role
        self.certificate = certificate
        self.expected_fingerprint = expected_fingerprint
        self._send_raw = send
        self.on_established = on_established
        self.on_data = on_data
        self.on_error = on_error

        self.established = False
        self.failed = False
        self.local_random = rand.bytes(32)
        self.remote_random: bytes | None = None
        self.remote_public_key: bytes | None = None
        self._send_seq = 0
        self._handshake_seq = 0
        self._write_key: bytes | None = None
        self._read_key: bytes | None = None
        self._seal_table: bytes | None = None
        self._open_table: bytes | None = None
        self._last_flight: list[bytes] = []
        self._retransmits = 0
        self._retransmit_timer = None
        self.records_sent = 0
        self.records_received = 0
        self.auth_failures = 0

    # -- handshake driving -------------------------------------------------

    def start(self) -> None:
        """Client sends ClientHello; server waits."""
        if self.role == "client":
            self._send_handshake(
                {"msg": "client_hello", "random": b64url_encode(self.local_random)}
            )

    def _send_handshake(self, *messages: dict) -> None:
        # A whole flight travels in one record, like DTLS packing multiple
        # handshake messages per record: per-datagram network jitter can
        # reorder separate datagrams, but never splits a flight.
        payload = json.dumps({"flight": list(messages)}, sort_keys=True).encode()
        record = _encode_record(CONTENT_HANDSHAKE, 0, self._next_seq(), payload)
        self._last_flight = [record]
        self._retransmits = 0
        self.records_sent += 1
        self._send_raw(record)
        self._arm_retransmit()

    def _arm_retransmit(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        if self.established or self.failed:
            return
        self._retransmit_timer = self.loop.schedule(_HANDSHAKE_RETRANSMIT, self._retransmit)

    def _retransmit(self) -> None:
        if self.established or self.failed or not self._last_flight:
            return
        self._retransmits += 1
        if self._retransmits > _MAX_RETRANSMITS:
            self._fail(DtlsHandshakeError("handshake timed out"))
            return
        for record in self._last_flight:
            self.records_sent += 1
            self._send_raw(record)
        self._retransmit_timer = self.loop.schedule(_HANDSHAKE_RETRANSMIT, self._retransmit)

    def _next_seq(self) -> int:
        seq = self._send_seq
        self._send_seq += 1
        return seq

    def _fail(self, error: Exception) -> None:
        self.failed = True
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        if self.on_error is not None:
            self.on_error(error)

    # -- key schedule -------------------------------------------------------

    def _derive_keys(self) -> None:
        assert self.remote_random is not None and self.remote_public_key is not None
        publics = sorted([self.certificate.public_key, self.remote_public_key])
        randoms = sorted([self.local_random, self.remote_random])
        master = hashlib.sha256(b"master" + publics[0] + publics[1] + randoms[0] + randoms[1]).digest()
        client_key = hmac.new(master, b"client-write", hashlib.sha256).digest()
        server_key = hmac.new(master, b"server-write", hashlib.sha256).digest()
        if self.role == "client":
            self._write_key, self._read_key = client_key, server_key
        else:
            self._write_key, self._read_key = server_key, client_key
        # Each table comes from its own direction's key alone, so this
        # end's seal table is the peer's open table inverted.
        self._seal_table = _substitution(self._write_key)
        self._open_table = bytes.maketrans(_substitution(self._read_key), bytes(range(256)))

    def _transcript(self) -> bytes:
        """Canonical handshake transcript: client random then server random."""
        assert self.remote_random is not None
        if self.role == "client":
            return self.local_random + self.remote_random
        return self.remote_random + self.local_random

    def _finished_mac(self, key: bytes) -> str:
        digest = hmac.new(key, b"finished" + self._transcript(), hashlib.sha256).digest()[:16]
        return b64url_encode(digest)

    def _verify_certificate(self, message: dict) -> bytes:
        public_key = b64url_decode(message["public_key"])
        fingerprint = Certificate.fingerprint_of(public_key)
        if self.expected_fingerprint is not None and fingerprint != self.expected_fingerprint:
            self.auth_failures += 1
            raise DtlsHandshakeError(
                f"certificate fingerprint mismatch: got {fingerprint[:24]}..., "
                f"expected {self.expected_fingerprint[:24]}..."
            )
        return public_key

    # -- inbound ------------------------------------------------------------

    def handle_datagram(self, data: bytes) -> None:
        """Process one inbound datagram: a handshake flight or an application record.

        As in DTLS (RFC 6347 §4.1.2.7), an invalid record is discarded:
        one that does not parse, a handshake record that carries no
        flight, or an application record too short for its MAC or
        failing it is counted in ``auth_failures``, reported to
        ``on_error`` and dropped, and the session stays up. Only a
        fingerprint mismatch, a bad Finished MAC or a handshake timeout
        fail the session.
        """
        if self.failed:
            return
        try:
            content_type, epoch, seq, payload = _decode_record(data)
        except DtlsRecordError as exc:
            self._drop(exc)
            return
        self.records_received += 1
        if content_type == CONTENT_HANDSHAKE and epoch == 0:
            flight = _parse_flight(payload)
            if flight is None:
                self._drop(DtlsRecordError("handshake record carries no flight"))
                return
            try:
                for message in flight:
                    self._handle_handshake(message)
            except DtlsHandshakeError as exc:
                self._fail(exc)
        elif content_type == CONTENT_APPDATA and epoch == 1:
            self._handle_appdata(seq, payload)

    def _drop(self, error: DtlsRecordError) -> None:
        """Discard one invalid record: count it and report it, nothing more."""
        self.auth_failures += 1
        if self.on_error is not None:
            self.on_error(error)

    def _handle_handshake(self, message: dict) -> None:
        kind = message.get("msg")
        if kind == "client_hello" and self.role == "server":
            if self.remote_random is None:
                self.remote_random = b64url_decode(message["random"])
            self._send_handshake(
                {"msg": "server_hello", "random": b64url_encode(self.local_random)},
                {
                    "msg": "certificate",
                    "subject": self.certificate.subject,
                    "public_key": b64url_encode(self.certificate.public_key),
                },
            )
        elif kind == "server_hello" and self.role == "client":
            self.remote_random = b64url_decode(message["random"])
        elif kind == "certificate" and self.role == "client":
            if self.remote_random is None:
                return  # stale retransmission; the server will resend the flight
            if self._write_key is not None:
                return  # duplicate flight already processed
            self.remote_public_key = self._verify_certificate(message)
            self._derive_keys()
            assert self._write_key is not None
            self._send_handshake(
                {
                    "msg": "certificate",
                    "subject": self.certificate.subject,
                    "public_key": b64url_encode(self.certificate.public_key),
                },
                {"msg": "finished", "mac": self._finished_mac(self._write_key)},
            )
        elif kind == "certificate" and self.role == "server":
            if self.remote_public_key is not None:
                return  # duplicate client flight
            self.remote_public_key = self._verify_certificate(message)
            self._derive_keys()
        elif kind == "finished":
            if self._read_key is None:
                return  # arrived before key derivation; peer will retransmit
            expected = hmac.new(
                self._read_key, b"finished" + self._transcript(), hashlib.sha256
            ).digest()[:16]
            if b64url_decode(message["mac"]) != expected:
                raise DtlsHandshakeError("finished MAC verification failed")
            if self.role == "server":
                assert self._write_key is not None
                self._send_handshake({"msg": "finished", "mac": self._finished_mac(self._write_key)})
            self._establish()
        # Duplicate/replayed flights for the wrong role are ignored, which
        # is what makes retransmission safe.

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        self._last_flight = []
        if self.on_established is not None:
            self.on_established()

    # -- application data -----------------------------------------------------

    def send_application(self, payload: bytes) -> None:
        """Seal ``payload`` into one application record and send it.

        Raises :class:`DtlsRecordError` before the handshake completes or
        when the sealed record would overflow the 16-bit length field;
        either way no sequence number is used and nothing is counted.
        """
        if not self.established or self._seal_table is None:
            raise DtlsRecordError("cannot send application data before handshake completes")
        if len(payload) > _MAX_APPDATA:
            raise DtlsRecordError(
                f"payload of {len(payload)} bytes exceeds the {_MAX_APPDATA}-byte record limit"
            )
        seq = self._next_seq()
        ciphertext = payload.translate(self._seal_table)
        mac = _record_mac(self._write_key, seq, ciphertext)
        self.records_sent += 1
        self._send_raw(_encode_record(CONTENT_APPDATA, 1, seq, ciphertext + mac))

    def _handle_appdata(self, seq: int, payload: bytes) -> None:
        if not self.established or self._open_table is None:
            return  # app data racing the final flight; sender will retransmit
        if len(payload) < _MAC_LEN:
            self._drop(DtlsRecordError("application record too short"))
            return
        ciphertext, mac = payload[:-_MAC_LEN], payload[-_MAC_LEN:]
        if not hmac.compare_digest(mac, _record_mac(self._read_key, seq, ciphertext)):
            self._drop(DtlsRecordError("record MAC verification failed"))
            return
        if self.on_data is not None:
            self.on_data(ciphertext.translate(self._open_table))
