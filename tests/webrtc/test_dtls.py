"""Tests for the DTLS-shaped handshake and record layer."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.clock import EventLoop
from repro.util.errors import DtlsHandshakeError, DtlsRecordError
from repro.util.rand import DeterministicRandom
from repro.webrtc.certificates import Certificate
from repro.webrtc.dtls import DtlsSession, is_dtls_datagram

_HEADER = struct.Struct("!BHHQH")  # type, version, epoch, seq, length
_MAC_LEN = 16


def record_seq(wire: bytes) -> int:
    return _HEADER.unpack(wire[: _HEADER.size])[3]


def with_seq(wire: bytes, seq: int) -> bytes:
    content_type, version, epoch, _, length = _HEADER.unpack(wire[: _HEADER.size])
    return _HEADER.pack(content_type, version, epoch, seq, length) + wire[_HEADER.size :]


class Pipe:
    """A bidirectional in-order datagram pipe with optional tampering."""

    def __init__(self, loop: EventLoop, latency: float = 0.01):
        self.loop = loop
        self.latency = latency
        self.a_to_b_hook = None
        self.b_to_a_hook = None
        self.a = None
        self.b = None

    def send_from_a(self, data: bytes) -> None:
        if self.a_to_b_hook:
            data = self.a_to_b_hook(data)
            if data is None:
                return
        self.loop.schedule(self.latency, lambda: self.b.handle_datagram(data))

    def send_from_b(self, data: bytes) -> None:
        if self.b_to_a_hook:
            data = self.b_to_a_hook(data)
            if data is None:
                return
        self.loop.schedule(self.latency, lambda: self.a.handle_datagram(data))


def make_pair(loop, expected_ok=True, pipe=None):
    rand = DeterministicRandom(11)
    cert_a = Certificate.generate(rand.fork("a"), "alice")
    cert_b = Certificate.generate(rand.fork("b"), "bob")
    pipe = pipe or Pipe(loop)
    expected_b_fp = cert_b.fingerprint if expected_ok else Certificate.generate(
        rand.fork("evil"), "evil"
    ).fingerprint
    a = DtlsSession(
        loop, rand.fork("sa"), "client", cert_a, expected_b_fp, send=pipe.send_from_a
    )
    b = DtlsSession(
        loop, rand.fork("sb"), "server", cert_b, cert_a.fingerprint, send=pipe.send_from_b
    )
    pipe.a, pipe.b = a, b
    return a, b, pipe


class TestHandshake:
    def test_both_sides_establish(self):
        loop = EventLoop()
        a, b, _ = make_pair(loop)
        a.start()
        loop.run(5.0)
        assert a.established and b.established

    def test_established_callbacks_fire(self):
        loop = EventLoop()
        a, b, _ = make_pair(loop)
        events = []
        a.on_established = lambda: events.append("a")
        b.on_established = lambda: events.append("b")
        a.start()
        loop.run(5.0)
        assert sorted(events) == ["a", "b"]

    def test_fingerprint_mismatch_aborts(self):
        loop = EventLoop()
        a, b, _ = make_pair(loop, expected_ok=False)
        errors = []
        a.on_error = errors.append
        a.start()
        loop.run(5.0)
        assert not a.established and a.failed
        assert any(isinstance(e, DtlsHandshakeError) for e in errors)
        assert a.auth_failures == 1

    def test_handshake_survives_packet_loss(self):
        loop = EventLoop()
        pipe = Pipe(loop)
        drops = {"n": 0}

        def lossy(data):
            # drop the first two flights in each direction
            if drops["n"] < 2:
                drops["n"] += 1
                return None
            return data

        pipe.a_to_b_hook = lossy
        a, b, _ = make_pair(loop, pipe=pipe)
        a.start()
        loop.run(10.0)
        assert a.established and b.established

    def test_handshake_times_out_on_dead_peer(self):
        loop = EventLoop()
        pipe = Pipe(loop)
        pipe.a_to_b_hook = lambda data: None  # black hole
        a, b, _ = make_pair(loop, pipe=pipe)
        errors = []
        a.on_error = errors.append
        a.start()
        loop.run(30.0)
        assert not a.established
        assert a.failed
        assert any("timed out" in str(e) for e in errors)


class TestRecords:
    def _established_pair(self, loop):
        a, b, pipe = make_pair(loop)
        a.start()
        loop.run(5.0)
        assert a.established and b.established
        return a, b, pipe

    def test_application_data_round_trip(self):
        loop = EventLoop()
        a, b, _ = self._established_pair(loop)
        got = []
        b.on_data = got.append
        a.send_application(b"segment-bytes" * 100)
        loop.run(1.0)
        assert got == [b"segment-bytes" * 100]

    def test_data_both_directions(self):
        loop = EventLoop()
        a, b, _ = self._established_pair(loop)
        got_a, got_b = [], []
        a.on_data = got_a.append
        b.on_data = got_b.append
        a.send_application(b"to-b")
        b.send_application(b"to-a")
        loop.run(1.0)
        assert got_b == [b"to-b"] and got_a == [b"to-a"]

    def test_ciphertext_differs_from_plaintext(self):
        loop = EventLoop()
        pipe = Pipe(loop)
        wires = []
        a, b, _ = make_pair(loop, pipe=pipe)
        a.start()
        loop.run(5.0)
        pipe.a_to_b_hook = lambda data: (wires.append(data), data)[1]
        a.send_application(b"SECRET-VIDEO-SEGMENT")
        loop.run(1.0)
        assert wires and all(b"SECRET-VIDEO-SEGMENT" not in w for w in wires)

    def test_tampered_record_rejected(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        got, errors = [], []
        b.on_data = got.append
        b.on_error = errors.append

        def tamper(data):
            raw = bytearray(data)
            raw[-1] ^= 0xFF
            return bytes(raw)

        pipe.a_to_b_hook = tamper
        a.send_application(b"payload")
        loop.run(1.0)
        assert got == []
        assert any(isinstance(e, DtlsRecordError) for e in errors)
        assert b.auth_failures == 1

    def test_flipped_ciphertext_byte_rejected(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        got, errors = [], []
        b.on_data = got.append
        b.on_error = errors.append

        def tamper(data):
            raw = bytearray(data)
            raw[_HEADER.size] ^= 0x01  # first ciphertext byte; the MAC is untouched
            return bytes(raw)

        pipe.a_to_b_hook = tamper
        a.send_application(b"payload")
        loop.run(1.0)
        assert got == []
        assert b.auth_failures == 1
        assert any("MAC" in str(e) for e in errors)

    def test_record_replayed_under_new_seq_rejected(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        wires, got = [], []
        b.on_data = got.append
        pipe.a_to_b_hook = lambda data: (wires.append(data), data)[1]
        a.send_application(b"segment")
        loop.run(1.0)
        assert got == [b"segment"] and len(wires) == 1
        b.handle_datagram(with_seq(wires[0], record_seq(wires[0]) + 1))
        assert got == [b"segment"]
        assert b.auth_failures == 1

    def test_directions_seal_differently(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        a_wires, b_wires = [], []
        pipe.a_to_b_hook = lambda data: (a_wires.append(data), data)[1]
        pipe.b_to_a_hook = lambda data: (b_wires.append(data), data)[1]
        plaintext = b"the same segment bytes both ways"
        a.send_application(plaintext)
        b.send_application(plaintext)
        loop.run(1.0)
        assert len(a_wires) == len(b_wires) == 1
        a_body = a_wires[0][_HEADER.size : -_MAC_LEN]
        b_body = b_wires[0][_HEADER.size : -_MAC_LEN]
        assert len(a_body) == len(b_body) == len(plaintext)
        assert a_body != b_body

    def test_tables_round_trip_every_byte_value(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        every_byte = bytes(range(256))
        wires, got_a, got_b = [], [], []
        pipe.a_to_b_hook = lambda data: (wires.append(data), data)[1]
        pipe.b_to_a_hook = lambda data: (wires.append(data), data)[1]
        a.on_data = got_a.append
        b.on_data = got_b.append
        a.send_application(every_byte)
        b.send_application(every_byte)
        loop.run(1.0)
        assert got_b == [every_byte] and got_a == [every_byte]
        for wire in wires:
            sealed = wire[_HEADER.size : -_MAC_LEN]
            assert sealed != every_byte
            assert sorted(sealed) == list(every_byte)  # a permutation of the byte values

    def test_oversize_record_raises_and_burns_no_sequence_number(self):
        loop = EventLoop()
        a, b, pipe = self._established_pair(loop)
        wires, got = [], []
        b.on_data = got.append
        pipe.a_to_b_hook = lambda data: (wires.append(data), data)[1]
        a.send_application(b"before")
        loop.run(1.0)
        sent_before = a.records_sent
        largest = 0xFFFF - _MAC_LEN  # the sealed record just fills the 16-bit length
        with pytest.raises(DtlsRecordError, match="record limit"):
            a.send_application(bytes(largest + 1))
        assert a.records_sent == sent_before and len(wires) == 1
        a.send_application(bytes(largest))
        loop.run(1.0)
        assert got == [b"before", bytes(largest)]
        assert record_seq(wires[1]) == record_seq(wires[0]) + 1
        assert a.records_sent == sent_before + 1

    @pytest.mark.parametrize("datagram", [
        pytest.param(_HEADER.pack(23, 0xFEFD, 1, 7, 3) + b"abc", id="appdata-shorter-than-mac"),
        pytest.param(_HEADER.pack(23, 0xFEFD, 1, 7, 40) + bytes(20), id="length-mismatch"),
        pytest.param(b"\x17\xfe\xfd\x00", id="shorter-than-header"),
        pytest.param(_HEADER.pack(23, 0xFEFF, 1, 7, 20) + bytes(20), id="bad-version"),
        pytest.param(_HEADER.pack(22, 0xFEFD, 0, 7, 3) + b"\xff\x00{", id="handshake-not-json"),
        pytest.param(_HEADER.pack(22, 0xFEFD, 0, 7, 18) + b'{"flight": "nope"}',
                     id="handshake-not-a-flight"),
        pytest.param(_HEADER.pack(22, 0xFEFD, 0, 7, 3) + b"[1]", id="handshake-not-an-object"),
    ])
    def test_invalid_record_is_dropped_and_the_session_stays_up(self, datagram):
        loop = EventLoop()
        a, b, _ = self._established_pair(loop)
        got, errors = [], []
        b.on_data = got.append
        b.on_error = errors.append
        b.handle_datagram(datagram)
        assert not b.failed and b.established
        assert b.auth_failures == 1
        assert len(errors) == 1 and isinstance(errors[0], DtlsRecordError)
        a.send_application(b"after")
        loop.run(1.0)
        assert got == [b"after"]

    def test_send_before_established_raises(self):
        loop = EventLoop()
        a, _, _ = make_pair(loop)
        with pytest.raises(DtlsRecordError):
            a.send_application(b"too soon")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_arbitrary_payload_round_trip(self, payload: bytes):
        loop = EventLoop()
        a, b, _ = make_pair(loop)
        a.start()
        loop.run(5.0)
        got = []
        b.on_data = got.append
        a.send_application(payload)
        loop.run(1.0)
        assert got == [payload]


class TestDemux:
    def test_records_detected_as_dtls(self):
        loop = EventLoop()
        pipe = Pipe(loop)
        wires = []
        pipe.a_to_b_hook = lambda data: (wires.append(data), data)[1]
        a, b, _ = make_pair(loop, pipe=pipe)
        a.start()
        loop.run(5.0)
        assert wires and all(is_dtls_datagram(w) for w in wires)

    def test_stun_not_dtls(self):
        assert not is_dtls_datagram(b"\x00\x01\x00\x00\x21\x12\xa4\x42" + b"\x00" * 12)
