"""Auto-retune: the send path re-derives wheel geometry on its own.

``Network.send_datagram`` hits :meth:`Network._auto_retune_check` every
:data:`AUTO_RETUNE_CHECK_INTERVAL` datagrams: the first boundary is the
unconditional warm-up retune, later boundaries retune only when the
per-window overflow share crosses :data:`AUTO_RETUNE_OVERFLOW_SHARE`.
Triggers key on the deterministic datagram counter, so they land at
identical simulation moments on every run of a seed.
"""

from __future__ import annotations

import pytest

from repro.net import EventLoop, Network
from repro.net.network import AUTO_RETUNE_CHECK_INTERVAL, AUTO_RETUNE_OVERFLOW_SHARE
from repro.util.rand import DeterministicRandom


def make_network(**kwargs) -> Network:
    return Network(EventLoop(), rand=DeterministicRandom(1), **kwargs)


def count_tunes(net: Network, monkeypatch) -> list[int]:
    """Instrument ``_tune_wheel``; returns a growing call log."""
    calls: list[int] = []
    original = net._tune_wheel

    def spy() -> None:
        calls.append(net.datagrams_sent)
        original()

    monkeypatch.setattr(net, "_tune_wheel", spy)
    return calls


def send_one(net: Network, src, dst_endpoint) -> None:
    net.send_datagram(src, 40000, dst_endpoint, b"x")


class TestWarmupRetune:
    def test_first_boundary_retunes_unconditionally(self, monkeypatch):
        net = make_network()
        a = net.add_host("a", region="us")
        b = net.add_host("b", region="us")
        sock = b.bind_udp(9000)
        calls = count_tunes(net, monkeypatch)

        net.datagrams_sent = AUTO_RETUNE_CHECK_INTERVAL - 2
        send_one(net, a, sock.endpoint)
        assert calls == []  # one short of the boundary
        send_one(net, a, sock.endpoint)
        assert calls == [AUTO_RETUNE_CHECK_INTERVAL]
        assert net._retune_warmed

    def test_boundary_check_is_a_power_of_two_mask(self):
        # The hot path uses `counter & (INTERVAL - 1)`; the constant
        # must stay a power of two or boundaries silently vanish.
        assert AUTO_RETUNE_CHECK_INTERVAL & (AUTO_RETUNE_CHECK_INTERVAL - 1) == 0

    def test_warmup_narrows_geometry_to_observed_band(self):
        net = make_network()
        a = net.add_host("a", region="us")
        b = net.add_host("b", region="us")
        sock = b.bind_udp(9000)
        coarse = (net.loop._wheel_width, net.loop._wheel_slots)

        net.datagrams_sent = AUTO_RETUNE_CHECK_INTERVAL - 1
        send_one(net, a, sock.endpoint)
        narrowed = (net.loop._wheel_width, net.loop._wheel_slots)
        # Same-region traffic only: the band shrinks from the
        # cross-region worst case the constructor assumed.
        assert narrowed[0] < coarse[0]


class TestOverflowThreshold:
    def warmed_network(self, monkeypatch) -> tuple[Network, list[int]]:
        net = make_network()
        net._retune_warmed = True
        calls = count_tunes(net, monkeypatch)
        return net, calls

    def test_quiet_window_does_not_retune(self, monkeypatch):
        net, calls = self.warmed_network(monkeypatch)
        net.loop.wheel_scheduled = 1000
        net.loop.wheel_overflow = 10
        net._auto_retune_check()
        assert calls == []
        # The mark advances so the next window measures fresh deltas.
        assert net._retune_mark == (1000, 10)

    def test_overflow_share_at_threshold_retunes(self, monkeypatch):
        net, calls = self.warmed_network(monkeypatch)
        net._retune_mark = (1000, 10)
        net.loop.wheel_scheduled = 1000 + 75
        net.loop.wheel_overflow = 10 + 25  # exactly 25% of the window
        net._auto_retune_check()
        assert len(calls) == 1
        assert AUTO_RETUNE_OVERFLOW_SHARE == 0.25

    def test_share_is_per_window_not_cumulative(self, monkeypatch):
        # A heavy-overflow past hidden behind the mark must not trigger:
        # only the deltas since the previous boundary count.
        net, calls = self.warmed_network(monkeypatch)
        net._retune_mark = (100, 900)  # a terrible but already-seen past
        net.loop.wheel_scheduled = 100 + 99
        net.loop.wheel_overflow = 900 + 1
        net._auto_retune_check()
        assert calls == []

    def test_empty_window_is_a_no_op(self, monkeypatch):
        net, calls = self.warmed_network(monkeypatch)
        net._auto_retune_check()
        assert calls == []


class TestOptOuts:
    def test_disabled_wheel_left_alone(self, monkeypatch):
        # tests/chaos/test_timing_wheel.py turns the wheel off outright
        # to prove heap/wheel equivalence; auto-retune must not
        # silently re-enable it.
        net = make_network()
        net.loop.configure_wheel(None, 0)
        calls = count_tunes(net, monkeypatch)
        net._auto_retune_check()
        assert calls == []
        assert not net.loop._wheel_slots

    def test_unchanged_geometry_short_circuits(self):
        # configure_wheel_for_band with the same derived band must not
        # rebuild the wheel (retunes at scale would otherwise churn).
        net = make_network()
        loop = net.loop
        net._tune_wheel()
        geometry = (loop._wheel_width, loop._wheel_slots)
        buckets = loop._wheel  # a rebuild allocates a fresh bucket list
        net._tune_wheel()
        assert (loop._wheel_width, loop._wheel_slots) == geometry
        assert loop._wheel is buckets


class TestCrossRegionBand:
    """Regression: a retune must keep the cross-region band once seen.

    The send paths set ``_saw_cross_region`` on the first cross-region
    datagram. A knob assignment retunes the wheel after traffic has
    flowed; if the flag were lost, the wheel would narrow to the
    same-region band and every later cross-region delivery would
    overflow to the heap.
    """

    def cross_width(self, net: Network) -> float:
        return 2.0 * (net.cross_region_latency + net.jitter) / net.loop._wheel_slots

    def test_same_region_and_regionless_sends_do_not_set_the_flag(self):
        net = make_network()
        us = net.add_host("a", region="us")
        bare = net.add_host("c")
        sock = net.add_host("b", region="us").bind_udp(9000)
        bare_sock = bare.bind_udp(9000)
        send_one(net, us, sock.endpoint)
        send_one(net, us, bare_sock.endpoint)
        send_one(net, bare, sock.endpoint)
        assert not net._saw_cross_region

    def test_retune_after_knob_clear_keeps_cross_region_geometry(self):
        net = make_network()
        us = net.add_host("a", region="us")
        eu = net.add_host("b", region="eu")
        assert not net._saw_cross_region
        send_one(net, us, eu.bind_udp(9000).endpoint)  # one real cross-region send
        assert net._saw_cross_region
        # Assigning a knob retunes; the wheel must still be sized for
        # the cross-region band.
        net.base_latency = net.base_latency
        assert net.loop._wheel_width == pytest.approx(self.cross_width(net))
