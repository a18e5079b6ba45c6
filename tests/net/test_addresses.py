"""Tests for IPv4 parsing and bogon classification."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import (
    Endpoint,
    IpClass,
    classify_ip,
    int_to_ip,
    ip_to_int,
    is_bogon,
)
from repro.util.errors import ConfigurationError


class TestParsing:
    def test_round_trip_known(self):
        assert ip_to_int("1.2.3.4") == 0x01020304
        assert int_to_ip(0x01020304) == "1.2.3.4"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_round_trip_property(self, value: int):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", ""])
    def test_invalid_rejected(self, bad: str):
        with pytest.raises(ConfigurationError):
            ip_to_int(bad)


class TestClassification:
    """The paper's §IV-D taxonomy: 543 private, 33 shared-NAT, 5 reserved."""

    @pytest.mark.parametrize(
        "ip,expected",
        [
            ("8.8.8.8", IpClass.PUBLIC),
            ("5.0.0.1", IpClass.PUBLIC),
            ("10.1.2.3", IpClass.PRIVATE),
            ("172.16.0.1", IpClass.PRIVATE),
            ("172.31.255.255", IpClass.PRIVATE),
            ("172.32.0.1", IpClass.PUBLIC),  # just outside 172.16/12
            ("192.168.1.1", IpClass.PRIVATE),
            ("100.64.0.1", IpClass.SHARED_NAT),  # RFC 6598 carrier NAT
            ("100.127.255.255", IpClass.SHARED_NAT),
            ("100.128.0.1", IpClass.PUBLIC),  # just outside 100.64/10
            ("127.0.0.1", IpClass.RESERVED),
            ("169.254.1.1", IpClass.RESERVED),
            ("240.0.0.1", IpClass.RESERVED),
            ("224.0.0.5", IpClass.RESERVED),
        ],
    )
    def test_classes(self, ip: str, expected: IpClass):
        assert classify_ip(ip) is expected

    def test_is_bogon(self):
        assert is_bogon("192.168.0.10")
        assert is_bogon("100.64.3.2")
        assert not is_bogon("93.184.216.34")


class TestEndpoint:
    def test_str(self):
        assert str(Endpoint("1.2.3.4", 80)) == "1.2.3.4:80"

    def test_equality_and_hash(self):
        assert Endpoint("1.1.1.1", 1) == Endpoint("1.1.1.1", 1)
        assert len({Endpoint("1.1.1.1", 1), Endpoint("1.1.1.1", 1)}) == 1


#: The taxonomy restated with the standard library, in the order
#: classify_ip tests the blocks: private, shared NAT, then reserved.
ORACLE_BLOCKS = [
    (ipaddress.ip_network(cidr), ip_class)
    for cidr, ip_class in (
        ("10.0.0.0/8", IpClass.PRIVATE),
        ("172.16.0.0/12", IpClass.PRIVATE),
        ("192.168.0.0/16", IpClass.PRIVATE),
        ("100.64.0.0/10", IpClass.SHARED_NAT),
        ("0.0.0.0/8", IpClass.RESERVED),
        ("127.0.0.0/8", IpClass.RESERVED),
        ("169.254.0.0/16", IpClass.RESERVED),
        ("192.0.2.0/24", IpClass.RESERVED),
        ("198.51.100.0/24", IpClass.RESERVED),
        ("203.0.113.0/24", IpClass.RESERVED),
        ("224.0.0.0/4", IpClass.RESERVED),
        ("240.0.0.0/4", IpClass.RESERVED),
    )
]


def oracle_class(value: int) -> IpClass:
    address = ipaddress.ip_address(value)
    for network, ip_class in ORACLE_BLOCKS:
        if address in network:
            return ip_class
    return IpClass.PUBLIC


class TestClassificationOracle:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_random_addresses_match_stdlib(self, value: int):
        assert classify_ip(int_to_ip(value)) is oracle_class(value)

    @pytest.mark.parametrize("network", [network for network, _ in ORACLE_BLOCKS], ids=str)
    def test_block_edges_match_stdlib(self, network):
        first = int(network.network_address)
        last = int(network.broadcast_address)
        for value in (first - 1, first, first + 1, last - 1, last, last + 1):
            if 0 <= value <= 0xFFFFFFFF:
                assert classify_ip(int_to_ip(value)) is oracle_class(value), int_to_ip(value)
