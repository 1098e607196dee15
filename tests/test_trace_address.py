"""Tests for repro.trace.address."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.address import (
    AddressSpace,
    BadValueError,
    ip_to_str,
    ips_to_strs,
    str_to_ip,
    strs_to_ips,
    subnet16,
    subnet24,
)

#: Strings ``int()`` would take apart but a dotted quad never holds.
NOT_QUADS = ["1_0.0.0.1", "+1.2.3.4", " 1.2.3.4", "1.2.3.0004", "\u0663.2.3.4"]


class TestConversions:
    def test_roundtrip_known(self):
        assert ip_to_str(0x0A000001) == "10.0.0.1"
        assert str_to_ip("10.0.0.1") == 0x0A000001

    def test_malformed_raises(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                str_to_ip(bad)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ip_to_str(2**32)

    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, ip):
        assert str_to_ip(ip_to_str(ip)) == ip

    @pytest.mark.parametrize(
        "text", NOT_QUADS + ["1.2.3.4 ", "1.2.3.4\x00", "1..2.3", ""]
    )
    def test_scalar_and_vector_reject_non_quads(self, text):
        with pytest.raises(ValueError):
            str_to_ip(text)
        with pytest.raises(ValueError, match="malformed IPv4"):
            strs_to_ips(["10.0.0.1", text])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.lists(st.integers(0, 2), min_size=4, max_size=4),
            ),
            max_size=30,
        )
    )
    def test_vector_codec_agrees_with_scalar(self, quads):
        # Every valid spelling: each octet with up to two leading zeros,
        # as long as it stays within three digits.
        texts = []
        for ip, pads in quads:
            octets = ip_to_str(ip).split(".")
            texts.append(
                ".".join(o.zfill(min(3, len(o) + pad)) for o, pad in zip(octets, pads))
            )
        expected = [str_to_ip(text) for text in texts]
        assert strs_to_ips(texts).tolist() == expected
        assert expected == [ip for ip, _ in quads]
        assert ips_to_strs(np.array(expected, dtype=np.uint32)) == [
            ip_to_str(ip) for ip in expected
        ]

    def test_vector_codec_names_the_first_bad_entry(self):
        with pytest.raises(BadValueError, match="'1.2.3'") as error:
            strs_to_ips(["10.0.0.1", "10.0.0.2", "1.2.3", "x"])
        assert error.value.index == 2

    def test_vector_codec_rejects_long_and_empty_input(self):
        assert strs_to_ips([]).dtype == np.uint32
        with pytest.raises(ValueError, match="malformed"):
            strs_to_ips(["1.2.3.4" + "0" * 100])

    def test_subnet_masks(self):
        ip = str_to_ip("192.168.13.77")
        assert ip_to_str(subnet24(ip)) == "192.168.13.0"
        assert ip_to_str(subnet16(ip)) == "192.168.0.0"


class TestAddressSpace:
    def test_subnet24_same_prefix(self):
        ips = AddressSpace(0).allocate_subnet24(50)
        assert len(np.unique(ips)) == 50
        assert len({subnet24(ip) for ip in ips}) == 1

    def test_subnet24_limit(self):
        with pytest.raises(ValueError):
            AddressSpace(0).allocate_subnet24(255)

    def test_subnet16_same_prefix(self):
        ips = AddressSpace(0).allocate_subnet16(300)
        assert len(np.unique(ips)) == 300
        assert len({subnet16(ip) for ip in ips}) == 1

    def test_multi_subnet24_spread(self):
        ips = AddressSpace(0).allocate_multi_subnet24(61, 23)
        assert len(ips) == 61
        assert len({subnet24(ip) for ip in ips}) == 23

    def test_scattered_unique_and_spread(self):
        ips = AddressSpace(0).allocate_scattered(500)
        assert len(np.unique(ips)) == 500
        # Scattered addresses should nearly all land in distinct /24s.
        assert len({subnet24(ip) for ip in ips}) > 480

    def test_allocations_disjoint(self):
        space = AddressSpace(0)
        a = set(space.allocate_subnet24(100).tolist())
        b = set(space.allocate_subnet16(1000).tolist())
        c = set(space.allocate_scattered(500).tolist())
        assert not (a & b) and not (a & c) and not (b & c)

    def test_deterministic_for_seed(self):
        a = AddressSpace(3).allocate_scattered(20)
        b = AddressSpace(3).allocate_scattered(20)
        assert np.array_equal(a, b)

    def test_no_forbidden_first_octets(self):
        ips = AddressSpace(1).allocate_scattered(300)
        firsts = {int(ip) >> 24 for ip in ips}
        assert not firsts & {0, 10, 127}
        assert all(f < 224 for f in firsts)

    def test_negative_scatter_raises(self):
        with pytest.raises(ValueError):
            AddressSpace(0).allocate_scattered(-1)
