"""Tests for repro.trace.packet."""

import numpy as np
import pytest

from repro.trace.address import BadValueError
from repro.trace.packet import ICMP, TCP, UDP, Trace, proto_name


class TestProtoName:
    def test_known_protocols(self):
        assert proto_name(TCP) == "tcp"
        assert proto_name(UDP) == "udp"
        assert proto_name(ICMP) == "icmp"

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            proto_name(99)


class TestTraceBasics:
    def test_lengths(self, tiny_trace):
        assert len(tiny_trace) == 10
        assert tiny_trace.n_packets == 10
        assert tiny_trace.n_senders == 3

    def test_sorted_by_time(self, tiny_trace):
        assert np.all(np.diff(tiny_trace.times) >= 0)

    def test_duration(self, tiny_trace):
        assert tiny_trace.start_time == 0.0
        assert tiny_trace.end_time == 9.0
        assert tiny_trace.duration_days == pytest.approx(9.0 / 86_400)

    def test_empty_trace(self):
        empty = Trace.empty()
        assert len(empty) == 0
        assert empty.duration_days == 0.0
        with pytest.raises(ValueError):
            _ = empty.start_time

    def test_unsorted_times_rejected(self, tiny_trace):
        times = tiny_trace.times.copy()
        times[0], times[1] = times[1], times[0]
        with pytest.raises(ValueError):
            Trace(
                times=times,
                senders=tiny_trace.senders,
                ports=tiny_trace.ports,
                protos=tiny_trace.protos,
                receivers=tiny_trace.receivers,
                mirai=tiny_trace.mirai,
                sender_ips=tiny_trace.sender_ips,
            )

    def test_column_length_mismatch_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            Trace(
                times=tiny_trace.times,
                senders=tiny_trace.senders[:-1],
                ports=tiny_trace.ports,
                protos=tiny_trace.protos,
                receivers=tiny_trace.receivers,
                mirai=tiny_trace.mirai,
                sender_ips=tiny_trace.sender_ips,
            )


class TestAggregations:
    def test_packet_counts(self, tiny_trace):
        counts = tiny_trace.packet_counts()
        assert sorted(counts.tolist()) == [2, 3, 5]
        assert counts.sum() == 10

    def test_active_senders_threshold(self, tiny_trace):
        assert len(tiny_trace.active_senders(3)) == 2
        assert len(tiny_trace.active_senders(5)) == 1
        assert len(tiny_trace.active_senders(6)) == 0

    def test_active_senders_invalid_threshold(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.active_senders(0)

    def test_observed_senders(self, tiny_trace):
        assert len(tiny_trace.observed_senders()) == 3

    def test_distinct_ports_counts_port_proto_pairs(self, tiny_trace):
        # ports: 23/tcp, 445/tcp, 80/tcp, 22/tcp, 53/udp -> 5 pairs
        assert tiny_trace.distinct_ports() == 5

    def test_port_packet_counts(self, tiny_trace):
        counts = tiny_trace.port_packet_counts()
        assert counts[(23, TCP)] == 5
        assert counts[(53, UDP)] == 1
        assert sum(counts.values()) == 10


class TestSelection:
    def test_between(self, tiny_trace):
        sub = tiny_trace.between(2.0, 5.0)
        assert len(sub) == 3
        assert sub.start_time == 2.0

    def test_between_shares_sender_table(self, tiny_trace):
        sub = tiny_trace.between(0.0, 3.0)
        assert sub.n_senders == tiny_trace.n_senders

    def test_last_days(self, tiny_trace):
        # Window [end - 5s, end] includes timestamps 4..9 inclusive.
        sub = tiny_trace.last_days(5.0 / 86_400)
        assert len(sub) == 6

    def test_first_days(self, tiny_trace):
        sub = tiny_trace.first_days(5.0 / 86_400)
        assert len(sub) == 5
        assert sub.end_time < 5.0

    def test_from_senders(self, tiny_trace):
        heavy = np.argmax(tiny_trace.packet_counts())
        sub = tiny_trace.from_senders(np.array([heavy]))
        assert len(sub) == 5
        assert np.all(sub.senders == heavy)

    def test_select_requires_boolean_mask(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.select(np.ones(len(tiny_trace), dtype=int))


class TestFromEvents:
    def test_interns_and_sorts(self):
        trace = Trace.from_events(
            times=np.array([5.0, 1.0, 3.0]),
            sender_ips_per_packet=np.array([30, 10, 30], dtype=np.uint64),
            ports=np.array([1, 2, 3]),
            protos=np.array([TCP, TCP, TCP]),
            receivers=np.array([0, 0, 0]),
            mirai=np.array([False, True, False]),
        )
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.n_senders == 2
        assert trace.ports.tolist() == [2, 3, 1]
        assert trace.mirai.tolist() == [True, False, False]

    def test_extra_sender_ips_in_table(self):
        trace = Trace.from_events(
            times=np.array([1.0]),
            sender_ips_per_packet=np.array([10], dtype=np.uint64),
            ports=np.array([1]),
            protos=np.array([TCP]),
            receivers=np.array([0]),
            mirai=np.array([False]),
            extra_sender_ips=np.array([99], dtype=np.uint64),
        )
        assert trace.n_senders == 2
        assert len(trace.observed_senders()) == 1

    @pytest.mark.parametrize(
        "column, values",
        [
            ("sender_ips_per_packet", [2**32 + 5, 5]),
            ("sender_ips_per_packet", [-1, 5]),
            ("receivers", [300, 1]),
            ("receivers", [-1, 1]),
            ("ports", [70_000, 1]),
            ("ports", [-3, 1]),
            ("protos", [99, TCP]),
            ("mirai", [2, 0]),
            ("ports", [23.5, 1]),
            ("sender_ips_per_packet", [5.5, 7]),
            ("ports", [np.nan, 1]),
            ("receivers", [np.nan, 1]),
            ("mirai", [np.nan, 0]),
            ("protos", [np.nan, TCP]),
            ("times", [np.nan, 1.0]),
            ("times", [np.inf, 1.0]),
        ],
    )
    def test_out_of_range_values_are_rejected(self, column, values):
        # Unchecked, each would wrap into another value (2**32 + 5 into
        # sender 5, receiver 300 into 44, a NaN port into -2**31), be
        # truncated (port 23.5 into 23) or enter the trace as is.
        events = {
            "times": np.array([1.0, 2.0]),
            "sender_ips_per_packet": np.array([5, 7]),
            "ports": np.array([23, 80]),
            "protos": np.array([TCP, UDP]),
            "receivers": np.array([1, 2]),
            "mirai": np.array([False, True]),
        }
        events[column] = np.array(values)
        with pytest.raises(BadValueError, match=f"column {column}") as error:
            Trace.from_events(**events)
        assert error.value.index == 0

    def test_non_numeric_column_is_rejected(self):
        with pytest.raises(ValueError, match="column ports"):
            Trace.from_events(
                times=np.array([1.0]),
                sender_ips_per_packet=np.array([5]),
                ports=np.array(["23"]),
                protos=np.array([TCP]),
                receivers=np.array([1]),
                mirai=np.array([False]),
            )

    def test_range_edges_are_accepted(self):
        trace = Trace.from_events(
            times=np.array([1.0, 2.0]),
            sender_ips_per_packet=np.array([0, 2**32 - 1], dtype=np.uint64),
            ports=np.array([0, 65_535]),
            protos=np.array([ICMP, UDP]),
            receivers=np.array([0, 255]),
            mirai=np.array([0, 1]),
        )
        assert trace.sender_ips.tolist() == [0, 2**32 - 1]
        assert trace.ports.tolist() == [0, 65_535]
        assert trace.receivers.tolist() == [0, 255]
        assert trace.mirai.tolist() == [False, True]
