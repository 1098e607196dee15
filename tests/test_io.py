"""Tests for repro.io (CSV round-trip, anonymisation)."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import csvio
from repro.io.anonymize import anonymize_trace
from repro.io.csvio import read_trace_csv, write_trace_csv
from repro.trace.address import ip_to_str, subnet16, subnet24
from repro.trace.packet import ICMP, TCP, UDP, Trace, proto_name

_HEADER = "timestamp,src_ip,dst_host,dst_port,proto,mirai"


def reference_write_trace_csv(trace: Trace, path) -> None:
    """The row-at-a-time writer the vectorised one must match byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER.split(","))
        ips = trace.sender_ips
        for i in range(len(trace)):
            writer.writerow(
                [
                    f"{trace.times[i]:.6f}",
                    ip_to_str(ips[trace.senders[i]]),
                    int(trace.receivers[i]),
                    int(trace.ports[i]),
                    proto_name(trace.protos[i]),
                    int(trace.mirai[i]),
                ]
            )


COLUMNS = ("times", "senders", "ports", "protos", "receivers", "mirai", "sender_ips")


def assert_same_trace(a: Trace, b: Trace) -> None:
    for name in COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name


@st.composite
def traces(draw, max_packets=40):
    n = draw(st.integers(0, max_packets))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    # Microseconds: the writer's %.6f text then stays below 2**53 once
    # its dot is dropped, as it does for real epoch times.
    return Trace.from_events(
        times=column(st.integers(0, 2**52)).astype(np.float64) / 1e6,
        sender_ips_per_packet=column(st.integers(0, 2**32 - 1)).astype(np.uint64),
        ports=column(st.integers(0, 65535)),
        protos=column(st.sampled_from([TCP, UDP, ICMP])),
        receivers=column(st.integers(0, 255)),
        mirai=column(st.booleans()).astype(bool),
    )


class TestCsvRoundtrip:
    def test_roundtrip_preserves_everything(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(tiny_trace, path)
        loaded = read_trace_csv(path)
        assert np.allclose(loaded.times, tiny_trace.times)
        assert np.array_equal(loaded.sender_ips, tiny_trace.sender_ips)
        assert np.array_equal(loaded.senders, tiny_trace.senders)
        assert np.array_equal(loaded.ports, tiny_trace.ports)
        assert np.array_equal(loaded.protos, tiny_trace.protos)
        assert np.array_equal(loaded.receivers, tiny_trace.receivers)
        assert np.array_equal(loaded.mirai, tiny_trace.mirai)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "timestamp,src_ip,dst_host,dst_port,proto,mirai\n1.0,10.0.0.1,2\n"
        )
        with pytest.raises(ValueError):
            read_trace_csv(path)


class TestCsvReader:
    def test_crlf_and_lf_parse_alike(self, small_trace, tmp_path):
        crlf = tmp_path / "crlf.csv"
        write_trace_csv(small_trace, crlf)
        lf = tmp_path / "lf.csv"
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert b"\r" not in lf.read_bytes()
        loaded = read_trace_csv(crlf)
        assert_same_trace(read_trace_csv(lf), loaded)
        assert np.array_equal(loaded.senders, small_trace.senders)
        assert np.abs(loaded.times - small_trace.times).max() <= 5e-7

    @pytest.mark.parametrize("ending", [b"\r\n", b"\n"])
    def test_missing_final_newline(self, tiny_trace, tmp_path, ending):
        path = tmp_path / "t.csv"
        write_trace_csv(tiny_trace, path)
        body = path.read_bytes().replace(b"\r\n", ending)
        path.write_bytes(body[: -len(ending)])
        assert_same_trace(read_trace_csv(path), tiny_trace)

    @pytest.mark.parametrize("text", [_HEADER, _HEADER + "\n", _HEADER + "\r\n"])
    def test_header_only_is_an_empty_trace(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, newline="")
        assert_same_trace(read_trace_csv(path), Trace.empty())

    def test_rows_span_blocks(self, small_trace, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        write_trace_csv(small_trace, path)
        whole = read_trace_csv(path)
        monkeypatch.setattr(csvio, "BLOCK_BYTES", 37)  # cuts most rows
        assert_same_trace(read_trace_csv(path), whole)

    @pytest.mark.parametrize(
        "row",
        ["1.5,10.0.0.1,2,23,tcp", "1.5,10.0.0.1,2,23,tcp,0,7"],
        ids=["5 fields", "7 fields"],
    )
    @pytest.mark.parametrize("block_bytes", [1 << 20, 40])
    def test_wrong_field_count_names_the_line(
        self, tmp_path, monkeypatch, row, block_bytes
    ):
        monkeypatch.setattr(csvio, "BLOCK_BYTES", block_bytes)
        good = "1.0,10.0.0.1,2,23,tcp,0"
        path = tmp_path / "bad.csv"
        path.write_text(
            "\r\n".join([_HEADER, good, good, good, row, good]) + "\r\n", newline=""
        )
        with pytest.raises(ValueError, match=r"bad\.csv:5: expected 6 fields"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            (0, "1e9"), (0, "-1.0"), (0, "1."), (0, ".5"), (0, "1.2.3"),
            (0, "123456789012345678"), (0, "9007199254740.992"),
            (1, "10.0.0.256"), (1, "10.0.0"), (1, " 10.0.0.1"), (1, "10.0.0.0001"),
            (2, "+1"), (2, "1_0"), (2, "2560"), (2, ""),
            (3, "65536x"), (3, "123456"), (3, "-3"),
            (4, "TCP"), (4, "tcpx"), (4, "tc"), (4, "icmp\x00"),
            (5, "true"), (5, "01"), (5, " 1"),
        ],
    )
    def test_field_syntax_is_checked(self, tmp_path, field, value):
        row = ["1.0", "10.0.0.1", "2", "23", "tcp", "0"]
        row[field] = value
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{_HEADER}\n1.0,10.0.0.1,2,23,tcp,0\n{','.join(row)}\n", newline=""
        )
        with pytest.raises(ValueError, match=r"bad\.csv:3: bad"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("1.0,10.0.0.1,300,23,tcp,0", "dst_host"),
            ("1.0,10.0.0.1,2,70000,tcp,0", "dst_port"),
            ("1.0,10.0.0.1,2,23,tcp,2", "mirai"),
        ],
    )
    def test_ranges_are_checked(self, tmp_path, row, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"{_HEADER}\n1.0,10.0.0.1,2,23,tcp,0\n{row}\n", newline="")
        with pytest.raises(ValueError, match=rf"bad\.csv:3: bad {field}"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "rows, line, error",
        [
            (["1.0,10.0.0.1,2,70000,tcp,0", "x,10.0.0.1,2,23,tcp,0"], 3, "dst_port"),
            (["1.0,10.0.0.1,2,23,tcp,0", "x,10.0.0.1,2,23,tcp,0", "1"], 4, "timestamp"),
            (["1.0,10.0.0.1,2,23,tcp,0", "1.0,10.0.0.1,2,23", "x"], 4, "expected 6"),
        ],
        ids=["range before syntax", "field before field count", "field count"],
    )
    def test_error_names_the_first_bad_line(self, tmp_path, rows, line, error):
        # Fields are checked a column at a time; the error still names
        # the first bad line, not the first line of the column checked
        # first.
        path = tmp_path / "bad.csv"
        good = "1.0,10.0.0.1,2,23,tcp,0"
        path.write_text("\n".join([_HEADER, good, *rows]) + "\n", newline="")
        with pytest.raises(ValueError, match=rf"bad\.csv:{line}: (bad )?{error}"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "tail, error",
        [
            (b"\n1.0,10.0.0.1,2,23,tcp,0\n" + b"x" * 99_999, "bad.csv:3: no line end"),
            (b"\n" + b"1.0,10.0.0.1,2,23,tcp,0\r" * 20_000, "bad.csv:2: no line end"),
            (b"\n" + b"\x00\xff" * 50_000, "bad.csv:2: no line end"),
            (b"x" * 1_000_000, "unexpected CSV header"),
        ],
        ids=["long last line", "CR line ends", "binary", "long header"],
    )
    def test_line_without_an_end_is_refused_early(
        self, tmp_path, monkeypatch, tail, error
    ):
        # A line longer than any valid row is refused once it outgrows
        # MAX_ROW_BYTES, so garbage is never carried from block to
        # block: memory stays a few blocks, whatever the file size.
        monkeypatch.setattr(csvio, "BLOCK_BYTES", 1024)
        path = tmp_path / "bad.csv"
        path.write_bytes(_HEADER.encode() + tail)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=error):
                read_trace_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_timestamps_equal_float_of_their_text(self, tmp_path):
        rng = np.random.default_rng(5)
        texts = [f"{t:.6f}" for t in rng.uniform(0, 2e9, 2000)] + [
            "0", "0.0", "7", "9007199254.740991", "0.000001", "1614643206.759475",
            "00012.5", "9999999999.12345",
        ]
        path = tmp_path / "t.csv"
        path.write_text(
            _HEADER + "\n" + "".join(f"{t},10.0.0.1,1,23,tcp,0\n" for t in texts),
            newline="",
        )
        expected = np.sort(np.array([float(t) for t in texts]))
        assert read_trace_csv(path).times.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), crlf=st.booleans(), final_newline=st.booleans())
    def test_write_read_roundtrip(self, tmp_path_factory, trace, crlf, final_newline):
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_trace_csv(trace, path)
        body = path.read_bytes()
        if not crlf:
            body = body.replace(b"\r\n", b"\n")
        if not final_newline:
            body = body.rstrip(b"\r\n")
        path.write_bytes(body)
        loaded = read_trace_csv(path)
        texts = [line.split(b",")[0] for line in body.splitlines()[1:]]
        assert loaded.times.tobytes() == np.array([float(t) for t in texts]).tobytes()
        senders = trace.sender_ips[trace.senders]
        assert np.array_equal(loaded.sender_ips[loaded.senders], senders)
        for name in ("ports", "protos", "receivers", "mirai"):
            assert np.array_equal(getattr(loaded, name), getattr(trace, name)), name

    def test_peak_memory_per_row_is_bounded(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 120_000
        trace = Trace.from_events(
            times=1.6e9 + np.sort(rng.uniform(0, 30 * 86_400, n)),
            sender_ips_per_packet=rng.integers(1 << 24, 1 << 32, 20_000)[
                rng.integers(0, 20_000, n)
            ],
            ports=rng.integers(0, 65536, n),
            protos=rng.choice([TCP, UDP, ICMP], n),
            receivers=rng.integers(0, 256, n),
            mirai=rng.random(n) < 0.3,
        )
        path = tmp_path / "big.csv"
        write_trace_csv(trace, path)
        tracemalloc.start()
        try:
            loaded = read_trace_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == n
        # Blocks keep only typed columns (~17 B/row) and then the trace
        # build; a row loop holding Python lists peaks above 200 B/row.
        assert peak / n < 150


class TestCsvWriter:
    @pytest.mark.parametrize("fixture", ["tiny_trace", "small_trace"])
    def test_matches_the_row_writer(self, request, tmp_path, fixture):
        trace = request.getfixturevalue(fixture)
        write_trace_csv(trace, tmp_path / "new.csv")
        reference_write_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(trace=traces())
    def test_matches_the_row_writer_on_any_trace(self, tmp_path_factory, trace):
        root = tmp_path_factory.mktemp("w")
        write_trace_csv(trace, root / "new.csv")
        reference_write_trace_csv(trace, root / "ref.csv")
        assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()

    def test_rows_cross_write_chunks(self, small_trace, tmp_path, monkeypatch):
        reference_write_trace_csv(small_trace, tmp_path / "ref.csv")
        monkeypatch.setattr(csvio, "_WRITE_ROWS", 7)
        write_trace_csv(small_trace, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestAnonymize:
    def test_structure_preserved(self, small_trace):
        anonymized = anonymize_trace(small_trace, key="k1")
        assert anonymized.n_packets == small_trace.n_packets
        assert anonymized.n_senders == small_trace.n_senders
        assert np.array_equal(anonymized.times, small_trace.times)
        assert np.array_equal(anonymized.ports, small_trace.ports)
        # Per-sender packet counts are a permutation of the originals.
        assert sorted(anonymized.packet_counts()) == sorted(
            small_trace.packet_counts()
        )

    def test_addresses_change(self, small_trace):
        anonymized = anonymize_trace(small_trace, key="k1")
        overlap = np.intersect1d(anonymized.sender_ips, small_trace.sender_ips)
        assert len(overlap) < small_trace.n_senders / 10

    def test_prefix_preservation(self, tiny_trace):
        anonymized = anonymize_trace(tiny_trace, key="k2")
        # The three tiny-trace senders share a /24: still true after.
        assert len({subnet24(ip) for ip in anonymized.sender_ips}) == 1
        assert len({subnet16(ip) for ip in anonymized.sender_ips}) == 1

    def test_deterministic_per_key(self, tiny_trace):
        a = anonymize_trace(tiny_trace, key="same")
        b = anonymize_trace(tiny_trace, key="same")
        c = anonymize_trace(tiny_trace, key="different")
        assert np.array_equal(a.sender_ips, b.sender_ips)
        assert not np.array_equal(a.sender_ips, c.sender_ips)

    def test_packet_to_sender_mapping_consistent(self, tiny_trace):
        anonymized = anonymize_trace(tiny_trace, key="k3")
        # Packets that shared a sender still share one.
        original_groups = {}
        for i in range(len(tiny_trace)):
            original_groups.setdefault(int(tiny_trace.senders[i]), []).append(i)
        for packets in original_groups.values():
            anon_senders = {int(anonymized.senders[i]) for i in packets}
            assert len(anon_senders) == 1


class TestNdjsonRoundtrip:
    def test_roundtrip(self, tiny_trace, tmp_path):
        from repro.io.ndjson import read_trace_ndjson, write_trace_ndjson

        path = tmp_path / "trace.ndjson"
        write_trace_ndjson(tiny_trace, path)
        loaded = read_trace_ndjson(path)
        assert np.allclose(loaded.times, tiny_trace.times)
        assert np.array_equal(loaded.sender_ips, tiny_trace.sender_ips)
        assert np.array_equal(loaded.ports, tiny_trace.ports)
        assert np.array_equal(loaded.mirai, tiny_trace.mirai)

    def test_gzip_roundtrip(self, tiny_trace, tmp_path):
        from repro.io.ndjson import read_trace_ndjson, write_trace_ndjson

        path = tmp_path / "trace.ndjson.gz"
        write_trace_ndjson(tiny_trace, path)
        assert path.stat().st_size > 0
        loaded = read_trace_ndjson(path)
        assert len(loaded) == len(tiny_trace)

    def test_malformed_line_reports_position(self, tmp_path):
        from repro.io.ndjson import read_trace_ndjson

        path = tmp_path / "bad.ndjson"
        path.write_text('{"ts": 1.0}\n')
        with pytest.raises(ValueError, match="bad.ndjson:1"):
            read_trace_ndjson(path)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("mirai", 2, "not a flag"),
            ("dst", 300, "column receivers"),
            ("dst", 23.5, "column receivers"),
            ("port", 70_000, "column ports"),
            ("port", float("nan"), "column ports"),
            ("port", "23", "not a number"),
            ("ts", float("inf"), "column times"),
            ("src", "1_0.0.0.1", "malformed IPv4"),
            ("src", 167772161, "not a dotted quad"),
            # JSON true is not the number 1
            ("ts", True, "ts True is not a number"),
            ("dst", True, "dst True is not a number"),
            ("port", True, "port True is not a number"),
        ],
    )
    def test_out_of_range_records_rejected(self, tmp_path, field, value, error):
        import json

        from repro.io.ndjson import read_trace_ndjson

        good = {"ts": 1.0, "src": "10.0.0.1", "dst": 2, "port": 23}
        good.update({"proto": "tcp", "mirai": False})
        path = tmp_path / "bad.ndjson"
        # Line 2 is blank: column errors map back to file lines, not
        # record numbers.
        lines = [good, None, {**good, field: value}, good]
        path.write_text(
            "".join(json.dumps(r) + "\n" if r else "\n" for r in lines)
        )
        with pytest.raises(ValueError, match=rf"bad\.ndjson:3: .*{error}"):
            read_trace_ndjson(path)

    def test_a_lone_record_of_booleans_is_rejected(self, tmp_path):
        import json

        from repro.io.ndjson import read_trace_ndjson

        record = {"ts": True, "src": "10.0.0.1", "dst": True, "port": True}
        record.update({"proto": "tcp", "mirai": True})
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"bad\.ndjson:1: .*not a number"):
            read_trace_ndjson(path)

    def test_blank_lines_skipped(self, tiny_trace, tmp_path):
        from repro.io.ndjson import read_trace_ndjson, write_trace_ndjson

        path = tmp_path / "trace.ndjson"
        write_trace_ndjson(tiny_trace, path)
        path.write_text(path.read_text() + "\n\n")
        loaded = read_trace_ndjson(path)
        assert len(loaded) == len(tiny_trace)
