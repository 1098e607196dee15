"""IPv4 address pools for the simulator.

Scanner groups in the paper are recognisable by their address layout:
Censys scans from a few known subnets, Shadowserver from one /16, the
"unknown1" NetBIOS scanner from a single /24, Mirai-like bots from IoT
devices scattered across the whole address space.  The
:class:`AddressSpace` hands out non-overlapping pools with those shapes.
"""

from __future__ import annotations

import re

import numpy as np

from repro.utils.rng import make_rng

# First octets we never allocate, to keep generated traffic plausible:
# 0 (this network), 10 (private), 127 (loopback), 224+ (multicast and
# reserved).
_FORBIDDEN_FIRST_OCTETS = frozenset({0, 10, 127}) | set(range(224, 256))


#: The one dotted-quad grammar: four octets of one to three ASCII
#: digits joined by dots, each octet at most 255.  :func:`str_to_ip`
#: and the vector codec (:func:`strs_to_ips`, :func:`parse_quads`)
#: accept exactly these strings.
_QUAD = re.compile(r"([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})\.([0-9]{1,3})")
QUAD_MAX_CHARS = 15

_POW10 = 10 ** np.arange(19, dtype=np.int64)


class BadValueError(ValueError):
    """A malformed or out-of-range entry of an input column.

    ``index`` is the 0-based position of the first bad entry, so a
    reader can name the line it came from.
    """

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def ip_to_str(ip: int) -> str:
    """Dotted-quad representation of a uint32 address."""
    ip = int(ip)
    if not 0 <= ip < 2**32:
        raise ValueError(f"address {ip} out of IPv4 range")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def str_to_ip(text: str) -> int:
    """Parse a dotted quad into a uint32 address (strict, see ``_QUAD``)."""
    match = _QUAD.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for octet in match.groups():
        part = int(octet)
        if part > 255:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = (value << 8) | part
    return value


def ips_to_strs(ips: np.ndarray) -> list[str]:
    """Vector :func:`ip_to_str`: dotted quads of an array of addresses."""
    ips = np.asarray(ips)
    if ips.size and (ips.min() < 0 or ips.max() >= 2**32):
        raise ValueError("address out of IPv4 range")
    octets = (ips.astype(np.int64)[:, None] >> np.array([24, 16, 8, 0])) & 0xFF
    return [f"{a}.{b}.{c}.{d}" for a, b, c, d in octets.tolist()]


def digit_runs(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, max_digits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decimal values of the runs ``codes[starts[i]:ends[i]]``, vectorised.

    ``codes`` is a flat array of character codes: the bytes of a file,
    or the code points of a numpy string array.  A run is valid when it
    holds 1 to ``max_digits`` (<= 18) ASCII digits and nothing else.
    Returns ``(values, valid)``: int64 values, exact wherever valid.
    """
    lengths = ends - starts
    valid = (lengths >= 1) & (lengths <= max_digits)
    width = int(np.clip(lengths, 0, max_digits).max(initial=0))
    # One row per decimal place, units first: the reductions then run
    # along whole rows.  Codes are unsigned, so those below "0" wrap.
    place = np.arange(width)[:, None]
    digits = codes.take(ends - 1 - place, mode="clip") - 48
    digits *= place < lengths
    valid &= digits.max(axis=0, initial=0) <= 9
    return _POW10[:width] @ digits, valid


def parse_quads(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector dotted-quad parse of ``codes[starts[i]:ends[i]]``.

    ``codes`` as for :func:`digit_runs`.  Octet ``k`` runs from the
    ``k``-th dot at or after ``starts[i]`` to the next one (the last to
    ``ends[i]``); the field is a quad exactly when all four runs are 1-3
    digits, so a missing or extra dot invalidates it.  Returns
    ``(ips, valid)`` with uint32 addresses.
    """
    # Sentinel dots past the end stand in for missing ones.
    dots = np.flatnonzero(codes == ord("."))
    dots = np.concatenate([dots, np.full(3, len(codes))])
    first = np.searchsorted(dots, starts)
    cuts = [starts - 1, *(dots[first + k] for k in range(3)), ends]
    ips = np.zeros(len(starts), dtype=np.int64)
    valid = np.ones(len(starts), dtype=bool)
    for k in range(4):
        octet, ok = digit_runs(codes, cuts[k] + 1, cuts[k + 1], 3)
        valid &= ok & (octet <= 255)
        ips = (ips << 8) | octet
    return np.where(valid, ips, 0).astype(np.uint32), valid


def strs_to_ips(texts) -> np.ndarray:
    """Vector :func:`str_to_ip`: a sequence of dotted quads as uint32.

    Accepts exactly the strings :func:`str_to_ip` accepts and raises
    :class:`BadValueError` naming the first one it does not.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    codes = np.array(texts, dtype=f"U{QUAD_MAX_CHARS}").view(np.uint32)
    starts = np.arange(n, dtype=np.int64) * QUAD_MAX_CHARS
    # Longer strings were truncated above; the length check rejects them.
    ends = starts + np.minimum(lengths, QUAD_MAX_CHARS)
    ips, valid = parse_quads(codes, starts, ends)
    bad = ~valid | (lengths > QUAD_MAX_CHARS)
    if bad.any():
        index = int(np.argmax(bad))
        raise BadValueError(f"malformed IPv4 address: {texts[index]!r}", index)
    return ips


def subnet24(ip: int) -> int:
    """The /24 network base of an address."""
    return int(ip) & 0xFFFFFF00


def subnet16(ip: int) -> int:
    """The /16 network base of an address."""
    return int(ip) & 0xFFFF0000


class AddressSpace:
    """Allocator of disjoint sender-address pools.

    All allocations from one instance are guaranteed disjoint, so every
    simulated sender has a unique address and subnet-level fingerprints
    (e.g. "85 addresses in the same /24") are unambiguous.
    """

    def __init__(self, seed: int | np.random.Generator | None = 0) -> None:
        self._rng = make_rng(seed)
        self._used: set[int] = set()
        self._used_sub16: set[int] = set()

    def _random_first_octet(self) -> int:
        while True:
            octet = int(self._rng.integers(1, 224))
            if octet not in _FORBIDDEN_FIRST_OCTETS:
                return octet

    def _fresh_subnet16(self) -> int:
        while True:
            base = (self._random_first_octet() << 24) | (
                int(self._rng.integers(0, 256)) << 16
            )
            if base not in self._used_sub16:
                self._used_sub16.add(base)
                return base

    def allocate_subnet24(self, n: int) -> np.ndarray:
        """``n`` distinct addresses inside one fresh /24 (n <= 254)."""
        if not 1 <= n <= 254:
            raise ValueError(f"a /24 holds at most 254 hosts, requested {n}")
        base = self._fresh_subnet16() | (int(self._rng.integers(0, 256)) << 8)
        hosts = self._rng.choice(np.arange(1, 255), size=n, replace=False)
        ips = base + np.sort(hosts)
        self._used.update(int(ip) for ip in ips)
        return ips.astype(np.uint32)

    def allocate_subnet16(self, n: int) -> np.ndarray:
        """``n`` distinct addresses inside one fresh /16."""
        if not 1 <= n <= 60_000:
            raise ValueError(f"unreasonable /16 allocation of {n} hosts")
        base = self._fresh_subnet16()
        offsets = self._rng.choice(np.arange(256, 65_280), size=n, replace=False)
        ips = base + np.sort(offsets)
        self._used.update(int(ip) for ip in ips)
        return ips.astype(np.uint32)

    def allocate_multi_subnet24(self, n: int, n_subnets: int) -> np.ndarray:
        """``n`` addresses spread evenly across ``n_subnets`` fresh /24s."""
        if n_subnets < 1:
            raise ValueError("need at least one subnet")
        per_subnet = np.full(n_subnets, n // n_subnets)
        per_subnet[: n % n_subnets] += 1
        chunks = [self.allocate_subnet24(int(count)) for count in per_subnet if count]
        return np.concatenate(chunks).astype(np.uint32)

    def allocate_scattered(self, n: int) -> np.ndarray:
        """``n`` addresses scattered across the whole address space.

        Each address lands in its own random /24 with high probability,
        modelling botnet members on residential/IoT networks.
        """
        if n < 0:
            raise ValueError("cannot allocate a negative number of addresses")
        ips: list[int] = []
        while len(ips) < n:
            batch = n - len(ips)
            firsts = np.array([self._random_first_octet() for _ in range(batch)])
            rest = self._rng.integers(0, 2**24, size=batch)
            candidates = (firsts.astype(np.uint64) << 24) | rest.astype(np.uint64)
            for ip in candidates:
                ip = int(ip)
                host = ip & 0xFF
                if host in (0, 255) or ip in self._used:
                    continue
                if subnet16(ip) in self._used_sub16:
                    continue
                self._used.add(ip)
                ips.append(ip)
                if len(ips) == n:
                    break
        return np.array(sorted(ips), dtype=np.uint32)
