"""Property-based fuzz tests for the shard codec and container format.

Three layers (all tier-1, all fully deterministic):

* hypothesis round-trips over the codec primitives, run with
  ``derandomize=True`` so CI never sees a flaky example;
* hypothesis layouts through the shard's vectorised index walks, with
  the sequential codec readers as the oracle;
* seeded mutation fuzz over a canonical shard file — every truncation,
  single-bit flip, and splice must surface as :class:`ArchiveError`
  (the classified subclasses included), never as a crash, a hang, or a
  silently different decode.  The format's header-covering CRC is what
  makes the every-single-bit guarantee possible.
"""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.archive.codec import (
    read_delta_run,
    read_int32_array,
    read_string,
    read_svarint,
    read_uvarint,
    unzigzag,
    write_delta_run,
    write_int32_array,
    write_string,
    write_svarint,
    write_uvarint,
    zigzag,
)
from repro.archive.shard import (
    _index_runs,
    _index_strings,
    encode_shard,
    read_shard,
)
from repro.archive.stream import DayStream, write_shard_stream
from repro.archive.summary import DaySummary
from repro.errors import ArchiveError
from repro.rng import derive_rng

FUZZ = settings(derandomize=True, deadline=None)

#: The codec's documented domains: zigzag assumes 64-bit signed values,
#: and column elements are int32 (indices, plan ids, packed addresses).
uint64s = st.integers(min_value=0, max_value=2**64 - 1)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestRoundTrips:
    @FUZZ
    @given(uint64s)
    def test_uvarint(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        decoded, offset = read_uvarint(memoryview(bytes(buffer)), 0)
        assert decoded == value and offset == len(buffer)

    @FUZZ
    @given(int64s)
    def test_zigzag(self, value):
        assert unzigzag(zigzag(value)) == value

    @FUZZ
    @given(int64s)
    def test_svarint(self, value):
        buffer = bytearray()
        write_svarint(buffer, value)
        decoded, offset = read_svarint(memoryview(bytes(buffer)), 0)
        assert decoded == value and offset == len(buffer)

    @FUZZ
    @given(st.lists(int32s, max_size=64))
    def test_delta_run(self, values):
        buffer = bytearray()
        write_delta_run(buffer, values)
        decoded, offset = read_delta_run(memoryview(bytes(buffer)), 0)
        assert decoded == values and offset == len(buffer)

    @FUZZ
    @given(st.lists(int32s, max_size=64))
    def test_int32_array(self, values):
        buffer = bytearray()
        write_int32_array(buffer, values)
        decoded, offset = read_int32_array(memoryview(bytes(buffer)), 0)
        assert decoded == values and offset == len(buffer)

    @FUZZ
    @given(st.text(max_size=64))
    def test_string(self, text):
        buffer = bytearray()
        write_string(buffer, text)
        decoded, offset = read_string(memoryview(bytes(buffer)), 0)
        assert decoded == text and offset == len(buffer)

    @FUZZ
    @given(st.lists(st.tuples(int64s, st.text(max_size=16)), max_size=16))
    def test_interleaved_fields(self, pairs):
        buffer = bytearray()
        for number, text in pairs:
            write_svarint(buffer, number)
            write_string(buffer, text)
        view = memoryview(bytes(buffer))
        offset = 0
        for number, text in pairs:
            decoded, offset = read_svarint(view, offset)
            assert decoded == number
            decoded, offset = read_string(view, offset)
            assert decoded == text
        assert offset == len(view)

    def test_int32_range_enforced(self):
        with pytest.raises(ArchiveError, match="out of range"):
            write_int32_array(bytearray(), [2**31])


class TestPrimitiveMutationSafety:
    """Random bytes through the readers: ArchiveError or a value, only."""

    READERS = (read_uvarint, read_svarint, read_delta_run,
               read_int32_array, read_string)

    @FUZZ
    @given(st.binary(max_size=128))
    def test_readers_never_crash(self, blob):
        view = memoryview(blob)
        for reader in self.READERS:
            try:
                _, offset = reader(view, 0)
                assert 0 <= offset <= len(view)
            except ArchiveError:
                pass


#: Names that stress the string walk: bytes below the lowest A-label
#: byte (0x2D) inside a name, lengths around the one-byte candidate
#: limit (45) and the one-byte prefix limit (128), and non-ASCII UTF-8.
walk_names = st.one_of(
    st.text(max_size=12),
    st.sampled_from([0, 1, 44, 45, 46, 127, 128, 129, 300]).flatmap(
        lambda size: st.text(
            alphabet=st.characters(max_codepoint=0x2F), min_size=size,
            max_size=size,
        )
    ),
    st.text(alphabet="\x00\x01\x2c-.a\u0436", min_size=40, max_size=140),
)

#: Runs that stress the run walk: empty runs, adjacent addresses (one-
#: byte deltas that look like counts), and runs of 128+ elements (a
#: multi-byte count).
walk_runs = st.one_of(
    st.lists(int32s, max_size=4),
    st.builds(
        lambda first, size: list(range(first, first + size)),
        st.integers(min_value=0, max_value=2**31 - 200),
        st.sampled_from([0, 1, 2, 3, 127, 128, 130]),
    ),
)


def walk_tail(prefix, names, runs):
    """``prefix`` then the strings then the delta runs, as one payload."""
    buffer = bytearray(prefix)
    for name in names:
        write_string(buffer, name)
    for run in runs:
        write_delta_run(buffer, run)
    return bytes(buffer)


def sequential_offsets(reader, view, offset, count):
    """Where ``count`` sequential ``reader`` decodes start, and their end."""
    offsets = []
    for _ in range(count):
        offsets.append(offset)
        _, offset = reader(view, offset)
    return offsets, offset


class TestIndexWalk:
    """The chain walks index exactly what the sequential readers decode."""

    @FUZZ
    @given(
        st.binary(max_size=3),
        st.lists(walk_names, max_size=8),
        st.lists(walk_runs, max_size=8),
    )
    def test_offsets_match_sequential_decode(self, prefix, names, runs):
        view = memoryview(walk_tail(prefix, names, runs))
        expected, middle = sequential_offsets(
            read_string, view, len(prefix), len(names)
        )
        offsets, end = _index_strings(view, len(prefix), len(names))
        assert offsets.dtype == "int64"
        assert offsets.tolist() == expected and end == middle
        expected, last = sequential_offsets(
            read_delta_run, view, middle, len(runs)
        )
        offsets, end = _index_runs(view, middle, len(runs))
        assert offsets.dtype == "int64"
        assert offsets.tolist() == expected and end == last == len(view)

    @FUZZ
    @given(
        st.lists(walk_names, min_size=1, max_size=4),
        st.lists(walk_runs, min_size=1, max_size=4),
    )
    def test_every_truncation_refused(self, names, runs):
        payload = walk_tail(b"", names, runs)
        for length in range(len(payload)):
            view = memoryview(payload[:length])
            with pytest.raises(ArchiveError):
                _, middle = _index_strings(view, 0, len(names))
                _index_runs(view, middle, len(runs))


def canonical_stream():
    """A small hand-built day (mirrors tests/archive/test_shard.py)."""
    domains = ["alpha.ru", "xn--e1afmkfd.xn--p1ai", "gamma.ru"]
    apex = [(3232235777,), (), (167772161, 167772162)]
    return DayStream(
        date=dt.date(2022, 3, 4),
        epoch_start_day=1720,
        population_size=12,
        measured=[1, 4, 7],
        dns_ids=[2, 5, 2],
        hosting_ids=[3, 3, 9],
        dns_plan_ns={
            2: (("ns1.reg.ru", "ns2.reg.ru"), (101, 102)),
            5: (("alice.ns.cloudflare.com",), (250,)),
        },
        summary=DaySummary(
            dt.date(2022, 3, 4), 1720, 3,
            (1, 1, 1), (2, 0, 1), (3, 0, 0),
            {"ru": 2, "xn--p1ai": 1}, {13335: 1, 197695: 2}, (1, 0, 0), 4,
        ),
        domains_at=lambda positions: [domains[p] for p in positions],
        apexes_at=lambda positions: [apex[p] for p in positions],
    )


@pytest.fixture(scope="module")
def shard_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "canonical.shard"
    write_shard_stream(str(path), canonical_stream())
    return path.read_bytes()


def read_mutated(tmp_path, blob, name="mutated.shard"):
    path = tmp_path / name
    path.write_bytes(blob)
    return read_shard(str(path))


class TestShardMutationFuzz:
    """Exhaustive/seeded mutations of a real shard file.

    Every mutated file must either raise :class:`ArchiveError` or (for
    the identity mutation only) decode to a record that re-encodes to
    the canonical bytes — never crash with another exception type and
    never decode differently.
    """

    def test_canonical_round_trips(self, tmp_path, shard_bytes):
        record = read_mutated(tmp_path, shard_bytes)
        assert encode_shard(record)[0] == shard_bytes

    def test_every_truncation_refused(self, tmp_path, shard_bytes):
        for length in range(len(shard_bytes)):
            with pytest.raises(ArchiveError):
                read_mutated(tmp_path, shard_bytes[:length])

    def test_every_byte_flip_detected_or_harmless(self, tmp_path, shard_bytes):
        # One deterministically-chosen bit per byte position covers the
        # whole file, header included (v2's CRC spans the header).  A
        # flip in the deflate stream's padding bits can leave the
        # decompressed payload byte-identical — zlib does not checksum
        # padding — so the enforceable guarantee is: ArchiveError, or a
        # decode that re-encodes to the canonical bytes.  Never a
        # different one.
        rng = derive_rng(20220304, "fuzz", "bitflip")
        survivors = 0
        for position in range(len(shard_bytes)):
            mutated = bytearray(shard_bytes)
            mutated[position] ^= 1 << int(rng.integers(8))
            assert bytes(mutated) != shard_bytes
            try:
                record = read_mutated(tmp_path, bytes(mutated))
            except ArchiveError:
                continue
            assert encode_shard(record)[0] == shard_bytes
            survivors += 1
        # Padding is a handful of bits per deflate stream (v3 has two:
        # summary + columns); essentially the whole file must be
        # covered by some integrity check.
        assert survivors <= 4

    def test_every_header_bit_flip_refused(self, tmp_path, shard_bytes):
        for position in range(40):  # the packed v3 header
            for bit in range(8):
                mutated = bytearray(shard_bytes)
                mutated[position] ^= 1 << bit
                with pytest.raises(ArchiveError):
                    read_mutated(tmp_path, bytes(mutated))

    def test_trailing_garbage_refused(self, tmp_path, shard_bytes):
        # zlib.decompress would silently ignore trailing bytes; the
        # reader must not (a splice could otherwise hide real damage).
        rng = derive_rng(20220304, "fuzz", "splice")
        for extra in (1, 7, 64):
            garbage = bytes(rng.integers(0, 256, size=extra, dtype="uint8"))
            with pytest.raises(ArchiveError):
                read_mutated(tmp_path, shard_bytes + garbage)

    def test_random_insertions_refused(self, tmp_path, shard_bytes):
        rng = derive_rng(20220304, "fuzz", "insert")
        for _ in range(64):
            position = int(rng.integers(len(shard_bytes) + 1))
            payload = bytes(rng.integers(0, 256, size=3, dtype="uint8"))
            mutated = shard_bytes[:position] + payload + shard_bytes[position:]
            with pytest.raises(ArchiveError):
                read_mutated(tmp_path, mutated)

    def test_cross_splice_refused(self, tmp_path, shard_bytes):
        # Overwrite a window with bytes from elsewhere in the file.
        rng = derive_rng(20220304, "fuzz", "crossover")
        for _ in range(64):
            size = int(rng.integers(1, 16))
            src = int(rng.integers(len(shard_bytes) - size))
            dst = int(rng.integers(len(shard_bytes) - size))
            mutated = bytearray(shard_bytes)
            mutated[dst:dst + size] = shard_bytes[src:src + size]
            if bytes(mutated) == shard_bytes:
                continue
            with pytest.raises(ArchiveError):
                read_mutated(tmp_path, bytes(mutated))
