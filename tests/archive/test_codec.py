"""Tests for repro.archive.codec: varints, zigzag, delta runs, strings."""

import zlib

import pytest

from repro.archive.codec import (
    crc32_combine,
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
from repro.errors import ArchiveError
from repro.rng import derive_rng


def roundtrip(writer, reader, value):
    buffer = bytearray()
    writer(buffer, value)
    result, offset = reader(memoryview(bytes(buffer)), 0)
    assert offset == len(buffer)
    return result


class TestUvarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 16383, 16384, 2**35, 2**63 - 1]
    )
    def test_roundtrip(self, value):
        assert roundtrip(write_uvarint, read_uvarint, value) == value

    def test_single_byte_below_128(self):
        buffer = bytearray()
        write_uvarint(buffer, 127)
        assert len(buffer) == 1

    def test_negative_rejected(self):
        with pytest.raises(ArchiveError):
            write_uvarint(bytearray(), -1)

    def test_truncated_rejected(self):
        buffer = bytearray()
        write_uvarint(buffer, 300)
        with pytest.raises(ArchiveError):
            read_uvarint(memoryview(bytes(buffer[:-1])), 0)

    def test_overlong_rejected(self):
        with pytest.raises(ArchiveError):
            read_uvarint(memoryview(b"\x80" * 11 + b"\x01"), 0)


class TestZigzag:
    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**40, -(2**40)])
    def test_inverse(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_small_magnitudes_stay_small(self):
        assert zigzag(-1) == 1
        assert zigzag(1) == 2
        assert zigzag(-64) < 128  # one varint byte

    @pytest.mark.parametrize("value", [0, 5, -5, 1720, -100000])
    def test_svarint_roundtrip(self, value):
        assert roundtrip(write_svarint, read_svarint, value) == value


class TestDeltaRun:
    @pytest.mark.parametrize(
        "values",
        [[], [7], [1, 4, 7, 200], [5, 3, 9, 0], [10, 10, 10]],
    )
    def test_roundtrip_preserves_order(self, values):
        assert roundtrip(write_delta_run, read_delta_run, values) == values

    def test_sorted_run_is_compact(self):
        buffer = bytearray()
        write_delta_run(buffer, list(range(1000, 1100)))
        # length + first value + 99 single-byte deltas.
        assert len(buffer) < 110

    def test_truncated_rejected(self):
        buffer = bytearray()
        write_delta_run(buffer, [1, 2, 3])
        with pytest.raises(ArchiveError):
            read_delta_run(memoryview(bytes(buffer[:-1])), 0)


class TestInt32Array:
    @pytest.mark.parametrize("values", [[], [7], [1, 4, 7, 200], [5, 3, -9, 0]])
    def test_roundtrip_preserves_order(self, values):
        assert roundtrip(write_int32_array, read_int32_array, values) == values

    def test_out_of_range_rejected(self):
        with pytest.raises(ArchiveError):
            write_int32_array(bytearray(), [2**31])

    def test_truncated_rejected(self):
        buffer = bytearray()
        write_int32_array(buffer, [1, 2, 3])
        with pytest.raises(ArchiveError):
            read_int32_array(memoryview(bytes(buffer[:-1])), 0)


class TestString:
    @pytest.mark.parametrize(
        "text", ["", "ns1.reg.ru", "xn--e1afmkfd.xn--p1ai", "пример.рф"]
    )
    def test_roundtrip(self, text):
        assert roundtrip(write_string, read_string, text) == text

    def test_truncated_rejected(self):
        buffer = bytearray()
        write_string(buffer, "example.ru")
        with pytest.raises(ArchiveError):
            read_string(memoryview(bytes(buffer[:-1])), 0)

    def test_invalid_utf8_rejected(self):
        # A lone lead byte: the length prefix is fine, the text is not.
        with pytest.raises(ArchiveError, match="invalid UTF-8"):
            read_string(memoryview(bytes([2, 0x41, 0xD0])), 0)


def _gf2_matrix_times(matrix, vector):
    """Multiply a GF(2) 32x32 matrix (list of column ints) by a vector."""
    result = 0
    index = 0
    while vector:
        if vector & 1:
            result ^= matrix[index]
        vector >>= 1
        index += 1
    return result


def _gf2_matrix_square(square, matrix):
    """``square = matrix * matrix`` over GF(2)."""
    for n in range(32):
        square[n] = _gf2_matrix_times(matrix, matrix[n])


def reference_crc32_combine(crc1, crc2, length2):
    """The older zlib crc32_combine: GF(2) matrix squaring per call."""
    if length2 == 0:
        return crc1 & 0xFFFFFFFF
    crc1 &= 0xFFFFFFFF
    crc2 &= 0xFFFFFFFF
    # Operator for one zero bit: the polynomial in row 0, then a shift
    # matrix (bit n of the CRC moves to bit n-1).
    odd = [0xEDB88320] + [1 << n for n in range(31)]
    even = [0] * 32
    _gf2_matrix_square(even, odd)   # two zero bits
    _gf2_matrix_square(odd, even)   # four zero bits
    # Each squaring doubles the zero count (the first loop iteration's
    # square makes even = one zero byte).
    while True:
        _gf2_matrix_square(even, odd)
        if length2 & 1:
            crc1 = _gf2_matrix_times(even, crc1)
        length2 >>= 1
        if not length2:
            break
        _gf2_matrix_square(odd, even)
        if length2 & 1:
            crc1 = _gf2_matrix_times(odd, crc1)
        length2 >>= 1
        if not length2:
            break
    return (crc1 ^ crc2) & 0xFFFFFFFF


class TestCrc32Combine:
    """crc32_combine(crc(a), crc(b), len(b)) == crc(a || b), exactly."""

    def test_matches_matrix_reference_up_to_2_pow_40(self):
        rng = derive_rng(12, "crc-combine-reference")
        lengths = [1, 2, 3, 7, 8, 255, 256, 2**31 - 1, 2**31, 2**32, 2**40]
        lengths += [int(v) for v in rng.integers(1, 2**40 + 1, size=200)]
        for length in lengths:
            crc1, crc2 = (int(v) for v in rng.integers(0, 2**32, size=2))
            assert crc32_combine(crc1, crc2, length) == reference_crc32_combine(
                crc1, crc2, length
            ), length

    def test_reference_matches_sequential_crc(self):
        a, b = b"head" * 100, bytes(range(256)) * 3
        assert reference_crc32_combine(
            zlib.crc32(a), zlib.crc32(b), len(b)
        ) == zlib.crc32(b, zlib.crc32(a))

    @pytest.mark.parametrize(
        "a,b",
        [
            (b"", b""),
            (b"", b"tail"),
            (b"head", b""),
            (b"head", b"tail"),
            (b"\x00" * 1000, b"\xff" * 1000),
            (bytes(range(256)) * 64, b"payload-block" * 999),
        ],
    )
    def test_matches_sequential_crc(self, a, b):
        sequential = zlib.crc32(b, zlib.crc32(a))
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == sequential

    def test_seeded_random_splits(self):
        rng = derive_rng(11, "crc-combine")
        blob = bytes(rng.integers(0, 256, size=8192, dtype="uint8"))
        for _ in range(50):
            cut = int(rng.integers(0, len(blob) + 1))
            head, tail = blob[:cut], blob[cut:]
            assert crc32_combine(
                zlib.crc32(head), zlib.crc32(tail), len(tail)
            ) == zlib.crc32(blob)

    def test_zero_length_tail_is_identity(self):
        assert crc32_combine(0xDEADBEEF, 0x12345678, 0) == 0xDEADBEEF

    def test_negative_length_rejected(self):
        with pytest.raises(ArchiveError):
            crc32_combine(1, 2, -1)

    def test_result_is_masked_to_32_bits(self):
        assert 0 <= crc32_combine(0xFFFFFFFF, 0xFFFFFFFF, 7) <= 0xFFFFFFFF
