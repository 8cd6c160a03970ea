"""Binary encoding primitives for archive day shards.

Everything a shard stores reduces to three encodings:

* **uvarint** — LEB128 unsigned varints (7 payload bits per byte);
* **zigzag** — signed-to-unsigned mapping so small negative deltas stay
  one byte;
* **delta runs** — integer sequences stored as a zigzag-encoded first
  value followed by zigzag deltas, which collapses sorted index and
  address columns to ~1 byte per element.

Strings (domain names, NS host names) are length-prefixed UTF-8; NS
names additionally go through a per-shard pool because the same fleet
hostnames repeat for thousands of domains.

All functions operate on ``bytearray``/``memoryview``; the shard
writer encodes a day in bounded chunks and streams them through one
compressor.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ArchiveError

__all__ = [
    "write_uvarint",
    "read_uvarint",
    "zigzag",
    "unzigzag",
    "write_svarint",
    "read_svarint",
    "write_delta_run",
    "read_delta_run",
    "write_string",
    "read_string",
    "int32_bytes",
    "write_int32_array",
    "read_int32_array",
    "read_int32_ndarray",
    "crc32_combine",
]


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    if value < 0:
        raise ArchiveError(f"uvarint cannot encode negative value: {value}")
    while value > 0x7F:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def read_uvarint(view: memoryview, offset: int) -> Tuple[int, int]:
    """Read one uvarint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    length = len(view)
    while True:
        if offset >= length:
            raise ArchiveError("truncated varint in shard payload")
        byte = view[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 70:
            raise ArchiveError("varint longer than 10 bytes in shard payload")


def zigzag(value: int) -> int:
    """Map a signed int to an unsigned one (small magnitudes stay small)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def write_svarint(buffer: bytearray, value: int) -> None:
    """Append one zigzag-encoded signed varint."""
    write_uvarint(buffer, zigzag(value))


def read_svarint(view: memoryview, offset: int) -> Tuple[int, int]:
    """Read one signed (zigzag) varint; returns ``(value, next_offset)``."""
    raw, offset = read_uvarint(view, offset)
    return unzigzag(raw), offset


def write_delta_run(buffer: bytearray, values: Sequence[int]) -> None:
    """Append ``len, first, delta...`` for one integer sequence.

    Deltas are zigzag-encoded, so the sequence need not be sorted —
    sorted runs simply compress best.  Order is preserved exactly.
    """
    write_uvarint(buffer, len(values))
    previous = 0
    for value in values:
        value = int(value)
        write_svarint(buffer, value - previous)
        previous = value


def read_delta_run(view: memoryview, offset: int) -> Tuple[List[int], int]:
    """Read one delta run; returns ``(values, next_offset)``."""
    count, offset = read_uvarint(view, offset)
    values: List[int] = []
    previous = 0
    for _ in range(count):
        delta, offset = read_svarint(view, offset)
        previous += delta
        values.append(previous)
    return values, offset


def int32_bytes(values: Sequence[int]) -> bytes:
    """``values`` as little-endian int32 bytes; each must fit in int32."""
    array = np.asarray(values)
    if array.dtype != np.int32:
        array = np.asarray(array, dtype=np.int64)
        if array.size and (
            array.max(initial=0) > np.iinfo(np.int32).max
            or array.min(initial=0) < np.iinfo(np.int32).min
        ):
            raise ArchiveError("int32 column value out of range")
    return array.astype("<i4", copy=False).tobytes()


def write_int32_array(buffer: bytearray, values: Sequence[int]) -> None:
    """Append ``len`` plus a little-endian int32 array.

    Fixed-width columns decode through one vectorised ``np.frombuffer``
    instead of a per-value Python loop; zlib recovers most of the size
    difference against varints.  Values must fit in int32.
    """
    data = int32_bytes(values)
    write_uvarint(buffer, len(data) // 4)
    buffer.extend(data)


def read_int32_array(view: memoryview, offset: int) -> Tuple[List[int], int]:
    """Read one int32 array; returns ``(values, next_offset)``."""
    values, end = read_int32_ndarray(view, offset)
    return values.tolist(), end


def read_int32_ndarray(view: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    """Read one int32 array as a zero-copy (read-only) ndarray view.

    The returned array aliases the payload buffer, so it costs no copy
    and no dtype conversion — shard columns decoded through here are
    already in the dtype the analysis kernels consume.
    """
    count, offset = read_uvarint(view, offset)
    end = offset + 4 * count
    if end > len(view):
        raise ArchiveError("truncated int32 array in shard payload")
    values = np.frombuffer(view[offset:end], dtype="<i4")
    return values, end


# ----------------------------------------------------------------------
# CRC-32 combination
# ----------------------------------------------------------------------
#
# The v3 shard CRC folds the (zeroed) header in *first*, but the header
# stores the uncompressed payload length — which a streaming writer only
# knows after the last chunk.  crc32_combine() resolves the cycle: the
# payload's CRC is accumulated independently from zero while chunks
# stream out, and once the length is known the header+summary prefix CRC
# is combined with it as if the two messages had been one.  This is
# zlib's crc32_combine (GF(2) matrix exponentiation over the CRC-32
# polynomial), which CPython's zlib module does not expose.

#: CRC-32 polynomial, reflected form.
_CRC32_POLY = 0xEDB88320


def _gf2_matrix_times(matrix: Sequence[int], vector: int) -> int:
    """Multiply a GF(2) 32x32 matrix (list of column ints) by a vector."""
    result = 0
    index = 0
    while vector:
        if vector & 1:
            result ^= matrix[index]
        vector >>= 1
        index += 1
    return result


def _gf2_matrix_square(square: List[int], matrix: Sequence[int]) -> None:
    """``square = matrix * matrix`` over GF(2)."""
    for n in range(32):
        square[n] = _gf2_matrix_times(matrix, matrix[n])


def crc32_combine(crc1: int, crc2: int, length2: int) -> int:
    """CRC-32 of ``A + B`` given ``crc32(A)``, ``crc32(B)``, ``len(B)``.

    Equivalent to ``zlib.crc32(B, zlib.crc32(A))`` without needing the
    bytes of either message: ``crc1`` is advanced through ``length2``
    zero bytes by repeated matrix squaring (O(log length2) GF(2)
    products), then xor-ed with ``crc2``.
    """
    if length2 < 0:
        raise ArchiveError(f"crc32_combine length must be >= 0: {length2}")
    if length2 == 0:
        return crc1 & 0xFFFFFFFF
    crc1 &= 0xFFFFFFFF
    crc2 &= 0xFFFFFFFF

    # Operator for one zero bit: the polynomial in row 0, then a shift
    # matrix (bit n of the CRC moves to bit n-1).
    odd = [0] * 32
    odd[0] = _CRC32_POLY
    row = 1
    for n in range(1, 32):
        odd[n] = row
        row <<= 1
    even = [0] * 32
    _gf2_matrix_square(even, odd)   # two zero bits
    _gf2_matrix_square(odd, even)   # four zero bits

    # Apply length2 zero *bytes*: each squaring doubles the zero count
    # (the first loop iteration's square makes even = one zero byte).
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


def write_string(buffer: bytearray, text: str) -> None:
    """Append one length-prefixed UTF-8 string."""
    data = text.encode("utf-8")
    write_uvarint(buffer, len(data))
    buffer.extend(data)


def read_string(view: memoryview, offset: int) -> Tuple[str, int]:
    """Read one length-prefixed UTF-8 string; returns ``(text, next_offset)``."""
    length, offset = read_uvarint(view, offset)
    end = offset + length
    if end > len(view):
        raise ArchiveError("truncated string in shard payload")
    try:
        return bytes(view[offset:end]).decode("utf-8"), end
    except UnicodeDecodeError:
        raise ArchiveError("invalid UTF-8 in shard payload") from None
