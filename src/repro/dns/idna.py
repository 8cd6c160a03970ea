"""Punycode (RFC 3492) and minimal IDNA encoding, implemented from scratch.

The paper's subject includes the internationalised ccTLD ``.рф``, whose
A-label form is ``xn--p1ai``.  The registry, zones, and analysis all work on
A-labels; this module converts between Unicode labels (U-labels) and their
ASCII-compatible encoding.

Only the pieces of IDNA the simulation needs are implemented: lowercasing
plus Punycode with the ``xn--`` prefix.  The full nameprep/UTS46 mapping
tables are out of scope (and unnecessary for the synthetic names we
generate), but the Punycode codec itself is complete and round-trips any
Unicode label, verified against RFC 3492's published test vectors.
"""

from __future__ import annotations

from ..errors import PunycodeError

__all__ = [
    "ACE_PREFIX",
    "punycode_encode",
    "punycode_decode",
    "encode_label",
    "decode_label",
    "to_ascii",
    "to_unicode",
]

#: ASCII-compatible-encoding prefix marking an IDNA label.
ACE_PREFIX = "xn--"

# RFC 3492 section 5 parameter values.
_BASE = 36
_TMIN = 1
_TMAX = 26
_SKEW = 38
_DAMP = 700
_INITIAL_BIAS = 72
_INITIAL_N = 128
_DELIMITER = "-"
_MAXINT = 0x7FFFFFFF


def _adapt(delta: int, numpoints: int, firsttime: bool) -> int:
    """Bias adaptation function (RFC 3492 section 6.1)."""
    delta = delta // _DAMP if firsttime else delta // 2
    delta += delta // numpoints
    k = 0
    while delta > ((_BASE - _TMIN) * _TMAX) // 2:
        delta //= _BASE - _TMIN
        k += _BASE
    return k + (((_BASE - _TMIN + 1) * delta) // (delta + _SKEW))


def _encode_digit(digit: int) -> str:
    """Map 0..35 to 'a'..'z', '0'..'9'."""
    if 0 <= digit <= 25:
        return chr(ord("a") + digit)
    if 26 <= digit <= 35:
        return chr(ord("0") + digit - 26)
    raise PunycodeError(f"digit out of range: {digit}")


def _decode_digit(char: str) -> int:
    """Inverse of :func:`_encode_digit`; accepts upper case too."""
    code = ord(char)
    if ord("a") <= code <= ord("z"):
        return code - ord("a")
    if ord("A") <= code <= ord("Z"):
        return code - ord("A")
    if ord("0") <= code <= ord("9"):
        return code - ord("0") + 26
    raise PunycodeError(f"invalid punycode digit: {char!r}")


def punycode_encode(text: str) -> str:
    """Encode a Unicode string as a Punycode ASCII string (RFC 3492 6.3)."""
    codepoints = [ord(ch) for ch in text]
    output = [ch for ch in text if ord(ch) < 0x80]
    basic_count = len(output)
    handled = basic_count
    if basic_count:
        output.append(_DELIMITER)

    n = _INITIAL_N
    delta = 0
    bias = _INITIAL_BIAS
    total = len(codepoints)

    while handled < total:
        candidates = [cp for cp in codepoints if cp >= n]
        m = min(candidates)
        if (m - n) > (_MAXINT - delta) // (handled + 1):
            raise PunycodeError("punycode overflow")
        delta += (m - n) * (handled + 1)
        n = m
        for cp in codepoints:
            if cp < n:
                delta += 1
                if delta > _MAXINT:
                    raise PunycodeError("punycode overflow")
            elif cp == n:
                q = delta
                k = _BASE
                while True:
                    if k <= bias:
                        threshold = _TMIN
                    elif k >= bias + _TMAX:
                        threshold = _TMAX
                    else:
                        threshold = k - bias
                    if q < threshold:
                        break
                    output.append(
                        _encode_digit(threshold + (q - threshold) % (_BASE - threshold))
                    )
                    q = (q - threshold) // (_BASE - threshold)
                    k += _BASE
                output.append(_encode_digit(q))
                bias = _adapt(delta, handled + 1, handled == basic_count)
                delta = 0
                handled += 1
        delta += 1
        n += 1

    return "".join(output)


def punycode_decode(text: str) -> str:
    """Decode a Punycode ASCII string back to Unicode (RFC 3492 6.2)."""
    for ch in text:
        if ord(ch) >= 0x80:
            raise PunycodeError(f"non-ASCII input to punycode decoder: {text!r}")

    last_delim = text.rfind(_DELIMITER)
    if last_delim > 0:
        output = [ord(ch) for ch in text[:last_delim]]
        encoded = text[last_delim + 1 :]
    else:
        output = []
        encoded = text[last_delim + 1 :] if last_delim == 0 else text

    n = _INITIAL_N
    i = 0
    bias = _INITIAL_BIAS
    pos = 0

    while pos < len(encoded):
        old_i = i
        weight = 1
        k = _BASE
        while True:
            if pos >= len(encoded):
                raise PunycodeError(f"truncated punycode: {text!r}")
            digit = _decode_digit(encoded[pos])
            pos += 1
            if digit > (_MAXINT - i) // weight:
                raise PunycodeError("punycode overflow")
            i += digit * weight
            if k <= bias:
                threshold = _TMIN
            elif k >= bias + _TMAX:
                threshold = _TMAX
            else:
                threshold = k - bias
            if digit < threshold:
                break
            if weight > _MAXINT // (_BASE - threshold):
                raise PunycodeError("punycode overflow")
            weight *= _BASE - threshold
            k += _BASE
        bias = _adapt(i - old_i, len(output) + 1, old_i == 0)
        if i // (len(output) + 1) > _MAXINT - n:
            raise PunycodeError("punycode overflow")
        n += i // (len(output) + 1)
        i %= len(output) + 1
        if n < 0x80:
            raise PunycodeError(f"basic code point encoded as extended: {text!r}")
        output.insert(i, n)
        i += 1

    return "".join(chr(cp) for cp in output)


def encode_label(label: str) -> str:
    """Convert one label to its A-label (ASCII) form, lowercased."""
    if not label:
        raise PunycodeError("empty label")
    lowered = label.lower()
    if lowered.isascii():
        return lowered
    encoded = ACE_PREFIX + punycode_encode(lowered)
    if len(encoded) > 63:
        raise PunycodeError(f"A-label longer than 63 octets: {encoded!r}")
    return encoded


def decode_label(label: str) -> str:
    """Convert one A-label back to its U-label (Unicode) form."""
    lowered = label.lower()
    if not lowered.startswith(ACE_PREFIX):
        return lowered
    return punycode_decode(lowered[len(ACE_PREFIX) :])


def to_ascii(name: str) -> str:
    """Convert a dotted domain name to A-label form."""
    if not name:
        return name
    trailing_dot = name.endswith(".")
    body = name[:-1] if trailing_dot else name
    encoded = ".".join(encode_label(label) for label in body.split("."))
    return encoded + "." if trailing_dot else encoded


def to_unicode(name: str) -> str:
    """Convert a dotted domain name to U-label form."""
    if not name:
        return name
    trailing_dot = name.endswith(".")
    body = name[:-1] if trailing_dot else name
    decoded = ".".join(decode_label(label) for label in body.split("."))
    return decoded + "." if trailing_dot else decoded
