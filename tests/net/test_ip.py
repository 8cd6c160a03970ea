"""Tests for repro.net.ip: IPv4 parsing and formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.net.ip import (
    MAX_IPV4,
    format_ipv4,
    is_valid_ipv4_int,
    parse_ipv4,
)


class TestParse:
    def test_basic(self):
        assert parse_ipv4("1.2.3.4") == 0x01020304

    def test_zero(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_max(self):
        assert parse_ipv4("255.255.255.255") == MAX_IPV4

    @pytest.mark.parametrize(
        "text",
        ["1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.-4", "a.b.c.d", "01.2.3.4", ""],
    )
    def test_rejects_invalid(self, text):
        with pytest.raises(AddressError):
            parse_ipv4(text)


class TestFormat:
    def test_basic(self):
        assert format_ipv4(0x01020304) == "1.2.3.4"

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ipv4(MAX_IPV4 + 1)

    def test_rejects_negative(self):
        with pytest.raises(AddressError):
            format_ipv4(-1)


class TestRoundtrip:
    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_format_parse_roundtrip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestValidation:
    def test_valid(self):
        assert is_valid_ipv4_int(0)
        assert is_valid_ipv4_int(MAX_IPV4)

    def test_invalid(self):
        assert not is_valid_ipv4_int(-1)
        assert not is_valid_ipv4_int(MAX_IPV4 + 1)
        assert not is_valid_ipv4_int("1.2.3.4")
