"""Tests for repro.net.prefix: CIDR blocks and the allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, AllocationError
from repro.net.ip import parse_ipv4
from repro.net.prefix import Prefix, PrefixAllocator, summarize


class TestPrefix:
    def test_parse_and_str_roundtrip(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert str(prefix) == "10.0.0.0/8"

    def test_bounds(self):
        prefix = Prefix.parse("192.168.1.0/24")
        assert prefix.first == parse_ipv4("192.168.1.0")
        assert prefix.last == parse_ipv4("192.168.1.255")
        assert prefix.size == 256

    def test_contains(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(parse_ipv4("10.255.0.1"))
        assert not prefix.contains(parse_ipv4("11.0.0.0"))

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix(parse_ipv4("10.0.0.1"), 8)

    def test_bad_length_rejected(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)

    def test_slash_zero_covers_everything(self):
        assert Prefix.parse("0.0.0.0/0").size == 2**32

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/9")
        b = Prefix.parse("10.0.0.0/8")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_subnets(self):
        subnets = list(Prefix.parse("10.0.0.0/30").subnets(31))
        assert [str(s) for s in subnets] == ["10.0.0.0/31", "10.0.0.2/31"]

    def test_subnets_wrong_direction_rejected(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/24").subnets(23))

    def test_immutable(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.length = 9

    def test_equality_and_hash(self):
        assert Prefix.parse("10.0.0.0/8") == Prefix.parse("10.0.0.0/8")
        assert len({Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/8")}) == 1

    @given(st.integers(min_value=0, max_value=32))
    def test_mask_bit_count(self, length):
        assert bin(Prefix.mask_for(length)).count("1") == length


class TestAllocator:
    def test_sequential_non_overlapping(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        a = allocator.allocate(16)
        b = allocator.allocate(16)
        assert not a.overlaps(b)
        assert a.first < b.first

    def test_alignment(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        allocator.allocate(24)
        big = allocator.allocate(16)
        assert big.network % big.size == 0

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate(31)
        allocator.allocate(31)
        with pytest.raises(AllocationError):
            allocator.allocate(31)

    def test_too_large_rejected(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(AllocationError):
            allocator.allocate(8)

    @given(st.lists(st.integers(min_value=20, max_value=28), min_size=1, max_size=30))
    def test_all_allocations_disjoint_and_inside_parent(self, lengths):
        parent = Prefix.parse("10.0.0.0/8")
        allocator = PrefixAllocator(parent)
        blocks = [allocator.allocate(length) for length in lengths]
        for i, a in enumerate(blocks):
            assert parent.contains_prefix(a)
            for b in blocks[i + 1 :]:
                assert not a.overlaps(b)


class TestSummarize:
    def test_empty(self):
        assert summarize([]) is None

    def test_single(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert summarize([prefix]) == prefix

    def test_pair(self):
        result = summarize([Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")])
        assert result == Prefix.parse("10.0.0.0/23")

    def test_covers_all_inputs(self):
        prefixes = [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.9.0.0/24")]
        result = summarize(prefixes)
        assert all(result.contains_prefix(p) for p in prefixes)
