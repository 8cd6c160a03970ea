"""Tests for repro.net.rib: longest-prefix-match routing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.net.ip import MAX_IPV4, parse_ipv4
from repro.net.prefix import Prefix
from repro.net.rib import RoutingTable


def make_table(*entries):
    table = RoutingTable()
    for text, asn in entries:
        table.announce(Prefix.parse(text), asn)
    return table


class TestLookup:
    def test_exact(self):
        table = make_table(("10.0.0.0/8", 100))
        assert table.lookup(parse_ipv4("10.1.2.3")) == 100

    def test_miss(self):
        table = make_table(("10.0.0.0/8", 100))
        assert table.lookup(parse_ipv4("11.0.0.0")) is None

    def test_longest_prefix_wins(self):
        table = make_table(("10.0.0.0/8", 100), ("10.1.0.0/16", 200))
        assert table.lookup(parse_ipv4("10.1.2.3")) == 200
        assert table.lookup(parse_ipv4("10.2.2.3")) == 100

    def test_default_route(self):
        table = make_table(("0.0.0.0/0", 1), ("10.0.0.0/8", 100))
        assert table.lookup(parse_ipv4("192.168.1.1")) == 1

    def test_host_route(self):
        table = make_table(("10.0.0.0/8", 100), ("10.0.0.1/32", 999))
        assert table.lookup(parse_ipv4("10.0.0.1")) == 999

    def test_bad_address_rejected(self):
        with pytest.raises(AddressError):
            make_table(("10.0.0.0/8", 1)).lookup(-5)

    def test_lookup_many_preserves_order(self):
        table = make_table(("10.0.0.0/8", 100))
        results = table.lookup_many(
            [parse_ipv4("10.0.0.1"), parse_ipv4("11.0.0.1")]
        )
        assert results == [100, None]


class TestMutation:
    def test_replace(self):
        table = make_table(("10.0.0.0/8", 100))
        table.announce(Prefix.parse("10.0.0.0/8"), 300)
        assert table.lookup(parse_ipv4("10.0.0.1")) == 300
        assert len(table) == 1

    def test_withdraw(self):
        table = make_table(("10.0.0.0/8", 100), ("10.1.0.0/16", 200))
        table.withdraw(Prefix.parse("10.1.0.0/16"))
        assert table.lookup(parse_ipv4("10.1.0.1")) == 100

    def test_withdraw_missing_is_noop(self):
        table = make_table(("10.0.0.0/8", 100))
        table.withdraw(Prefix.parse("11.0.0.0/8"))
        assert len(table) == 1

    def test_bad_asn_rejected(self):
        with pytest.raises(AddressError):
            make_table().announce(Prefix.parse("10.0.0.0/8"), -1)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_IPV4),
            st.integers(min_value=8, max_value=28),
            st.integers(min_value=1, max_value=65000),
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=MAX_IPV4),
)
def test_lookup_matches_naive_linear_scan(raw_routes, probe):
    """Property: dict-per-length LPM equals brute-force most-specific match."""
    table = RoutingTable()
    routes = []
    for network, length, asn in raw_routes:
        prefix = Prefix(network & Prefix.mask_for(length), length)
        table.announce(prefix, asn)
        routes.append((prefix, asn))
    # Replay replacements: later announcement for the same prefix wins.
    effective = {}
    for prefix, asn in routes:
        effective[prefix] = asn
    best = None
    for prefix, asn in effective.items():
        if prefix.contains(probe):
            if best is None or prefix.length > best[0].length:
                best = (prefix, asn)
    expected = best[1] if best else None
    assert table.lookup(probe) == expected
