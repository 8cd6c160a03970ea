"""Tests for repro.providers.addressing: the address plan."""

import pytest

from repro.errors import ScenarioError
from repro.geo.countries import RU
from repro.providers.addressing import AddressPlan, hosting_addresses
from repro.providers.catalog import standard_catalog


@pytest.fixture(scope="module")
def plan():
    return AddressPlan(standard_catalog())


class TestAllocations:
    def test_every_asn_has_a_prefix(self, plan):
        for provider in plan.catalog:
            for asn in provider.asns:
                prefix = plan.prefix_of_asn(asn)
                assert prefix.length == 16

    def test_prefixes_disjoint(self, plan):
        prefixes = [
            plan.prefix_of_asn(asn)
            for provider in plan.catalog
            for asn in provider.asns
        ]
        unique = set(prefixes)
        ordered = sorted(unique)
        for a, b in zip(ordered, ordered[1:]):
            assert not a.overlaps(b)

    def test_hosting_pool_inside_asn_prefix(self, plan):
        prefix = plan.prefix_of_asn(197695)
        pool = plan.hosting_pool(197695)
        assert prefix.contains_prefix(pool)
        assert pool.length == 17

    def test_unknown_asn_rejected(self, plan):
        with pytest.raises(ScenarioError):
            plan.prefix_of_asn(424242)


class TestConsistency:
    def test_routing_and_geo_agree(self, plan):
        """The paper's key invariant: IP -> ASN and IP -> country line up."""
        routing = plan.routing_table()
        geo = plan.geo_database()
        registry = plan.catalog.as_registry()
        for provider in plan.catalog:
            address = plan.hosting_pool(provider.primary_asn).first + 7
            assert routing.lookup(address) == provider.primary_asn
            assert geo.lookup(address) == registry.get(provider.primary_asn).country

    def test_ns_addresses_inside_infra_network(self, plan):
        routing = plan.routing_table()
        for hostname in plan.ns_hostnames():
            host = plan.ns_host(hostname)
            infra = plan.catalog.get(host.infra)
            assert routing.lookup(plan.ns_address(hostname)) == infra.primary_asn

    def test_cloud_ns_geolocates_to_sweden_initially(self, plan):
        address = plan.ns_address("ns4-cloud.nic.ru")
        assert plan.geo_database().lookup(address) == "SE"


def hosting_address(plan, provider_key, domain, asn=None):
    """The one apex address of ``domain`` at one provider component."""
    (address,) = hosting_addresses(plan.hosting_pools([(provider_key, asn)]), domain)
    return address


class TestHostingAddresses:
    def test_deterministic(self, plan):
        a = hosting_address(plan, "regru", "example.ru")
        b = hosting_address(plan, "regru", "example.ru")
        assert a == b

    def test_inside_pool(self, plan):
        address = hosting_address(plan, "cloudflare", "example.ru")
        assert plan.hosting_pool(13335).contains(address)

    def test_differs_per_provider(self, plan):
        assert hosting_address(plan, "regru", "example.ru") != hosting_address(
            plan, "timeweb", "example.ru"
        )

    def test_multi_asn_provider(self, plan):
        a = hosting_address(plan, "google", "example.ru", asn=15169)
        b = hosting_address(plan, "google", "example.ru", asn=396982)
        assert plan.hosting_pool(15169).contains(a)
        assert plan.hosting_pool(396982).contains(b)

    def test_dns_only_provider_rejected(self, plan):
        with pytest.raises(ScenarioError):
            plan.hosting_pools([("netnod", None)])


class TestNsHostMoves:
    def test_netnod_renumbering(self):
        plan = AddressPlan(standard_catalog())
        old_address = plan.ns_address("ns4-cloud.nic.ru")
        assert plan.geo_database().lookup(old_address) == "SE"
        old, new = plan.move_ns_host("ns4-cloud.nic.ru", "rucenter")
        assert old == old_address
        assert plan.ns_address("ns4-cloud.nic.ru") == new
        assert plan.geo_database().lookup(new) == RU
        assert plan.routing_table().lookup(new) == 48287

    def test_unknown_host_rejected(self, plan):
        with pytest.raises(ScenarioError):
            plan.ns_address("ns1.unknown.example")
