"""Tests for repro.providers.provider."""

import pytest

from repro.errors import ScenarioError
from repro.providers.provider import NsHost, Provider, Role


class TestNsHost:
    def test_infra_defaults_to_owner(self):
        host = NsHost("ns1.reg.ru", "regru")
        assert host.infra == "regru"

    def test_outsourced_infra(self):
        host = NsHost("ns4-cloud.nic.ru", "rucenter_cloud", "netnod")
        assert host.owner == "rucenter_cloud"
        assert host.infra == "netnod"

    def test_tld(self):
        assert NsHost("alice.ns.cloudflare.com", "cloudflare").tld == "com"


class TestProvider:
    def test_primary_asn(self):
        provider = Provider("google", "Google", "US", [15169, 396982], Role.HOSTING)
        assert provider.primary_asn == 15169

    def test_needs_asn(self):
        with pytest.raises(ScenarioError):
            Provider("x", "X", "US", [], Role.HOSTING)

    def test_dns_role_needs_hosts(self):
        with pytest.raises(ScenarioError):
            Provider("x", "X", "US", [1], Role.DNS)

    def test_roles(self):
        hosting = Provider("h", "H", "US", [1], Role.HOSTING)
        parking = Provider("p", "P", "DE", [2], Role.PARKING)
        dns = Provider("d", "D", "US", [3], Role.DNS, ["ns1.d.com"])
        assert hosting.offers_hosting and Role.DNS not in hosting.roles
        assert parking.offers_hosting
        assert Role.DNS in dns.roles and not dns.offers_hosting

    def test_ns_hosts_inherit_infra(self):
        provider = Provider(
            "cloud", "Cloud", "RU", [1], Role.DNS,
            ["ns1.cloud.ru", "ns2.cloud.ru"], ns_infra="other",
        )
        assert all(host.infra == "other" for host in provider.ns_hosts)
