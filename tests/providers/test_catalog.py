"""Tests for repro.providers.catalog: the standard market."""

import pytest

from repro.errors import ScenarioError
from repro.providers.catalog import ProviderCatalog, standard_catalog
from repro.providers.provider import Provider, Role


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog()


class TestPaperProviders:
    """The ASNs the paper names must be present and correctly labelled."""

    @pytest.mark.parametrize(
        "key,asn,country",
        [
            ("amazon", 16509, "US"),
            ("sedo", 47846, "DE"),
            ("cloudflare", 13335, "US"),
            ("regru", 197695, "RU"),
            ("rucenter", 48287, "RU"),
            ("timeweb", 9123, "RU"),
            ("beget", 198610, "RU"),
            ("hetzner", 24940, "DE"),
            ("linode", 63949, "US"),
            ("netnod", 8674, "SE"),
            ("serverel", 50867, "NL"),
        ],
    )
    def test_asn_and_country(self, catalog, key, asn, country):
        provider = catalog.get(key)
        assert asn in provider.asns
        assert provider.country == country

    def test_google_has_both_asns(self, catalog):
        assert catalog.get("google").asns == (15169, 396982)

    def test_rucenter_cloud_outsourced_to_netnod_segment(self, catalog):
        cloud = catalog.get("rucenter_cloud")
        assert all(h.infra == "netnodcloud" for h in cloud.ns_hosts)
        assert all(h.tld == "ru" for h in cloud.ns_hosts)

    def test_beget_ns_under_com(self, catalog):
        assert {h.tld for h in catalog.get("beget").ns_hosts} == {"com"}

    def test_route53_spans_many_tlds(self, catalog):
        tlds = {h.tld for h in catalog.get("amazon").ns_hosts}
        assert {"com", "net", "org", "uk"} <= tlds

    def test_sedo_is_parking(self, catalog):
        assert Role.PARKING in catalog.get("sedo").roles


class TestCatalogMechanics:
    def test_unknown_key_raises(self, catalog):
        with pytest.raises(ScenarioError):
            catalog.get("nope")

    def test_try_get(self, catalog):
        assert catalog.try_get("nope") is None

    def test_asns_unique_except_rucenter_cloud(self, catalog):
        # rucenter_cloud is a *service* of RU-CENTER, so it shares AS48287;
        # every other ASN belongs to exactly one provider.
        seen = {}
        shared = []
        for provider in catalog:
            for asn in provider.asns:
                if asn in seen:
                    shared.append((asn, seen[asn], provider.key))
                seen[asn] = provider.key
        assert shared == [(48287, "rucenter", "rucenter_cloud")]

    def test_no_duplicate_ns_hostnames(self, catalog):
        seen = set()
        for provider in catalog:
            for host in provider.ns_hosts:
                assert host.hostname not in seen
                seen.add(host.hostname)

    def test_duplicate_key_rejected(self):
        provider = Provider("dup", "Dup", "US", [1], Role.HOSTING)
        with pytest.raises(ScenarioError):
            ProviderCatalog([provider, provider])

    def test_as_registry_covers_all(self, catalog):
        registry = catalog.as_registry()
        for provider in catalog:
            for asn in provider.asns:
                assert registry.get(asn).country == provider.country

    def test_hosting_and_dns_partitions(self, catalog):
        assert sum(provider.offers_hosting for provider in catalog) > 20
        assert sum(Role.DNS in provider.roles for provider in catalog) > 20


class TestLongTail:
    def test_longtail_providers_span_many_tlds(self, catalog):
        tlds = set()
        for key in ("longtail1", "longtail2", "longtail3"):
            tlds.update(host.tld for host in catalog.get(key).ns_hosts)
        assert len(tlds) == 15  # five distinct TLDs per farm

    def test_longtail_tlds_not_russian(self, catalog):
        from repro.registry.tld import is_russian_tld

        for key in ("longtail1", "longtail2", "longtail3"):
            for host in catalog.get(key).ns_hosts:
                assert not is_russian_tld(host.tld)
