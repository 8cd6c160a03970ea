"""Tests for repro.net.asn: the AS metadata registry."""

import pytest

from repro.errors import AddressError
from repro.net.asn import ASInfo, ASRegistry


@pytest.fixture
def registry():
    reg = ASRegistry()
    for info in (
        ASInfo(13335, "Cloudflare", "US", "cloudflare"),
        ASInfo(16509, "Amazon", "US", "amazon"),
        ASInfo(197695, "REG.RU", "RU", "regru"),
    ):
        reg.register(info)
    return reg


class TestASInfo:
    def test_fields(self):
        info = ASInfo(47846, "Sedo", "DE", "sedo")
        assert info.asn == 47846
        assert info.country == "DE"

    def test_rejects_bad_asn(self):
        with pytest.raises(AddressError):
            ASInfo(-1, "x", "US", "x")

    def test_rejects_bad_country(self):
        with pytest.raises(AddressError):
            ASInfo(1, "x", "usa", "x")

    def test_equality(self):
        assert ASInfo(1, "a", "US", "a") == ASInfo(1, "a", "US", "a")


class TestRegistry:
    def test_contains_and_get(self, registry):
        assert 13335 in registry
        assert registry.get(13335).name == "Cloudflare"

    def test_get_missing(self, registry):
        assert registry.get(99999) is None

    def test_name_fallback(self, registry):
        assert registry.name_of(99999) == "AS99999"

    def test_country_of(self, registry):
        assert registry.get(197695).country == "RU"

    def test_iteration_sorted_by_asn(self, registry):
        asns = [info.asn for info in registry]
        assert asns == sorted(asns)

    def test_register_replaces(self, registry):
        registry.register(ASInfo(13335, "CF", "US", "cloudflare"))
        assert registry.get(13335).name == "CF"
        assert len(registry) == 3
