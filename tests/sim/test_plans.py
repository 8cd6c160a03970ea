"""Tests for repro.sim.plans: plans and derived label tables."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ScenarioError
from repro.providers.addressing import AddressPlan
from repro.providers.catalog import standard_catalog
from repro.sim.plans import (
    LABEL_FULL,
    LABEL_NON,
    LABEL_PART,
    DnsPlan,
    DnsPlanTable,
    HostingPlan,
    HostingPlanTable,
    composition_label,
)


@pytest.fixture(scope="module")
def infra():
    catalog = standard_catalog()
    plan = AddressPlan(catalog)
    return catalog, plan, plan.routing_table(), plan.geo_database()


class TestCompositionLabel:
    def test_full(self):
        assert composition_label([True, True]) == LABEL_FULL

    def test_non(self):
        assert composition_label([False]) == LABEL_NON

    def test_part(self):
        assert composition_label([True, False]) == LABEL_PART

    def test_empty_rejected(self):
        with pytest.raises(ScenarioError):
            composition_label([])

    @given(st.lists(st.booleans(), min_size=1, max_size=8))
    def test_trichotomy(self, flags):
        label = composition_label(flags)
        if all(flags):
            assert label == LABEL_FULL
        elif not any(flags):
            assert label == LABEL_NON
        else:
            assert label == LABEL_PART


class TestDnsPlan:
    def test_ns_tlds(self):
        plan = DnsPlan("mixed", ["ns1.reg.ru", "alice.ns.cloudflare.com"])
        assert plan.ns_tlds() == ("com", "ru")

    def test_empty_rejected(self):
        with pytest.raises(ScenarioError):
            DnsPlan("empty", [])


class TestDnsPlanTable:
    def test_derive_labels(self, infra):
        catalog, plan, routing, geo = infra
        table = DnsPlanTable()
        ru_id = table.add(DnsPlan("ru_only", ["ns1.reg.ru", "ns2.reg.ru"]))
        mixed_id = table.add(
            DnsPlan("mixed", ["ns1.reg.ru", "alice.ns.cloudflare.com"])
        )
        western_id = table.add(
            DnsPlan("western", ["alice.ns.cloudflare.com", "bob.ns.cloudflare.com"])
        )
        labels = table.derive(plan, routing, geo)
        assert labels.geo_label[ru_id] == LABEL_FULL
        assert labels.geo_label[mixed_id] == LABEL_PART
        assert labels.geo_label[western_id] == LABEL_NON
        assert labels.tld_label[ru_id] == LABEL_FULL
        assert labels.tld_label[mixed_id] == LABEL_PART
        assert labels.tld_label[western_id] == LABEL_NON

    def test_membership_matrix(self, infra):
        catalog, plan, routing, geo = infra
        table = DnsPlanTable()
        table.add(DnsPlan("mixed", ["ns1.reg.ru", "alice.ns.cloudflare.com"]))
        labels = table.derive(plan, routing, geo)
        assert labels.tld_membership[0, labels.tld_names.index("ru")]
        assert labels.tld_membership[0, labels.tld_names.index("com")]

    def test_ns_asns(self, infra):
        catalog, plan, routing, geo = infra
        table = DnsPlanTable()
        table.add(DnsPlan("cf", ["alice.ns.cloudflare.com"]))
        labels = table.derive(plan, routing, geo)
        assert labels.ns_asns[0] == (13335,)

    def test_duplicate_key_rejected(self):
        table = DnsPlanTable()
        table.add(DnsPlan("x", ["ns1.reg.ru"]))
        with pytest.raises(ScenarioError):
            table.add(DnsPlan("x", ["ns2.reg.ru"]))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError):
            DnsPlanTable().id_of("missing")


class TestHostingPlanTable:
    def test_labels(self, infra):
        catalog, plan, routing, geo = infra
        table = HostingPlanTable()
        ru = table.add(HostingPlan("ru", [("regru", 197695)]))
        dual = table.add(
            HostingPlan("dual", [("regru", 197695), ("hetzner", 24940)])
        )
        western = table.add(HostingPlan("w", [("cloudflare", 13335)]))
        labels = table.derive(plan, routing, geo)
        assert labels.geo_label[ru] == LABEL_FULL
        assert labels.geo_label[dual] == LABEL_PART
        assert labels.geo_label[western] == LABEL_NON
        assert labels.primary_asn[dual] == 197695
        assert labels.asn_sets[dual] == (197695, 24940)

    def test_empty_components_rejected(self):
        with pytest.raises(ScenarioError):
            HostingPlan("bad", [])
