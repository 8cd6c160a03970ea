"""The study zones' AXFR: how OpenINTEL obtains its daily seed lists.

The paper (Section 2) seeds the measurement platform from daily zone
file snapshots.  Transferring the simulated ``.ru`` and ``.рф`` zones
from their authoritative servers must recover the registry's own
active-registration list, the shortcut the fast collector takes.
"""

import pytest

from repro.dns.name import DomainName
from repro.dns.rdata import RRType
from repro.errors import ZoneError
from repro.sim.dnsbuild import DnsTreeBuilder


def seed_names(world, date):
    """The names the study zones delegate on ``date``, via AXFR."""
    tree = DnsTreeBuilder(world).build(date)
    names = set()
    for tld in ("ru", "xn--p1ai"):
        origin = DomainName.parse(tld)
        for rrset in tree.network.transfer(tree.tld_addresses[tld], origin):
            if rrset.rtype is RRType.NS and rrset.name != origin:
                names.add(rrset.name)
    return names


class TestSeeder:
    def test_seed_list_recovers_registry_truth(self, tiny_world):
        """The honest AXFR path recovers the registry's active set.

        The zone also (correctly) delegates provider infrastructure
        domains like reg.ru and nic.ru — exactly as the real .ru zone
        does — so the seed list is a superset containing only those
        extras.
        """
        date = "2022-03-10"
        seeded = seed_names(tiny_world, date)
        expected = {
            tiny_world.population.record(int(i)).name
            for i in tiny_world.population.active_indices(date)
        }
        assert expected <= seeded
        extras = {str(name) for name in seeded - expected}
        infra_names = {
            ".".join(host.hostname.labels[-2:])
            for provider in tiny_world.catalog
            for host in provider.ns_hosts
        }
        assert extras <= infra_names

    def test_seed_count_changes_over_time(self, tiny_world):
        early = seed_names(tiny_world, "2017-06-18")
        late = seed_names(tiny_world, "2022-05-25")
        assert len(early) != len(late)

    def test_rf_names_included(self, tiny_world):
        names = seed_names(tiny_world, "2022-03-10")
        assert any(name.tld == "xn--p1ai" for name in names)


class TestAxfrPolicy:
    def test_non_study_tld_refuses_transfer(self, tiny_world):
        tree = DnsTreeBuilder(tiny_world).build("2022-03-10", [200])
        com_address = tree.tld_addresses.get("com")
        assert com_address is not None
        with pytest.raises(ZoneError):
            tree.network.transfer(com_address, DomainName.parse("com"))

    def test_axfr_starts_with_soa(self, tiny_world):
        tree = DnsTreeBuilder(tiny_world).build("2022-03-10", [200])
        rrsets = tree.network.transfer(
            tree.tld_addresses["ru"], DomainName.parse("ru")
        )
        assert rrsets[0].rtype is RRType.SOA
