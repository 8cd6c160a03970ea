"""Failure injection: the measurement pipeline under infrastructure faults.

A production active-measurement platform sees server outages, glueless
dead ends, and geolocation gaps every day.  These tests drive the honest
path through such faults and check the pipeline degrades the way
OpenINTEL-style pipelines do: fall back where the DNS allows it, skip and
carry on where it does not, and never mislabel.
"""

import datetime as dt

import pytest

from repro.dns.name import DomainName
from repro.dns.rdata import RRType
from repro.dns.resolver import IterativeResolver
from repro.errors import ServfailError
from repro.measurement import FastCollector, ResolvingCollector
from repro.sim.dnsbuild import DnsTreeBuilder

DATE = dt.date(2022, 3, 10)


@pytest.fixture()
def built(tiny_world):
    # Skip the reserved sanctioned block (indices 0..106): we want a
    # cross-section of the ordinary market.
    indices = list(tiny_world.population.active_indices(DATE)[107:207])
    tree = DnsTreeBuilder(tiny_world).build(DATE, indices)
    return tiny_world, tree, indices


def _domain_on_plan(world, indices, provider_key, date=DATE):
    """Find a sampled domain whose DNS plan is exactly one provider's."""
    plan_id = world.dns_plans.id_of(provider_key)
    dns_state = world.dns_state(date)
    for index in indices:
        if dns_state[index] == plan_id:
            return index
    return None


class TestNsServerOutage:
    def test_secondary_ns_takes_over(self, built):
        world, tree, indices = built
        index = _domain_on_plan(world, indices, "regru_dns")
        if index is None:
            pytest.skip("no regru_dns domain in sample")
        name = world.population.record(index).name
        epoch = world.epoch_at(DATE)
        tree.network.set_down(epoch.ns_addresses["ns1.reg.ru"])

        resolver = IterativeResolver(tree.network, tree.root_addresses)
        result = resolver.resolve(name, RRType.A)
        assert result.ok  # ns2.reg.ru answered

    def test_total_provider_outage_skips_domain(self, built):
        world, tree, indices = built
        index = _domain_on_plan(world, indices, "regru_dns")
        if index is None:
            pytest.skip("no regru_dns domain in sample")
        epoch = world.epoch_at(DATE)
        tree.network.set_down(epoch.ns_addresses["ns1.reg.ru"])
        tree.network.set_down(epoch.ns_addresses["ns2.reg.ru"])

        name = world.population.record(index).name
        resolver = IterativeResolver(tree.network, tree.root_addresses)
        with pytest.raises(ServfailError):
            resolver.resolve(name, RRType.A)

    def test_collector_skips_failed_and_keeps_rest(self, tiny_world):
        """The collect loop logs-and-skips, as a real pipeline would."""
        indices = list(tiny_world.population.active_indices(DATE)[107:207])
        regru = _domain_on_plan(tiny_world, indices, "regru_dns")
        if regru is None:
            pytest.skip("no regru_dns domain in sample")

        class OutageCollector(ResolvingCollector):
            def collect(self, date, domain_indices=None):
                # Inject the outage after the tree is built each time.
                tree = self._builder.build(date, domain_indices)
                epoch = self._world.epoch_at(date)
                tree.network.set_down(epoch.ns_addresses["ns1.reg.ru"])
                tree.network.set_down(epoch.ns_addresses["ns2.reg.ru"])
                from repro.dns.cache import ResolverCache
                from repro.timeline import DayClock

                clock = DayClock(date)
                resolver = IterativeResolver(
                    tree.network, tree.root_addresses, clock,
                    ResolverCache(clock),
                )
                results = []
                for index in domain_indices:
                    m = self._measure_one(
                        resolver, date, self._world.population.record(int(index)).name,
                        int(index),
                    )
                    if m is not None:
                        results.append(m)
                return results

        measurements = OutageCollector(tiny_world).collect(DATE, indices)
        measured_indices = {m.domain_index for m in measurements}
        assert regru not in measured_indices
        assert len(measurements) >= len(indices) * 0.5


class TestTldOutage:
    def test_ru_tld_down_fails_all_ru(self, built):
        world, tree, indices = built
        # Take down every address serving the .ru TLD zone.
        for address in tree.network.addresses():
            server = tree.network.server_at(address)
            if server is not None and server.identity == "tld:ru":
                tree.network.set_down(address)
        resolver = IterativeResolver(tree.network, tree.root_addresses)
        ru_index = next(
            i for i in indices if world.population.record(i).name.tld == "ru"
        )
        name = world.population.record(ru_index).name
        with pytest.raises(ServfailError):
            resolver.resolve(name, RRType.A)


class TestGeolocationGaps:
    def test_unmapped_address_counts_as_non_russian(self):
        from repro.core.labels import classify_ns_geo
        from repro.geo.database import GeoDatabaseBuilder
        from repro.measurement.records import DomainMeasurement

        geo = GeoDatabaseBuilder().add_range(0, 99, "RU").build()
        measurement = DomainMeasurement(
            DATE, DomainName.parse("example.ru"),
            ("ns1.reg.ru", "ns2.reg.ru"), (50, 5000), (50,),
        )
        # One NS geolocates to RU, one has no geo data: partial, not full.
        assert classify_ns_geo(measurement, geo) == 1  # LABEL_PART


class TestMeasurementOutageVisibleInTotals:
    def test_black_curve_dip(self, tiny_world):
        """Footnote 8's March 22, 2021 dip appears in the domain totals."""
        from repro.archive import summarize_snapshot
        from repro.core.reducers import merge_full_sweep

        collector = FastCollector(tiny_world)
        series = merge_full_sweep([
            summarize_snapshot(snapshot)
            for snapshot in collector.sweep("2021-03-20", "2021-03-24", 1)
        ]).ns_composition
        totals = series.totals()
        dip = totals[2]  # 2021-03-22
        assert dip < 0.8 * totals[0]
        assert totals[4] > 0.95 * totals[0]  # recovered
