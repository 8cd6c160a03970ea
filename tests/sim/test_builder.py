"""Building counterfactual worlds from a ScenarioSpec: the peaceful
baseline, spec-level pulses and notes, infra events, determinism."""

import datetime as dt

import pytest

from repro.core.labels import snapshot_ns_geo_labels
from repro.measurement import FastCollector
from repro.scenario import PulseSpec, ScenarioSpec, get_scenario
from repro.sim import validate_world
from repro.sim.conflict import NETNOD_CUTOFF

CONFIG = dict(scale=2500.0, with_pki=False)
EXIT_DAY = dt.date(2022, 4, 1)


def _dns_exit_spec() -> ScenarioSpec:
    """The historical timeline plus Cloudflare DNS leaving for REG.RU."""
    return ScenarioSpec(
        "cloudflare-dns-exit", **CONFIG,
        extra_pulses=[
            PulseSpec("dns", ["cloudflare_dns"], "regru_dns", EXIT_DAY,
                      fraction=1.0),
        ],
        notes=[(EXIT_DAY, "Cloudflare", "cloudflare exit")],
    )


@pytest.fixture(scope="module")
def baseline():
    """The peaceful world: the library's no-invasion scenario."""
    return get_scenario("no-invasion").with_config(**CONFIG).build()


@pytest.fixture(scope="module")
def historical():
    return get_scenario("baseline").with_config(**CONFIG).build()


@pytest.fixture(scope="module")
def dns_exit():
    return _dns_exit_spec().build()


class TestBaseline:
    def test_valid_world(self, baseline):
        assert validate_world(baseline) == []

    def test_no_sanctions(self, baseline):
        assert baseline.sanctions.all_domains() == []
        assert len(baseline.sanctioned_indices) == 0

    def test_peaceful_baseline_is_flat(self, baseline):
        collector = FastCollector(baseline)
        early = snapshot_ns_geo_labels(collector.collect("2022-02-01"))
        late = snapshot_ns_geo_labels(collector.collect("2022-05-01"))
        assert abs((early == 0).mean() - (late == 0).mean()) < 0.03


class TestCustomisation:
    def test_pulse_moves_cohort(self, historical, dns_exit):
        def full_share(world, date):
            snapshot = FastCollector(world).collect(date)
            return (snapshot_ns_geo_labels(snapshot) == 0).mean()

        before, after = "2022-03-25", "2022-04-05"
        assert full_share(dns_exit, before) == full_share(historical, before)
        assert full_share(dns_exit, after) > full_share(historical, after) + 0.02
        assert full_share(dns_exit, after) > full_share(dns_exit, before) + 0.02

    def test_manifest_records_notes(self, dns_exit):
        assert (EXIT_DAY, "Cloudflare", "cloudflare exit") in (
            dns_exit.manifest.between(EXIT_DAY, EXIT_DAY)
        )

    def test_infra_event(self, baseline, historical):
        transfer = get_scenario("baseline").with_config(
            netnod_mode="transfer", **CONFIG
        ).build()
        for world in (historical, transfer):
            assert len(world.epochs()) == 2
            assert world.epoch_at(NETNOD_CUTOFF) is world.epochs()[1]
        # The peaceful world has no Netnod cut, so it keeps one epoch.
        assert len(baseline.epochs()) == 1


class TestDeterminism:
    def test_same_builder_same_world(self, dns_exit):
        again = _dns_exit_spec().build()
        assert (again.base_dns == dns_exit.base_dns).all()
        assert (again.base_hosting == dns_exit.base_hosting).all()
        assert (
            again.dns_state("2022-04-05") == dns_exit.dns_state("2022-04-05")
        ).all()
