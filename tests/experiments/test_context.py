"""Tests for repro.experiments.context."""

import pytest

from repro.errors import AnalysisError
from repro.experiments.context import FIG4_PROVIDERS, ExperimentContext
from repro.sim import ConflictScenarioConfig, build_world


class TestConstruction:
    def test_bad_cadence_rejected(self, tiny_world):
        with pytest.raises(AnalysisError):
            ExperimentContext(world=tiny_world, cadence_days=0)

    def test_wraps_existing_world(self, tiny_world):
        context = ExperimentContext(world=tiny_world, cadence_days=30)
        assert context.world is tiny_world


class TestCaching:
    def test_full_sweep_cached(self, tiny_world):
        context = ExperimentContext(world=tiny_world, cadence_days=60)
        first = context.api.full_sweep()
        second = context.api.full_sweep()
        assert first is second

    def test_recent_series_cached(self, tiny_world):
        context = ExperimentContext(world=tiny_world, cadence_days=60)
        first = context.api.recent_window()
        second = context.api.recent_window()
        assert first.asn_shares is second.asn_shares
        assert first.sanctioned_composition is second.sanctioned_composition

    def test_all_series_same_length(self, tiny_world):
        context = ExperimentContext(world=tiny_world, cadence_days=60)
        sweep = context.api.full_sweep()
        lengths = {
            len(sweep.ns_composition),
            len(sweep.hosting_composition),
            len(sweep.tld_composition),
            len(sweep.tld_shares),
        }
        assert len(lengths) == 1


class TestFig4Asns:
    def test_legend_matches_paper_providers(self, tiny_world):
        context = ExperimentContext(world=tiny_world, cadence_days=60)
        asns = context.fig4_asns()
        assert len(asns) == len(FIG4_PROVIDERS)
        assert 16509 in asns and 47846 in asns and 13335 in asns


class TestPkiGuards:
    def test_monitor_requires_pki(self):
        world = build_world(
            ConflictScenarioConfig(scale=5000.0, with_pki=False)
        )
        context = ExperimentContext(world=world, cadence_days=60)
        with pytest.raises(AnalysisError):
            context.monitor()
        with pytest.raises(AnalysisError):
            context.scans()
