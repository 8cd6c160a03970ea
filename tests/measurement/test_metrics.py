"""Tests for repro.measurement.metrics: the sweep instrumentation layer."""

import pytest

from repro.measurement.metrics import PhaseStat, SweepMetrics


class TestPhases:
    def test_phase_times_and_counts(self):
        metrics = SweepMetrics()
        with metrics.phase("sweep") as stat:
            stat.snapshots += 10
        recorded = metrics.get_phase("sweep")
        assert recorded is stat
        assert recorded.wall_seconds >= 0.0
        assert recorded.snapshots == 10
        assert recorded.runs == 1

    def test_phase_accumulates_across_runs(self):
        metrics = SweepMetrics()
        for _ in range(3):
            with metrics.phase("sweep") as stat:
                stat.snapshots += 1
        assert metrics.get_phase("sweep").runs == 3
        assert metrics.get_phase("sweep").snapshots == 3

    def test_throughput_zero_without_work(self):
        stat = PhaseStat("idle")
        assert stat.snapshots_per_second == 0.0

    def test_phase_order_preserved(self):
        metrics = SweepMetrics()
        for name in ("build", "sweep", "scan"):
            with metrics.phase(name):
                pass
        assert [stat.name for stat in metrics.phases()] == [
            "build", "sweep", "scan",
        ]


class TestCaches:
    def test_hit_rate(self):
        metrics = SweepMetrics()
        metrics.record_cache("resolver", 3, 1)
        assert metrics.cache_hit_rate("resolver") == pytest.approx(0.75)

    def test_hit_rate_accumulates(self):
        metrics = SweepMetrics()
        metrics.record_cache("resolver", 1, 1)
        metrics.record_cache("resolver", 3, 0)
        assert metrics.cache_hit_rate("resolver") == pytest.approx(0.8)

    def test_unknown_or_idle_cache(self):
        metrics = SweepMetrics()
        assert metrics.cache_hit_rate("nope") == 0.0
        metrics.record_cache("idle", 0, 0)
        assert metrics.cache_hit_rate("idle") == 0.0


class TestRecoveryCounters:
    def test_record_and_read(self):
        metrics = SweepMetrics()
        assert metrics.recovery_count("chunk_retries") == 0
        metrics.record_recovery("chunk_retries")
        metrics.record_recovery("chunk_retries", 2)
        assert metrics.recovery_count("chunk_retries") == 3

    def test_summary_includes_recovery(self):
        metrics = SweepMetrics()
        metrics.record_recovery("faults_injected", 4)
        metrics.record_recovery("shards_rebuilt")
        assert metrics.summary()["recovery"] == {
            "faults_injected": 4,
            "shards_rebuilt": 1,
        }

    def test_render_lists_recovery_counters(self):
        metrics = SweepMetrics()
        metrics.record_recovery("shards_quarantined", 2)
        text = metrics.render()
        assert "recovery" in text
        assert "shards_quarantined" in text
        assert "2" in text

    def test_idle_metrics_have_empty_recovery(self):
        assert SweepMetrics().summary()["recovery"] == {}


class TestReporting:
    def test_summary_structure(self):
        metrics = SweepMetrics()
        with metrics.phase("sweep") as stat:
            stat.snapshots += 5
            stat.notes["executor"] = "serial"
        metrics.record_cache("label_matrix", 4, 1)
        summary = metrics.summary()
        assert summary["phases"]["sweep"]["snapshots"] == 5
        assert summary["phases"]["sweep"]["executor"] == "serial"
        assert summary["caches"]["label_matrix"]["hit_rate"] == 0.8

    def test_render_mentions_phases_and_caches(self):
        metrics = SweepMetrics()
        with metrics.phase("sweep") as stat:
            stat.snapshots += 5
        metrics.record_cache("resolver", 1, 1)
        text = metrics.render()
        assert "sweep" in text
        assert "resolver" in text
        assert "50.0%" in text

    def test_render_empty(self):
        assert "no instrumented work" in SweepMetrics().render()


class TestContextIntegration:
    def test_full_sweep_populates_metrics(self, tiny_world):
        from repro.experiments import ExperimentContext

        context = ExperimentContext(world=tiny_world, cadence_days=60)
        context.api.full_sweep()
        stat = context.metrics.get_phase("full_sweep")
        assert stat is not None
        assert stat.snapshots == len(context.api.full_sweep().ns_composition)


class TestResolvingCollectorMetrics:
    def test_resolver_cache_stats_flow_into_metrics(self, tiny_world):
        from repro.measurement.resolving import ResolvingCollector

        metrics = SweepMetrics()
        collector = ResolvingCollector(tiny_world, metrics=metrics)
        indices = tiny_world.population.active_indices("2022-03-04")[:5]
        results = collector.collect("2022-03-04", indices)
        assert results
        assert metrics.cache_hit_rate("resolver") > 0.0
