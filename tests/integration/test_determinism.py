"""End-to-end determinism: identical configs produce identical results."""

import datetime as dt

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_full_sweep
from repro.experiments import ExperimentContext, run_experiment
from repro.measurement import FastCollector
from repro.scenario import ScenarioSpec
from repro.sim import build_scenario, build_world


def _baseline(**overrides):
    return (
        ScenarioSpec.resolve("baseline")
        .with_config(scale=5000.0, **overrides)
        .compile()
    )


def _fig1_series(world):
    collector = FastCollector(world)
    series = merge_full_sweep([
        summarize_snapshot(snapshot)
        for snapshot in collector.sweep("2022-01-01", "2022-05-25", 7)
    ]).ns_composition
    return [(p.date, p.full, p.part, p.non) for p in series]


class TestWorldDeterminism:
    def test_two_builds_identical_series(self):
        config = _baseline(with_pki=False)
        assert _fig1_series(build_world(config)) == _fig1_series(
            build_world(config)
        )

    def test_different_seeds_differ(self):
        base = _baseline(with_pki=False, seed=1)
        other = _baseline(with_pki=False, seed=2)
        assert _fig1_series(build_world(base)) != _fig1_series(build_world(other))


class TestPkiDeterminism:
    def test_certificate_fingerprints_reproducible(self):
        config = _baseline()
        first = build_scenario(config)
        second = build_scenario(config)
        fp_a = [cert.fingerprint for cert in list(first.pki.store)[:200]]
        fp_b = [cert.fingerprint for cert in list(second.pki.store)[:200]]
        assert fp_a == fp_b

    def test_ct_log_roots_reproducible(self):
        config = _baseline()
        first = build_scenario(config)
        second = build_scenario(config)
        for log_a, log_b in zip(first.pki.logs, second.pki.logs):
            assert log_a.tree.root() == log_b.tree.root()


class TestExperimentDeterminism:
    def test_fig5_identical_across_contexts(self):
        config = _baseline(with_pki=False)
        a = run_experiment(
            "fig5", ExperimentContext(config=config, cadence_days=30)
        )
        b = run_experiment(
            "fig5", ExperimentContext(config=config, cadence_days=30)
        )
        assert a.measured == b.measured
        assert a.series == b.series
