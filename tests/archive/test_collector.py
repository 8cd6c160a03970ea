"""Archive-backed experiments must be bit-identical to live simulation."""

import datetime
import shutil

import pytest

from repro.archive import ArchiveCollector, MeasurementArchive, archive_digest
from repro.errors import AnalysisError, ArchiveError, ArchiveStaleError
from repro.experiments import ExperimentContext, run_experiment
from repro.measurement.fast import _OUTAGE_COVERAGE, DEFAULT_OUTAGE_DATES
from repro.timeline import as_date


def sweep_series_equal(a, b):
    """Assert two SweepSeries are bit-identical."""
    for attr in ("ns_composition", "hosting_composition", "tld_composition"):
        pa, pb = getattr(a, attr).points(), getattr(b, attr).points()
        assert len(pa) == len(pb)
        for x, y in zip(pa, pb):
            assert (x.date, x.full, x.part, x.non) == (
                y.date, y.full, y.part, y.non,
            )
    sa, sb = list(a.tld_shares), list(b.tld_shares)
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert (x.date, x.total, x.counts) == (y.date, y.total, y.counts)


class TestBitIdenticalResults:
    """The acceptance bar: replayed figures render byte-for-byte the same."""

    @pytest.mark.parametrize("experiment_id", ["fig1", "headline", "fig4", "fig5"])
    def test_renders_identical(self, experiment_id, live_context, archive_context):
        live = run_experiment(experiment_id, live_context)
        archived = run_experiment(experiment_id, archive_context)
        assert archived.render() == live.render()
        assert archived.measured == live.measured

    def test_full_sweep_series_identical(self, live_context, archive_context):
        sweep_series_equal(live_context.api.full_sweep(), archive_context.api.full_sweep())

    def test_recent_window_identical(self, live_context, archive_context):
        live_window = live_context.api.recent_window()
        archived_window = archive_context.api.recent_window()
        live = list(live_window.asn_shares)
        archived = list(archived_window.asn_shares)
        assert len(live) == len(archived)
        for x, y in zip(live, archived):
            assert (x.date, x.total, x.counts) == (y.date, y.total, y.counts)
        assert live_window.listed_counts == archived_window.listed_counts

    def test_measurements_identical(self, live_context, archive_context):
        """Every record materialised from shard columns matches the world."""
        live = live_context.collector.collect("2022-03-04")
        archived = archive_context.archive.load_day("2022-03-04")
        assert list(archived.measured) == list(live.measured)
        for domain_index in archived.measured.tolist():
            assert archived.measurement_for(domain_index) == (
                live.measurement_for(domain_index)
            )

    @pytest.mark.parametrize("page", ["first", "middle", "last", "past"])
    @pytest.mark.parametrize("tld", ["ru", "рф", "xn--p1ai", None, "com"])
    def test_records_pages_identical(
        self, tld, page, live_context, archive_context
    ):
        """Archive-backed records pages render byte-for-byte like live ones."""
        spec = {"kind": "records", "date": "2022-03-04", "limit": 20}
        if tld is not None:
            spec["tld"] = tld
        matched = live_context.api.query({**spec, "offset": 0}).data[
            "matched_total"
        ]
        spec["offset"] = {
            "first": 0,
            "middle": matched // 2,
            "last": max(matched - 1, 0) // 20 * 20,
            "past": matched + 20,
        }[page]
        assert archive_context.api.query_json(spec) == (
            live_context.api.query_json(spec)
        )


class TestCollectorInterface:
    def test_outage_params_come_from_manifest(self, archive_context):
        collector = archive_context.collector
        assert isinstance(collector, ArchiveCollector)
        # The block self-healing rebuilds a damaged day from.
        params = collector.archive.manifest.collector
        assert tuple(as_date(d) for d in params["outage_dates"]) == (
            DEFAULT_OUTAGE_DATES
        )
        assert params["outage_coverage"] == _OUTAGE_COVERAGE
        assert params["seed"] == 7

    def test_metrics_wired(self, archive_config, built_archive):
        context = ExperimentContext(
            config=archive_config, cadence_days=60, archive=built_archive
        )
        context.api.full_sweep()
        assert context.metrics.get_phase("archive_read") is not None
        summary = context.metrics.summary()
        # Coarse sweeps run on the summary kernel (partial shard reads,
        # uncached: the facade keeps the sweeps).
        assert "archive_summaries" not in summary["caches"]
        assert summary["phases"]["archive_read"]["bytes"] > 0
        # Domain-level access goes through the shard LRU.
        context.collector.collect("2022-03-04")
        assert "archive_shards" in context.metrics.summary()["caches"]

    def test_archive_instance_accepted(self, archive_config, built_archive):
        archive = MeasurementArchive(built_archive)
        context = ExperimentContext(
            config=archive_config, cadence_days=60, archive=archive
        )
        assert context.archive is archive
        # The context attaches its own metrics to an unmetered archive.
        assert archive.metrics is context.metrics


class TestRefusals:
    def test_uncovered_date_refused(self, archive_config, built_archive):
        """A finer cadence than the archive was built for must not silently thin."""
        context = ExperimentContext(
            config=archive_config, cadence_days=7, archive=built_archive
        )
        with pytest.raises(ArchiveError, match="does not cover"):
            context.api.full_sweep()

    def test_scenario_mismatch_refused_at_open(self, built_archive, monkeypatch):
        """Refused before any shard is read: records pages build no world,
        so this manifest check is all that ties their shards to the config."""
        from repro.archive import store
        from repro.scenario import ScenarioSpec

        reads = []
        monkeypatch.setattr(
            store, "read_shard", lambda *args, **kwargs: reads.append(args)
        )
        mismatched = ScenarioSpec.resolve("baseline").with_config(
            scale=2500.0, with_pki=False
        )
        with pytest.raises(ArchiveError, match="different scenario"):
            ExperimentContext(scenario=mismatched, archive=built_archive)
        assert reads == []

    def test_world_and_archive_both_refused(self, tiny_world, built_archive):
        with pytest.raises(AnalysisError, match="not both"):
            ExperimentContext(world=tiny_world, archive=built_archive)

    def test_population_mismatch_refused(self, tiny_world, built_archive):
        with pytest.raises(ArchiveError, match="does not match the world"):
            ArchiveCollector(MeasurementArchive(built_archive), tiny_world)


class TestVerify:
    def test_clean_archive_verifies(self, built_archive):
        assert MeasurementArchive(built_archive).verify() == []

    def test_corruption_and_orphans_reported(self, tmp_path, built_archive):
        copy = tmp_path / "copy"
        shutil.copytree(built_archive, copy)
        archive = MeasurementArchive(str(copy))
        entry = archive.manifest.days[archive.manifest.covered_dates()[0]]
        shard_path = copy / entry.file
        blob = bytearray(shard_path.read_bytes())
        blob[-1] ^= 0xFF
        shard_path.write_bytes(bytes(blob))
        (copy / "2031-01-01.shard").write_bytes(b"stray")
        problems = MeasurementArchive(str(copy)).verify()
        assert any(entry.file in problem for problem in problems)
        assert any("not listed in the manifest" in problem for problem in problems)

    def test_missing_shard_reported(self, tmp_path, built_archive):
        copy = tmp_path / "copy"
        shutil.copytree(built_archive, copy)
        archive = MeasurementArchive(str(copy))
        entry = archive.manifest.days[archive.manifest.covered_dates()[-1]]
        (copy / entry.file).unlink()
        problems = archive.verify()
        assert any("missing" in problem for problem in problems)


class TestLoadRange:
    """A range summary read is the per-day summary read, repeated."""

    def test_range_matches_per_day_loads(self, built_archive):
        archive = MeasurementArchive(built_archive)
        summaries = archive.load_summaries("2022-02-24", "2022-02-26")
        assert len(summaries) == 3
        for offset, summary in enumerate(summaries):
            day = datetime.date(2022, 2, 24 + offset)
            assert summary.date == day
            assert summary == archive.load_summary(day)

    def test_range_step_skips_days(self, built_archive):
        archive = MeasurementArchive(built_archive)
        summaries = archive.load_summaries("2022-02-24", "2022-03-02", step=3)
        assert [summary.date.day for summary in summaries] == [24, 27, 2]

    def test_inverted_range_rejected(self, built_archive):
        archive = MeasurementArchive(built_archive)
        with pytest.raises(ArchiveError, match="inverted range"):
            archive.load_summaries("2022-03-05", "2022-03-01")
        with pytest.raises(ArchiveError, match="step"):
            archive.load_summaries("2022-03-01", "2022-03-05", step=0)

    def test_uncovered_day_raises(self, built_archive):
        archive = MeasurementArchive(built_archive)
        with pytest.raises(ArchiveError, match="does not cover"):
            archive.load_summaries("2031-01-01", "2031-01-02")

    def test_concurrent_readers_agree(self, built_archive):
        from concurrent.futures import ThreadPoolExecutor

        from repro.measurement.metrics import SweepMetrics

        metrics = SweepMetrics()
        archive = MeasurementArchive(built_archive, metrics=metrics)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda _: archive.load_summaries("2022-02-24", "2022-02-26"),
                    range(4),
                )
            )
        assert all(result == results[0] for result in results)
        # Summaries are not cached: every one of the 12 loads is a read.
        assert metrics.get_phase("archive_read").snapshots == 12
        assert "archive_summaries" not in metrics.summary()["caches"]


class TestManifestIdentity:
    """Both read kinds hold a shard to its manifest entry."""

    def test_summary_read_checks_record_count(
        self, tmp_path, archive_config, built_archive
    ):
        copy = str(tmp_path / "copy")
        shutil.copytree(built_archive, copy)
        day = datetime.date(2022, 3, 4)
        archive = MeasurementArchive(copy)
        archive.manifest.days[day].records += 1
        archive.manifest.save(copy)

        with pytest.raises(ArchiveStaleError, match="records"):
            MeasurementArchive(copy).load_summary(day)
        with pytest.raises(ArchiveStaleError, match="records"):
            MeasurementArchive(copy).load_day(day)

        healed = MeasurementArchive(copy, config=archive_config)
        assert healed.load_summary(day) == (
            MeasurementArchive(built_archive).load_summary(day)
        )
        assert archive_digest(copy) == archive_digest(built_archive)
