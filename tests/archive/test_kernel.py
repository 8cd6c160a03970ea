"""The columnar kernel must be bit-identical to the live path.

The live path (sweep the simulated world and summarise each snapshot
as it is measured) is the oracle; the kernel path (the per-shard
summaries stored in the archive, no world) must produce byte-for-byte
identical query output for every figure and series it serves — across
scales and TLD filters.
"""

import datetime as dt
import os
import shutil
import struct
import zlib

import numpy as np
import pytest

from repro.archive import (
    ArchiveBuilder,
    MeasurementArchive,
    archive_digest,
    summarize_snapshot,
)
from repro.archive.shard import read_shard, read_summary
from repro.errors import ArchiveError
from repro.experiments import ExperimentContext
from repro.experiments import context as context_module
from repro.scenario import ScenarioSpec

#: Must match tests/archive/conftest.py's session fixtures.
CADENCE = 60

EXPERIMENTS = ("fig1", "headline", "fig4", "fig5")
SERIES = (
    "ns_composition",
    "hosting_composition",
    "tld_composition",
    "tld_shares",
    "asn_shares",
    "sanctioned_composition",
    "listed_counts",
)


class TestKernelBitIdentity:
    """Query output through the kernel == query output live, byte for byte."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiments_identical(self, experiment, live_context, archive_context):
        spec = {"kind": "experiment", "experiment": experiment}
        assert archive_context.api.query_json(spec) == (
            live_context.api.query_json(spec)
        )

    @pytest.mark.parametrize("name", SERIES)
    def test_series_identical(self, name, live_context, archive_context):
        spec = {"kind": "series", "series": name}
        assert archive_context.api.query_json(spec) == (
            live_context.api.query_json(spec)
        )

    def test_headline_identical(self, live_context, archive_context):
        spec = {"kind": "headline"}
        assert archive_context.api.query_json(spec) == (
            live_context.api.query_json(spec)
        )

    @pytest.mark.parametrize("tld", ["ru", "xn--p1ai", "рф"])
    def test_records_tld_filters_identical(self, tld, live_context, archive_context):
        """Domain-level queries (record path) agree under every TLD filter."""
        spec = {"kind": "records", "date": "2022-03-04", "tld": tld, "limit": 25}
        assert archive_context.api.query_json(spec) == (
            live_context.api.query_json(spec)
        )

    def test_stored_summary_matches_recomputation(self, archive_context):
        """A shard's stored summary == summarising its snapshot today."""
        stored = archive_context.archive.load_summary("2022-03-04")
        recomputed = summarize_snapshot(
            archive_context.collector.collect("2022-03-04")
        )
        assert stored == recomputed


class TestAcrossScales:
    """The equivalence holds at a second population scale."""

    @pytest.fixture(scope="class")
    def small_config(self):
        return ScenarioSpec.resolve("baseline").with_config(
            scale=20000.0, with_pki=False
        ).compile()

    @pytest.fixture(scope="class")
    def small_archive(self, tmp_path_factory, small_config):
        directory = tmp_path_factory.mktemp("kernel-scale") / "arch"
        ArchiveBuilder(str(directory), small_config).build_standard(90)
        return str(directory)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiments_identical(self, experiment, small_config, small_archive):
        live = ExperimentContext(config=small_config, cadence_days=90)
        archived = ExperimentContext(
            config=small_config, cadence_days=90, archive=small_archive
        )
        spec = {"kind": "experiment", "experiment": experiment}
        assert archived.api.query_json(spec) == live.api.query_json(spec)


class TestLazyWorld:
    """Summary-served queries never build the world or decode columns."""

    def test_coarse_queries_leave_world_unbuilt(self, archive_config, built_archive):
        context = ExperimentContext(
            config=archive_config, cadence_days=CADENCE, archive=built_archive
        )
        for experiment in EXPERIMENTS:
            context.api.query({"kind": "experiment", "experiment": experiment})
        for name in SERIES:
            context.api.query({"kind": "series", "series": name})
        context.api.query({"kind": "headline"})
        assert context._world is None
        # Not a single shard's domain-level columns were decoded either.
        assert not context.archive._cache

    def test_records_query_leaves_world_unbuilt(
        self, archive_config, built_archive, monkeypatch
    ):
        """Records pages read the shard alone, under every TLD spelling.

        Only a query that classifies domains builds the world: here
        Figure 6's movement analysis, which builds it exactly once.
        """
        builds = []
        build = context_module.build_scenario
        monkeypatch.setattr(
            context_module,
            "build_scenario",
            lambda config: builds.append(config) or build(config),
        )
        context = ExperimentContext(
            config=archive_config, cadence_days=CADENCE, archive=built_archive
        )
        for tld in ("ru", "рф", ".рф", "РФ", "xn--p1ai", "com", None):
            spec = {"kind": "records", "date": "2022-03-04", "limit": 5}
            if tld is not None:
                spec["tld"] = tld
            context.api.query(spec)
        assert context._world is None
        assert builds == []
        context.api.query({"kind": "experiment", "experiment": "fig6"})
        context.api.query({"kind": "experiment", "experiment": "fig6"})
        assert context._world is not None
        assert len(builds) == 1


class TestShardTldMask:
    """A shard's name suffixes give the same TLD as the world's column."""

    def test_mask_matches_world_tld_column(self, archive_context):
        world = archive_context.world
        tlds = sorted({tld.decode("ascii") for tld in world.population.tld})
        absent = ["zz", "u", "p1ai"]
        assert not set(absent) & set(tlds)
        archive = archive_context.archive
        for day in archive.manifest.covered_dates():
            record = archive.load_day(day)
            column = world.population.tld[record.measured]
            for tld in tlds + absent:
                np.testing.assert_array_equal(
                    record.tld_mask(tld),
                    column == tld.encode("ascii"),
                    err_msg=f"{day} {tld}",
                )


class TestV2Refused:
    """Format v2 is no longer read: it is refused by name, then repaired."""

    @staticmethod
    def v2_bytes(path):
        """Repack a v3 shard's columns as a legacy v2 file.

        v2 is the v3 header without the summary fields, followed by the
        compressed payload alone; its CRC covers the zeroed header and
        the uncompressed payload.
        """
        v3 = struct.Struct("<8sHHIIIQII")
        v2 = struct.Struct("<8sHHIIIQ")
        with open(path, "rb") as handle:
            blob = handle.read()
        (magic, _, flags, ordinal, count, _, payload_length,
         summary_length, _) = v3.unpack_from(blob)
        payload = zlib.decompress(blob[v3.size + summary_length:])
        zeroed = v2.pack(magic, 2, flags, ordinal, count, 0, payload_length)
        crc = zlib.crc32(payload, zlib.crc32(zeroed))
        header = v2.pack(magic, 2, flags, ordinal, count, crc, payload_length)
        return header + zlib.compress(payload, 6), crc

    def test_v2_shard_refused_and_repaired(
        self, tmp_path, archive_config, built_archive
    ):
        copy = str(tmp_path / "arch")
        shutil.copytree(built_archive, copy)
        day = dt.date(2022, 3, 4)
        archive = MeasurementArchive(copy)
        entry = archive.manifest.days[day]
        path = os.path.join(copy, entry.file)
        blob, crc = self.v2_bytes(path)
        with open(path, "wb") as handle:
            handle.write(blob)
        entry.bytes, entry.crc32 = len(blob), crc
        archive.manifest.save(copy)

        for read in (read_shard, read_summary):
            with pytest.raises(ArchiveError, match="format version 2"):
                read(path, expected_crc=crc)
        problems = MeasurementArchive(copy).verify_detailed()
        assert [(problem.kind, problem.date) for problem in problems] == [
            ("corrupt", day)
        ]

        report = MeasurementArchive(copy).repair(archive_config)
        assert report.ok and report.rebuilt == [day]
        assert archive_digest(copy) == archive_digest(built_archive)


class TestPlanZeroSentinel:
    """Unmeasured domains must never alias plan id 0."""

    def test_unmeasured_positions_hold_sentinel(self, archive_context):
        snapshot = archive_context.collector.collect("2022-03-04")
        unmeasured = np.ones(len(snapshot.dns_ids), dtype=bool)
        unmeasured[snapshot.measured] = False
        assert unmeasured.any()  # the population outgrows any one day
        assert (snapshot.dns_ids[unmeasured] == -1).all()
        assert (snapshot.hosting_ids[unmeasured] == -1).all()

    def test_unmeasured_never_counted_as_plan_zero(
        self, live_context, archive_context
    ):
        archived = archive_context.collector.collect("2022-03-04")
        live = live_context.collector.collect("2022-03-04")
        # Plan id 0 is genuinely in use on this day...
        assert (archived.dns_ids[archived.measured] == 0).any()
        # ...and the measured-subset histograms agree exactly.
        assert np.array_equal(
            np.bincount(archived.dns_ids[archived.measured]),
            np.bincount(live.dns_ids[live.measured]),
        )

    def test_full_array_aggregation_is_loud(self, archive_context):
        """Indexing outside ``measured`` fails fast instead of counting 0."""
        snapshot = archive_context.collector.collect("2022-03-04")
        with pytest.raises(ValueError):
            np.bincount(snapshot.dns_ids)


class TestZeroCopyReadPath:
    """Columns decode once, at their final dtype, and are never re-copied."""

    def test_columns_decoded_at_final_dtype(self, built_archive):
        archive = MeasurementArchive(built_archive)
        record = archive.load_day("2022-03-04")
        assert record.measured.dtype == np.int64
        assert record.dns_ids.dtype == np.int32
        assert record.hosting_ids.dtype == np.int32
        # The plan-id columns alias the shard payload buffer (read-only
        # views): decoding them allocated nothing.
        assert not record.dns_ids.flags.writeable
        assert not record.hosting_ids.flags.writeable

    def test_snapshot_reuses_shard_columns(self, archive_context):
        collector = archive_context.collector
        snapshot = collector.collect("2022-03-04")
        record = collector.archive.load_day("2022-03-04")
        assert snapshot.shard is record
        # ``measured`` is handed through without any per-query copy;
        # the only per-snapshot allocations are the scatter buffers.
        assert snapshot.measured is record.measured

    def test_repeat_collects_share_one_decode(self, archive_context):
        collector = archive_context.collector
        first = collector.collect("2022-03-04")
        second = collector.collect("2022-03-04")
        assert first.shard is second.shard
        assert first.measured is second.measured
