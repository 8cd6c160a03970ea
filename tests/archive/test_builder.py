"""Tests for repro.archive.builder: incremental, resumable builds."""

import datetime as dt
import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro.archive.builder as builder_module
import repro.archive.stream as stream_module
from repro.archive import ArchiveBuilder, standard_plan_dates
from repro.archive.builder import ArchiveShardReducer, _segments, shard_filename
from repro.archive.manifest import Manifest
from repro.archive.shard import probe_shard
from repro.archive.stream import DayStream
from repro.dns.name import DomainName
from repro.errors import ArchiveError, InvalidDomainName, RecoveryError
from repro.faults import default_plan
from repro.measurement.fast import FastCollector
from repro.measurement.metrics import SweepMetrics
from repro.registry.population import DomainPopulation
from repro.rng import stable_hash
from repro.sim import ConflictScenarioConfig
from repro.sim.conflict import build_world
from repro.timeline import RECENT_WINDOW_START, STUDY_END, STUDY_START
from tests.archive.test_stream_writer import PayloadFailingHandle

START = dt.date(2022, 2, 20)
MID = dt.date(2022, 2, 25)
END = dt.date(2022, 3, 3)


def archive_digest(directory) -> str:
    """SHA-256 over every file (name + bytes) in an archive directory."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8"))
        digest.update(pathlib.Path(directory, name).read_bytes())
    return digest.hexdigest()


class TestPlanHelpers:
    def test_standard_plan_bounds(self):
        dates = standard_plan_dates(60)
        assert dates[0] == STUDY_START
        assert dates[-1] == STUDY_END
        # The conflict window is covered daily regardless of cadence.
        day = RECENT_WINDOW_START
        while day <= STUDY_END:
            assert day in dates
            day += dt.timedelta(days=1)

    def test_standard_plan_bad_cadence(self):
        with pytest.raises(ArchiveError):
            standard_plan_dates(0)

    def test_segments_split_on_stride_change(self):
        dates = [
            dt.date(2022, 1, 1),
            dt.date(2022, 1, 8),
            dt.date(2022, 1, 15),
            dt.date(2022, 2, 1),
            dt.date(2022, 2, 2),
            dt.date(2022, 2, 3),
        ]
        runs = _segments(dates)
        assert (dt.date(2022, 1, 1), dt.date(2022, 1, 15), 7) in runs
        assert (dt.date(2022, 2, 1), dt.date(2022, 2, 3), 1) in runs
        covered = set()
        for run_start, run_end, stride in runs:
            day = run_start
            while day <= run_end:
                covered.add(day)
                day += dt.timedelta(days=stride)
        assert covered == set(dates)

    def test_segments_single_date(self):
        assert _segments([dt.date(2022, 1, 1)]) == [
            (dt.date(2022, 1, 1), dt.date(2022, 1, 1), 1)
        ]


class TestIncrementalBuild:
    def test_build_then_noop(self, tmp_path, archive_config):
        builder = ArchiveBuilder(str(tmp_path / "arch"), archive_config)
        report = builder.build(START, END)
        wanted = (END - START).days + 1
        assert len(report.written) == wanted
        assert report.skipped == []
        assert report.bytes_written > 0
        again = builder.build(START, END)
        assert again.written == []
        assert len(again.skipped) == wanted
        assert again.bytes_written == 0

    def test_extension_writes_only_missing(self, tmp_path, archive_config):
        directory = str(tmp_path / "arch")
        ArchiveBuilder(directory, archive_config).build(START, MID)
        report = ArchiveBuilder(directory, archive_config).build(START, END)
        assert report.written == [
            MID + dt.timedelta(days=offset)
            for offset in range(1, (END - MID).days + 1)
        ]
        manifest = Manifest.load(directory)
        assert len(manifest.covered_dates()) == (END - START).days + 1

    def test_shard_files_match_manifest(self, tmp_path, archive_config):
        directory = tmp_path / "arch"
        ArchiveBuilder(str(directory), archive_config).build(START, MID)
        manifest = Manifest.load(str(directory))
        for date, entry in manifest.days.items():
            assert entry.file == shard_filename(date)
            assert (directory / entry.file).stat().st_size == entry.bytes


class TestNoDomainRecords:
    def test_build_constructs_no_domain_records(self, tmp_path, archive_config, monkeypatch):
        # The build reads names from the population's columns; a
        # DomainRecord built here would be cached for the world's life.
        from repro.registry.domain import DomainRecord

        built = []
        original = DomainRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DomainRecord, "__init__", counting_init)
        report = ArchiveBuilder(str(tmp_path / "arch"), archive_config).build(
            MID, MID + dt.timedelta(days=2)
        )
        assert len(report.written) == 3
        assert len(built) == 0


@pytest.fixture(scope="module")
def archive_world(archive_config):
    return build_world(archive_config)


def independent_run(world, domain_index, plan_id):
    """One domain's sorted apex run, hashed component by component."""
    name = str(world.population.name(domain_index))
    addresses = []
    for provider_key, asn in world.hosting_plans.plan(plan_id).components:
        if asn is None:
            asn = world.catalog.get(provider_key).primary_asn
        pool = world.address_plan.hosting_pool(asn)
        addresses.append(
            stable_hash("hosting", provider_key, name) % pool.size + pool.first
        )
    return tuple(sorted(addresses))


class TestChunkFill:
    """Cache misses are filled a chunk at a time, from columns, not objects."""

    def test_build_fills_misses_without_names(
        self, tmp_path, archive_config, monkeypatch
    ):
        builder = ArchiveBuilder(str(tmp_path / "arch"), archive_config)
        builder._ensure_engine()  # the world build itself parses names
        calls = []
        name, init = DomainPopulation.name, DomainName.__init__

        def counting_name(self, index):
            calls.append("DomainPopulation.name")
            return name(self, index)

        def counting_init(self, labels):
            calls.append("DomainName")
            init(self, labels)

        monkeypatch.setattr(DomainPopulation, "name", counting_name)
        monkeypatch.setattr(DomainName, "__init__", counting_init)
        report = builder.build(MID, MID + dt.timedelta(days=2))
        assert len(report.written) == 3
        assert calls == []

    def test_name_texts_equal_domain_names(self, archive_world):
        population = archive_world.population
        indices = list(range(len(population)))
        texts = population.name_texts(indices)
        assert texts == [str(population.name(index)) for index in indices]
        assert any(text.endswith(".xn--p1ai") for text in texts)
        assert any(text.startswith("xn--") for text in texts)
        snapshot = FastCollector(archive_world).collect(MID)
        stream = DayStream.from_snapshot(snapshot, None)
        positions = list(range(len(stream)))
        assert stream.domains_at(positions) == [
            texts[index] for index in snapshot.measured.tolist()
        ]

    def test_apex_runs_hash_each_component(self, archive_world):
        world = archive_world
        indices = list(range(0, len(world.population), 7))
        for plan_id in range(len(world.hosting_plans.plans())):
            runs = world.apex_addresses_for_plans(indices, [plan_id] * len(indices))
            assert [tuple(sorted(run)) for run in runs] == [
                independent_run(world, index, plan_id) for index in indices
            ]
        snapshot = FastCollector(world).collect(MID)
        stream = DayStream.from_snapshot(snapshot, None)
        assert stream.apexes_at(list(range(len(stream)))) == [
            independent_run(world, index, int(snapshot.hosting_ids[index]))
            for index in snapshot.measured.tolist()
        ]

    @pytest.mark.parametrize(
        "label",
        ["-lead", "trail-", "two words", "x" * 64, "\u044f" * 60],
        ids=["leading-hyphen", "trailing-hyphen", "space", "64-octets", "long-punycode"],
    )
    def test_invalid_label_refused_as_domain_name_refuses(
        self, archive_world, label
    ):
        population = archive_world.population
        index = int(np.flatnonzero(population.is_rf)[0])
        kept = population._labels[index]
        population._labels[index] = label
        try:
            with pytest.raises(InvalidDomainName) as expected:
                DomainName((label, "xn--p1ai"))
            with pytest.raises(InvalidDomainName) as filled:
                population.name_texts([0, index])
            assert str(filled.value) == str(expected.value)
            with pytest.raises(InvalidDomainName):
                archive_world.apex_addresses_for_plans([index], [0])
        finally:
            population._labels[index] = kept


class TestResumeByteIdentity:
    """Interrupted-then-continued builds converge on identical bytes."""

    def test_two_phase_build_equals_single_build(self, tmp_path, archive_config):
        single = str(tmp_path / "single")
        ArchiveBuilder(single, archive_config).build(START, END)
        resumed = str(tmp_path / "resumed")
        ArchiveBuilder(resumed, archive_config).build(START, MID)
        ArchiveBuilder(resumed, archive_config).build(START, END)
        assert archive_digest(resumed) == archive_digest(single)

    def test_orphan_shard_is_adopted(self, tmp_path, archive_config):
        """A written-but-unregistered shard (mid-segment kill) is rebuilt over."""
        single = str(tmp_path / "single")
        ArchiveBuilder(single, archive_config).build(START, END)
        torn = str(tmp_path / "torn")
        ArchiveBuilder(torn, archive_config).build(START, END)
        # Forget the last day in the manifest but leave its shard file on
        # disk — exactly what dying between write_shard and manifest.save
        # leaves behind.
        manifest = Manifest.load(torn)
        del manifest.days[END]
        manifest.save(torn)
        ArchiveBuilder(torn, archive_config).build(START, END)
        assert archive_digest(torn) == archive_digest(single)


class TestKillAndResume:
    """A hard kill mid-segment resumes without loss or dupes.

    The builder flushes the manifest only after a whole segment, so a
    build killed after N days (with more days to go) leaves N complete
    shard files the manifest never recorded.  The resume must
    adopt those orphans (no re-sweep, no duplicate days), sweep exactly
    the remainder, and converge on bytes identical to an uninterrupted
    build.
    """

    def test_resume_after_kill_at_chunk_boundary(self, tmp_path, archive_config):
        single = str(tmp_path / "single")
        ArchiveBuilder(single, archive_config).build(START, END)

        killed = str(tmp_path / "killed")
        script = textwrap.dedent(
            f"""
            import datetime as dt
            import os
            import repro.archive.builder as builder_mod
            from repro.archive import ArchiveBuilder
            from repro.sim import ConflictScenarioConfig

            state = {{"days": 0}}
            original = builder_mod.ArchiveShardReducer.reduce_day

            def dying(self, snapshot):
                info = original(self, snapshot)
                state["days"] += 1
                if state["days"] == 4:  # mid-segment, more days to go
                    os._exit(17)
                return info

            builder_mod.ArchiveShardReducer.reduce_day = dying
            config = ConflictScenarioConfig(scale=5000.0, with_pki=False)
            ArchiveBuilder({killed!r}, config).build(
                dt.date({START.year}, {START.month}, {START.day}),
                dt.date({END.year}, {END.month}, {END.day}),
            )
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "..", "src"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 17, result.stderr
        # The kill left complete-but-unregistered shards behind: the
        # parent died before its first segment-boundary manifest flush.
        on_disk = [
            name for name in os.listdir(killed) if name.endswith(".shard")
        ]
        assert len(on_disk) == 4
        assert not os.path.exists(os.path.join(killed, "manifest.json"))

        report = ArchiveBuilder(killed, archive_config).build(START, END)
        # Orphans were adopted (verified, registered), not re-swept...
        assert report.adopted
        assert not set(report.adopted) & set(report.written)
        assert not set(report.adopted) & set(report.skipped)
        # ...the manifest covers every wanted day exactly once...
        wanted = {
            START + dt.timedelta(days=offset)
            for offset in range((END - START).days + 1)
        }
        assert set(Manifest.load(killed).covered_dates()) == wanted
        # ...and the bytes converge on the uninterrupted build.
        assert archive_digest(killed) == archive_digest(single)

    def test_adoption_refuses_wrong_population(self, tmp_path, archive_config):
        """A foreign shard at the right path is rebuilt over, not adopted."""
        import shutil

        from repro.sim import ConflictScenarioConfig

        directory = str(tmp_path / "arch")
        builder = ArchiveBuilder(directory, archive_config)
        builder.build(START, START)
        # Drop the day from the manifest and replace its shard with one
        # from a different-scale scenario (valid CRC, wrong population).
        foreign_dir = str(tmp_path / "foreign")
        foreign = ArchiveBuilder(
            foreign_dir, ConflictScenarioConfig(scale=20000.0, with_pki=False)
        )
        foreign.build(START, START)
        manifest = Manifest.load(directory)
        del manifest.days[START]
        manifest.save(directory)
        shutil.copy(
            os.path.join(foreign_dir, shard_filename(START)),
            os.path.join(directory, shard_filename(START)),
        )
        report = ArchiveBuilder(directory, archive_config).build(START, START)
        assert report.adopted == []
        assert report.written == [START]
        entry = Manifest.load(directory).days[START]
        reference = ArchiveBuilder(
            str(tmp_path / "ref"), archive_config
        ).build(START, START)
        assert entry.bytes == reference.bytes_written


class TestRefusals:
    def test_scenario_mismatch_refused(self, tmp_path, archive_config):
        directory = str(tmp_path / "arch")
        ArchiveBuilder(directory, archive_config).build(START, MID)
        other = ConflictScenarioConfig(scale=2500.0, with_pki=False)
        with pytest.raises(ArchiveError, match="different scenario"):
            ArchiveBuilder(directory, other).build(START, END)

    def test_collector_params_mismatch_refused(self, tmp_path, archive_config):
        directory = str(tmp_path / "arch")
        ArchiveBuilder(directory, archive_config).build(START, MID)
        with pytest.raises(ArchiveError, match="outage parameters"):
            ArchiveBuilder(directory, archive_config, collector_seed=8).build(
                START, END
            )

    def test_bad_ranges_rejected(self, tmp_path, archive_config):
        builder = ArchiveBuilder(str(tmp_path / "arch"), archive_config)
        with pytest.raises(ArchiveError):
            builder.build(END, START)
        with pytest.raises(ArchiveError):
            builder.build(START, END, step=0)
        with pytest.raises(ArchiveError):
            builder.build_standard(cadence_days=0)


def two_segment_build(builder):
    """Build START..END as two segments: MID first, then the days around it."""
    builder.build(MID, MID)
    return builder.build(START, END)


def serial(monkeypatch):
    """Make the engine reduce day by day: each write ends in its own reduce_day."""
    monkeypatch.delattr(ArchiveShardReducer, "reduce_run")


class TestOverlappedWrites:
    """Consecutive days' writes overlap, and change no byte or event."""

    def test_overlapped_build_equals_serial_build(
        self, tmp_path, archive_config, monkeypatch
    ):
        order = []
        start_write = builder_module.write_shard_stream
        reduce_day = ArchiveShardReducer.reduce_day

        def logged_start(path, stream, **kwargs):
            order.append(("start", stream.date))
            return start_write(path, stream, **kwargs)

        def logged_finish(self, snapshot):
            info = reduce_day(self, snapshot)
            order.append(("finish", snapshot.date))
            return info

        monkeypatch.setattr(builder_module, "write_shard_stream", logged_start)
        monkeypatch.setattr(ArchiveShardReducer, "reduce_day", logged_finish)
        overlapped = str(tmp_path / "overlapped")
        report = two_segment_build(ArchiveBuilder(overlapped, archive_config))
        assert report.segments == 2
        assert len(report.written) == (END - START).days
        # The next DAYS_IN_FLIGHT - 1 days' writes start before day N's
        # finishes.
        depth = builder_module.DAYS_IN_FLIGHT
        days = [START + dt.timedelta(days=k) for k in range(depth + 1)]
        assert order[2:depth + 4] == [
            *(("start", day) for day in days[:depth]),
            ("finish", START), ("start", days[depth]),
        ]

        serial(monkeypatch)
        order.clear()
        one_by_one = str(tmp_path / "serial")
        two_segment_build(ArchiveBuilder(one_by_one, archive_config))
        assert order[2:6] == [
            ("start", START), ("finish", START),
            ("start", START + dt.timedelta(days=1)),
            ("finish", START + dt.timedelta(days=1)),
        ]
        assert archive_digest(overlapped) == archive_digest(one_by_one)

    def test_failing_compressor_fails_the_build_cleanly(
        self, tmp_path, archive_config, monkeypatch
    ):
        reference = str(tmp_path / "reference")
        ArchiveBuilder(reference, archive_config).build(START, END)
        doomed = shard_filename(END - dt.timedelta(days=2))

        def failing_open(path, mode):
            handle = open(path, mode)
            if os.path.basename(path).startswith(doomed):
                return PayloadFailingHandle(handle)
            return handle

        monkeypatch.setattr(stream_module, "open", failing_open, raising=False)
        monkeypatch.setattr(stream_module, "backoff_seconds", lambda *_: 0.0)
        directory = str(tmp_path / "arch")
        builder = ArchiveBuilder(directory, archive_config)
        threads_before = threading.active_count()
        with pytest.raises(RecoveryError, match=doomed):
            two_segment_build(builder)
        assert threading.active_count() == threads_before
        assert [name for name in os.listdir(directory) if ".tmp." in name] == []
        # The first segment was saved; every day it lists is on disk whole.
        manifest = Manifest.load(directory)
        assert len(manifest.days) == (MID - START).days + 1
        for date, entry in manifest.days.items():
            probe = probe_shard(os.path.join(directory, entry.file))
            assert (probe.date, probe.crc32) == (date, entry.crc32)

        monkeypatch.undo()
        builder.build(START, END)
        assert archive_digest(directory) == archive_digest(reference)

    def test_fault_plan_events_follow_the_serial_order(
        self, tmp_path, archive_config, monkeypatch
    ):
        def events(directory):
            plan = default_plan(5, rate=0.3)
            ArchiveBuilder(directory, archive_config, faults=plan).build(
                START, END
            )
            return plan.events

        overlapped = events(str(tmp_path / "overlapped"))
        assert {"shard.write", "shard.write.bytes"} <= {
            site for site, _, _ in overlapped
        }
        serial(monkeypatch)
        assert overlapped == events(str(tmp_path / "serial"))


class TestWriteSeconds:
    def test_archive_write_fits_in_the_build(self, tmp_path, archive_config):
        # Overlapped days must not count their shared time twice.
        metrics = SweepMetrics()
        builder = ArchiveBuilder(str(tmp_path / "arch"), archive_config, metrics)
        builder._ensure_engine()
        started = time.perf_counter()
        builder.build(START, END)
        wall = time.perf_counter() - started
        write = metrics.get_phase("archive_write").wall_seconds
        assert 0.0 < write <= metrics.get_phase("archive_build").wall_seconds
        assert write <= wall
