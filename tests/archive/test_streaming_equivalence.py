"""Shard bytes and day summaries must not depend on the writer's chunk.

The archive writer streams every day in chunks of
``repro.archive.stream.CHUNK_DOMAINS`` positions, and
``summarize_snapshot`` aggregates in chunks of the same size.  The
chunk only bounds memory: the claim under test is that the file bytes,
both CRCs and the :class:`DaySummary` are the same at any chunk.  Each
test runs the one writer at a monkeypatched small chunk against a
chunk of at least the day's size.  Three layers:

* property-based (hypothesis, derandomised): random synthetic
  populations — ``.рф``/punycode domains included — at random chunk
  sizes;
* real snapshots: live collector days (an outage day included) through
  ``DayStream.from_snapshot`` at several chunk sizes;
* end-to-end: two ``ArchiveBuilder`` runs, one at a small chunk —
  identical manifests and shard CRCs, proven over the whole directory
  digest.

``tests/archive/test_shard_golden.py`` pins the bytes themselves.
"""

import datetime as dt
import hashlib
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.archive import ArchiveBuilder, kernel, stream as stream_module
from repro.archive.kernel import summarize_snapshot
from repro.archive.manifest import Manifest
from repro.archive.shard import DayShardRecord, read_shard
from repro.archive.stream import DayStream, write_shard_stream
from repro.archive.summary import DaySummary
from repro.errors import ArchiveError
from repro.measurement.fast import FastCollector

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Chunk sizes that cross every interesting boundary: single-domain,
#: prime mid-size, larger-than-any-test-day.
CHUNK_SIZES = (1, 7, 500, 10**9)

#: A chunk at least as large as any test day: one chunk per column.
WHOLE_DAY = 10**9


def chunked(monkeypatch, chunk: int) -> None:
    """Run the writer and ``summarize_snapshot`` at ``chunk`` positions."""
    monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", chunk)
    monkeypatch.setattr(kernel, "CHUNK_DOMAINS", chunk)


def written(path, stream, chunk: int):
    """``(result, file bytes)`` of one write of ``stream`` at ``chunk``."""
    with pytest.MonkeyPatch.context() as patch:
        chunked(patch, chunk)
        result = write_shard_stream(str(path), stream)
    return result, pathlib.Path(path).read_bytes()


def archive_digest(directory) -> str:
    """SHA-256 over every file (name + bytes) in an archive directory."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8"))
        digest.update(pathlib.Path(directory, name).read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Synthetic day records (hypothesis)
# ----------------------------------------------------------------------

_ascii_labels = st.text(alphabet="abcdefgh", min_size=1, max_size=8)
#: Cyrillic labels rendered the way the registry stores them: punycode.
_punycode_labels = st.text(alphabet="абвгдежз", min_size=1, max_size=6).map(
    lambda word: "xn--" + word.encode("punycode").decode("ascii")
)
_domains = st.tuples(
    _ascii_labels | _punycode_labels,
    st.sampled_from(["ru", "su", "xn--p1ai"]),
).map(lambda parts: f"{parts[0]}.{parts[1]}")

_apex_runs = st.frozensets(
    st.integers(min_value=0, max_value=2**20), max_size=4
).map(lambda addresses: tuple(sorted(addresses)))


@st.composite
def day_records(draw):
    """A valid, summary-bearing DayShardRecord with random content."""
    count = draw(st.integers(min_value=0, max_value=24))
    population_size = count + draw(st.integers(min_value=1, max_value=12))
    measured = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=population_size - 1),
                min_size=count,
                max_size=count,
            )
        )
    )
    plan_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=count, max_size=count
        )
    )
    plan_table = {
        plan_id: (
            (f"ns{plan_id}.reg.ru", f"ns{plan_id}.reg.com"),
            (1000 + plan_id, 2000 + plan_id),
        )
        for plan_id in set(plan_ids)
    }
    record = DayShardRecord(
        date=dt.date(2022, 2, 1) + dt.timedelta(
            days=draw(st.integers(min_value=0, max_value=120))
        ),
        epoch_start_day=draw(st.integers(min_value=0, max_value=3000)),
        population_size=population_size,
        measured=measured,
        dns_ids=plan_ids,
        hosting_ids=draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=count,
                max_size=count,
            )
        ),
        dns_plan_ns=plan_table,
        domains=draw(
            st.lists(_domains, min_size=count, max_size=count)
        ),
        apex=draw(st.lists(_apex_runs, min_size=count, max_size=count)),
    )
    record.summary = DaySummary(
        record.date, record.epoch_start_day, count,
        (count, 0, 0), (0, count, 0), (0, 0, count),
        {"ru": count}, {197695: count}, (0, 0, 0), 0,
    )
    return record


def fixed_record() -> DayShardRecord:
    """A small deterministic record for the non-property cases."""
    record = DayShardRecord(
        date=dt.date(2022, 3, 4),
        epoch_start_day=1720,
        population_size=10,
        measured=[1, 4, 7],
        dns_ids=[2, 2, 5],
        hosting_ids=[3, 1, 3],
        dns_plan_ns={
            2: (("ns1.reg.ru", "ns2.reg.ru"), (101, 102)),
            5: (("alice.ns.cloudflare.com",), (250,)),
        },
        domains=["a.ru", "b.ru", "xn--e1afmkfd.xn--p1ai"],
        apex=[(11,), (12, 13), ()],
    )
    record.summary = DaySummary(
        record.date, record.epoch_start_day, 3,
        (1, 1, 1), (2, 1, 0), (3, 0, 0),
        {"ru": 2, "xn--p1ai": 1}, {13335: 1, 197695: 2}, (0, 1, 0), 2,
    )
    return record


class TestSyntheticStreams:
    """Property: the bytes are the same at any chunk size."""

    @FUZZ
    @given(record=day_records(), chunk=st.integers(min_value=1, max_value=64))
    def test_streamed_bytes_identical(self, record, chunk):
        with tempfile.TemporaryDirectory() as scratch:
            stream = DayStream.from_record(record)
            small = written(os.path.join(scratch, "small.shard"), stream, chunk)
            whole = written(
                os.path.join(scratch, "whole.shard"), stream, WHOLE_DAY
            )
            assert small == whole

    @FUZZ
    @given(record=day_records(), chunk=st.integers(min_value=1, max_value=64))
    def test_streamed_file_round_trips(self, record, chunk):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "day.shard")
            (_, crc), _ = written(path, DayStream.from_record(record), chunk)
            loaded = read_shard(path, expected_crc=crc)
            assert loaded == record
            assert loaded.summary == record.summary

    def test_stream_requires_summary(self):
        record = fixed_record()
        record.summary = None
        with pytest.raises(ArchiveError, match="requires a DaySummary"):
            DayStream.from_record(record)

    def test_default_chunk_size_identical(self, tmp_path):
        stream = DayStream.from_record(fixed_record())
        default = write_shard_stream(str(tmp_path / "default.shard"), stream)
        single = written(tmp_path / "single.shard", stream, 1)
        assert single == (default, (tmp_path / "default.shard").read_bytes())

    def test_no_temp_files_left(self, tmp_path):
        write_shard_stream(
            str(tmp_path / "day.shard"), DayStream.from_record(fixed_record())
        )
        assert [p.name for p in tmp_path.iterdir()] == ["day.shard"]


# ----------------------------------------------------------------------
# Real snapshots
# ----------------------------------------------------------------------

#: A routine conflict-window day plus an outage day (reduced coverage).
SNAPSHOT_DATES = ("2022-03-04", "2021-03-22")


class TestChunkedSummaries:
    """Chunked aggregation == whole-day aggregation, exactly."""

    @pytest.mark.parametrize("date", SNAPSHOT_DATES)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_summary_identical(self, tiny_world, monkeypatch, date, chunk):
        snapshot = FastCollector(tiny_world).collect(date)
        chunked(monkeypatch, WHOLE_DAY)
        whole = summarize_snapshot(snapshot)
        chunked(monkeypatch, chunk)
        assert summarize_snapshot(snapshot) == whole


class TestSnapshotStreams:
    """DayStream.from_snapshot writes real days chunk-independently."""

    @pytest.mark.parametrize("date", SNAPSHOT_DATES)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_streamed_snapshot_identical(self, tiny_world, tmp_path, date, chunk):
        snapshot = FastCollector(tiny_world).collect(date)
        stream = DayStream.from_snapshot(snapshot, summarize_snapshot(snapshot))
        assert written(tmp_path / "small.shard", stream, chunk) == written(
            tmp_path / "whole.shard", stream, WHOLE_DAY
        )

    def test_stream_caches_are_shared(self, tiny_world):
        """from_snapshot reuses the reducer's apex/plan caches."""
        apex_cache, plan_cache = {}, {}
        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        stream = DayStream.from_snapshot(snapshot, None, apex_cache, plan_cache)
        stream.apex_chunk(0, len(stream))
        assert apex_cache and plan_cache


# ----------------------------------------------------------------------
# End-to-end builds
# ----------------------------------------------------------------------

START = dt.date(2022, 2, 20)
END = dt.date(2022, 3, 3)


class TestBuilderEquivalence:
    """An archive built at a small chunk matches a one-chunk build."""

    @pytest.fixture(scope="class")
    def equivalent_archives(self, tmp_path_factory, archive_config):
        base = tmp_path_factory.mktemp("stream-equiv")
        archives = []
        for chunk in (WHOLE_DAY, 500):
            directory = str(base / f"chunk-{chunk}")
            with pytest.MonkeyPatch.context() as patch:
                chunked(patch, chunk)
                ArchiveBuilder(directory, archive_config).build(START, END)
            archives.append(directory)
        return tuple(archives)

    def test_directory_digest_identical(self, equivalent_archives):
        whole, streamed = equivalent_archives
        assert archive_digest(streamed) == archive_digest(whole)

    def test_manifest_crcs_identical(self, equivalent_archives):
        whole, streamed = equivalent_archives
        whole_manifest = Manifest.load(whole)
        stream_manifest = Manifest.load(streamed)
        assert set(stream_manifest.days) == set(whole_manifest.days)
        for date, entry in whole_manifest.days.items():
            other = stream_manifest.days[date]
            assert (other.crc32, other.bytes, other.records) == (
                entry.crc32, entry.bytes, entry.records
            )

    def test_streamed_archive_reads_identically(self, equivalent_archives):
        from repro.archive import MeasurementArchive

        whole, streamed = equivalent_archives
        whole_archive = MeasurementArchive(whole)
        stream_archive = MeasurementArchive(streamed)
        for day in whole_archive.manifest.covered_dates():
            assert stream_archive.load_day(day) == whole_archive.load_day(day)
        assert stream_archive.load_summaries(START, END) == (
            whole_archive.load_summaries(START, END)
        )
