"""Streaming shard builds must be byte-identical to whole-day builds.

The claim under test is the tentpole invariant of the bounded-memory
build path: for any day and any chunk size, ``write_shard_stream`` over
a :class:`DayStream` produces the same file — every byte, both CRCs —
as ``write_shard`` over the materialised :class:`DayShardRecord`, and
the chunked :func:`summarize_snapshot` produces the same
:class:`DaySummary` as the one-shot aggregation.  Three layers:

* property-based (hypothesis, derandomised): random synthetic
  populations — ``.рф``/punycode domains included — streamed at random
  chunk sizes against the one-shot writer;
* real snapshots: live collector days (an outage day included) through
  ``DayStream.from_snapshot`` at several chunk sizes;
* end-to-end: a full ``ArchiveBuilder`` run with ``chunk_domains`` set
  against a plain build — identical manifests and shard CRCs, proven
  over the whole directory digest.
"""

import datetime as dt
import hashlib
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.archive import ArchiveBuilder
from repro.archive.kernel import summarize_snapshot
from repro.archive.manifest import Manifest
from repro.archive.shard import DayShardRecord, read_shard, write_shard
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
    """Property: streamed bytes == one-shot bytes, any chunk size."""

    @FUZZ
    @given(record=day_records(), chunk=st.integers(min_value=1, max_value=64))
    def test_streamed_bytes_identical(self, record, chunk):
        with tempfile.TemporaryDirectory() as scratch:
            whole = os.path.join(scratch, "whole.shard")
            streamed = os.path.join(scratch, "streamed.shard")
            whole_result = write_shard(whole, record)
            stream_result = write_shard_stream(
                streamed, DayStream.from_record(record), chunk_domains=chunk
            )
            assert stream_result == whole_result
            assert (
                pathlib.Path(streamed).read_bytes()
                == pathlib.Path(whole).read_bytes()
            )

    @FUZZ
    @given(record=day_records(), chunk=st.integers(min_value=1, max_value=64))
    def test_streamed_file_round_trips(self, record, chunk):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "day.shard")
            _, crc = write_shard_stream(
                path, DayStream.from_record(record), chunk_domains=chunk
            )
            loaded = read_shard(path, expected_crc=crc)
            assert loaded == record
            assert loaded.summary == record.summary

    def test_stream_requires_summary(self):
        record = fixed_record()
        record.summary = None
        with pytest.raises(ArchiveError, match="requires a DaySummary"):
            DayStream.from_record(record)

    def test_bad_chunk_size_rejected(self, tmp_path):
        record = fixed_record()
        stream = DayStream.from_record(record)
        with pytest.raises(ArchiveError, match="chunk_domains"):
            write_shard_stream(
                str(tmp_path / "day.shard"), stream, chunk_domains=0
            )

    def test_default_chunk_size_identical(self, tmp_path):
        record = fixed_record()
        write_shard(str(tmp_path / "whole.shard"), record)
        write_shard_stream(
            str(tmp_path / "streamed.shard"), DayStream.from_record(record)
        )
        assert (tmp_path / "streamed.shard").read_bytes() == (
            tmp_path / "whole.shard"
        ).read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        record = fixed_record()
        write_shard_stream(
            str(tmp_path / "day.shard"), DayStream.from_record(record)
        )
        assert [p.name for p in tmp_path.iterdir()] == ["day.shard"]


# ----------------------------------------------------------------------
# Real snapshots
# ----------------------------------------------------------------------

#: A routine conflict-window day plus an outage day (reduced coverage).
SNAPSHOT_DATES = ("2022-03-04", "2021-03-22")


class TestChunkedSummaries:
    """Chunked aggregation == one-shot aggregation, exactly."""

    @pytest.mark.parametrize("date", SNAPSHOT_DATES)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_summary_identical(self, tiny_world, date, chunk):
        snapshot = FastCollector(tiny_world).collect(date)
        assert summarize_snapshot(snapshot, chunk_domains=chunk) == (
            summarize_snapshot(snapshot)
        )

    def test_bad_chunk_rejected(self, tiny_world):
        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        with pytest.raises(ArchiveError, match="chunk_domains"):
            summarize_snapshot(snapshot, chunk_domains=0)


class TestSnapshotStreams:
    """DayStream.from_snapshot streams real days byte-identically."""

    @pytest.mark.parametrize("date", SNAPSHOT_DATES)
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_streamed_snapshot_identical(self, tiny_world, tmp_path, date, chunk):
        snapshot = FastCollector(tiny_world).collect(date)
        record = DayShardRecord.from_snapshot(snapshot)
        record.summary = summarize_snapshot(snapshot)
        whole = tmp_path / "whole.shard"
        streamed = tmp_path / "streamed.shard"
        whole_result = write_shard(str(whole), record)
        stream = DayStream.from_snapshot(snapshot, chunk_domains=chunk)
        stream_result = write_shard_stream(
            str(streamed), stream, chunk_domains=chunk
        )
        assert stream_result == whole_result
        assert streamed.read_bytes() == whole.read_bytes()

    def test_stream_caches_are_shared(self, tiny_world):
        """from_snapshot reuses the reducer's apex/plan caches."""
        apex_cache, plan_cache = {}, {}
        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        stream = DayStream.from_snapshot(snapshot, apex_cache, plan_cache)
        stream.apex_chunk(0, len(stream))
        assert apex_cache and plan_cache


# ----------------------------------------------------------------------
# End-to-end builder equivalence
# ----------------------------------------------------------------------

START = dt.date(2022, 2, 20)
END = dt.date(2022, 3, 3)


class TestBuilderEquivalence:
    """Archives built with chunk_domains match plain builds exactly."""

    @pytest.fixture(scope="class")
    def equivalent_archives(self, tmp_path_factory, archive_config):
        base = tmp_path_factory.mktemp("stream-equiv")
        whole = str(base / "whole")
        streamed = str(base / "streamed")
        ArchiveBuilder(whole, archive_config).build(START, END)
        ArchiveBuilder(
            streamed, archive_config, chunk_domains=500
        ).build(START, END)
        return whole, streamed

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
