"""The shard writer's compressor thread and its encoded day-to-day caches.

* **compressor thread** — a write failing on the thread, or a piece
  failing on the calling thread, must surface in the caller (retried
  into :class:`RecoveryError` where the error is retryable), leave no
  temp file and leave no thread running;
* **encoded columns** — a reducer that carries its columns across days
  in which measured domains change hosting plan must write the same
  bytes as fresh reducers, so an apex entry stored under another plan
  cannot be served stale; and a builder must carry its columns across
  one-day ``build()`` calls.
"""

import datetime as dt
import sys
import threading

import numpy as np
import pytest

from repro.archive import stream as stream_module
from repro.archive.builder import (
    ArchiveBuilder,
    ArchiveShardReducer,
    shard_filename,
)
from repro.archive.stream import DayStream, encode_stream, write_shard_stream
from repro.archive.summary import DaySummary
from repro.errors import RecoveryError
from repro.measurement.fast import FastCollector

DAY_DOMAINS = 2_000
CHUNK = 100


def synthetic_stream(domain_at) -> DayStream:
    summary = DaySummary(
        dt.date(2022, 3, 4), 1720, DAY_DOMAINS,
        (DAY_DOMAINS, 0, 0), (DAY_DOMAINS, 0, 0), (DAY_DOMAINS, 0, 0),
        {"ru": DAY_DOMAINS}, {197695: DAY_DOMAINS}, (0, 0, 0), 0,
    )
    return DayStream(
        dt.date(2022, 3, 4),
        1720,
        DAY_DOMAINS,
        np.arange(DAY_DOMAINS, dtype=np.int64),
        np.zeros(DAY_DOMAINS, dtype=np.int32),
        np.zeros(DAY_DOMAINS, dtype=np.int32),
        {0: (("ns1.stream.ru", "ns2.stream.ru"), (1101, 1102))},
        summary,
        lambda positions: list(map(domain_at, positions)),
        lambda positions: [(position, position + 7) for position in positions],
    )


def plain_name(position: int) -> str:
    return f"domain-{position:07d}.example.ru"


class PayloadFailingHandle:
    """A real temp file whose second write from another thread fails.

    Only the compressor thread writes payload bytes, so the failure
    lands partway into the payload, after the header and summary.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self.thread_writes = 0

    def write(self, data):
        if threading.current_thread() is not threading.main_thread():
            self.thread_writes += 1
            if self.thread_writes > 1:
                raise OSError("disk full (injected)")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestCompressorThreadFailures:
    def test_thread_write_error_is_retried_then_raised(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", CHUNK)
        handles = []

        def failing_open(path, mode):
            handles.append(PayloadFailingHandle(open(path, mode)))
            return handles[-1]

        monkeypatch.setattr(stream_module, "open", failing_open, raising=False)
        threads_before = threading.active_count()
        with pytest.raises(RecoveryError, match="after 3 attempts") as excinfo:
            write_shard_stream(
                str(tmp_path / "day.shard"), synthetic_stream(plain_name),
                retries=2, backoff=0.0,
            )
        assert isinstance(excinfo.value.__cause__, OSError)
        assert "injected" in str(excinfo.value.__cause__)
        assert len(handles) == 3
        assert all(handle.thread_writes == 2 for handle in handles)
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == threads_before

    def test_piece_error_on_calling_thread_joins_the_thread(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", CHUNK)

        def failing_name(position: int) -> str:
            if position == DAY_DOMAINS // 2:
                raise RuntimeError("name lookup failed (injected)")
            return plain_name(position)

        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            write_shard_stream(
                str(tmp_path / "day.shard"), synthetic_stream(failing_name)
            )
        assert threading.active_count() == threads_before
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_under_fast_switching(self, monkeypatch):
        """Writers on more threads than cores, each with its own compressor
        thread, switching every microsecond, all produce the serial bytes."""
        monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", CHUNK)
        expected = encode_stream(synthetic_stream(plain_name))
        results = []

        def encode_repeatedly() -> None:
            for _ in range(3):
                results.append(encode_stream(synthetic_stream(plain_name)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=encode_repeatedly) for _ in range(4)]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert results == [expected] * 12

    def test_successful_write_leaves_no_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", CHUNK)
        threads_before = threading.active_count()
        write_shard_stream(str(tmp_path / "day.shard"), synthetic_stream(plain_name))
        assert threading.active_count() == threads_before
        assert [p.name for p in tmp_path.iterdir()] == ["day.shard"]


class TestEncodedCaches:
    #: Consecutive days on which dozens of measured tiny-world domains
    #: move hosting plan.
    DAYS = ("2022-03-11", "2022-03-12")

    def test_reused_reducer_matches_fresh_reducers(self, tiny_world, tmp_path):
        collector = FastCollector(tiny_world)
        first, second = (collector.collect(day) for day in self.DAYS)
        both = np.intersect1d(first.measured, second.measured)
        moved = both[first.hosting_ids[both] != second.hosting_ids[both]]
        assert any(
            tiny_world.apex_addresses_for_plan(int(d), int(first.hosting_ids[d]))
            != tiny_world.apex_addresses_for_plan(int(d), int(second.hosting_ids[d]))
            for d in moved
        ), "the days must move a measured domain to a different apex run"

        shared = tmp_path / "shared"
        shared.mkdir()
        reducer = ArchiveShardReducer(str(shared))
        for snapshot in (first, second):
            reducer.reduce_day(snapshot)
        assert reducer._names.blob and reducer._apexes.blob
        for snapshot in (first, second):
            fresh = tmp_path / f"fresh-{snapshot.date}"
            fresh.mkdir()
            ArchiveShardReducer(str(fresh)).reduce_day(snapshot)
            name = shard_filename(snapshot.date)
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()

    def test_builder_keeps_caches_across_one_day_builds(
        self, tmp_path, archive_config
    ):
        """Live follow and self-heal call ``build(day, day, 1)`` once per
        day on one builder; the later calls reuse the first call's
        columns, refill none of its names, and write what one multi-day
        build writes."""
        start = dt.date(2022, 3, 11)
        days = [start + dt.timedelta(days=offset) for offset in range(3)]
        follow = ArchiveBuilder(str(tmp_path / "follow"), archive_config)
        follow.build(days[0], days[0], 1)
        names, apexes = follow._reducer._names, follow._reducer._apexes
        named = np.flatnonzero(names.size >= 0)
        name_slots = names.start[named].copy(), names.blob[:]
        apex_slots = apexes.start.copy(), apexes.key.copy()
        assert len(named) and apexes.blob
        for day in days[1:]:
            follow.build(day, day, 1)
        assert follow._reducer._names is names
        assert follow._reducer._apexes is apexes
        # A refilled name would sit past the first call's blob.
        assert (names.start[named] == name_slots[0]).all()
        assert names.blob[:len(name_slots[1])] == name_slots[1]
        same_plan = apexes.key == apex_slots[1]
        assert (apexes.start[same_plan] == apex_slots[0][same_plan]).all()

        ArchiveBuilder(str(tmp_path / "once"), archive_config).build(
            days[0], days[-1]
        )
        for day in days:
            name = shard_filename(day)
            assert (tmp_path / "follow" / name).read_bytes() == (
                tmp_path / "once" / name
            ).read_bytes()
