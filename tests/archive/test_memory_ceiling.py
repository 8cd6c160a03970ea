"""Bounded-memory regression tests for the shard writer.

Two independent measurements, because they catch different regressions:

* **tracemalloc** (always runs): streaming a large synthetic day in the
  writer's small chunks must allocate a small fraction of what one
  whole-day chunk allocates — the transients scale with the chunk, not
  the day.  A change that quietly materialises the whole day inside the
  writer fails this immediately, at any machine's RSS.
* **ru_maxrss** (skipped without the ``resource`` module): a real
  subprocess archive build must stay under a generous absolute ceiling,
  pinning the end-to-end peak including numpy, the world, and the
  interpreter itself.

The RSS sampling helpers themselves are covered here too, since every
memory number the bench ladder reports flows through them.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.archive import stream as stream_module
from repro.archive.stream import DayStream, write_shard_stream
from repro.archive.summary import DaySummary
from repro.measurement.metrics import SweepMetrics, current_rss_bytes

#: Synthetic-day size: big enough that whole-day transients dwarf the
#: chunk bound, small enough to encode twice in a few seconds.
DAY_DOMAINS = 80_000
CHUNK = 2_000


def synthetic_stream(count: int = DAY_DOMAINS) -> DayStream:
    """A lazy day of ``count`` generated domains (nothing materialised)."""
    import datetime as dt

    summary = DaySummary(
        dt.date(2022, 3, 4), 1720, count,
        (count, 0, 0), (count, 0, 0), (count, 0, 0),
        {"ru": count}, {197695: count}, (0, 0, 0), 0,
    )
    return DayStream(
        dt.date(2022, 3, 4),
        1720,
        count,
        np.arange(count, dtype=np.int64),
        np.zeros(count, dtype=np.int32),
        np.zeros(count, dtype=np.int32),
        {0: (("ns1.stream.ru", "ns2.stream.ru"), (1101, 1102))},
        summary,
        lambda positions: [f"domain-{p:07d}.example.ru" for p in positions],
        lambda positions: [(p, p + 7) for p in positions],
    )


def traced_write(monkeypatch, path, chunk: int):
    """``(peak traced bytes, file bytes)`` of one write at ``chunk``."""
    monkeypatch.setattr(stream_module, "CHUNK_DOMAINS", chunk)
    stream = synthetic_stream()
    tracemalloc.start()
    write_shard_stream(str(path), stream)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, path.read_bytes()


class TestStreamingAllocations:
    def test_streaming_encode_allocates_a_fraction(self, tmp_path, monkeypatch):
        whole_peak, _ = traced_write(
            monkeypatch, tmp_path / "whole.shard", DAY_DOMAINS
        )
        streamed_peak, _ = traced_write(
            monkeypatch, tmp_path / "streamed.shard", CHUNK
        )
        # One whole-day chunk holds the day's encoded domain column (and
        # its copy); the small chunks' transients are bounded by the
        # chunk.  A 3x margin keeps the assertion far from allocator
        # noise while still failing on any regression that
        # rematerialises the day.
        assert streamed_peak * 3 < whole_peak, (
            f"streaming peak {streamed_peak:,}B vs whole-day {whole_peak:,}B"
        )

    def test_streamed_bytes_still_identical_at_scale(self, tmp_path, monkeypatch):
        _, whole = traced_write(monkeypatch, tmp_path / "whole.shard", DAY_DOMAINS)
        _, streamed = traced_write(monkeypatch, tmp_path / "streamed.shard", CHUNK)
        assert streamed == whole


class TestRssSampling:
    """The helpers every bench memory number flows through."""

    def test_current_rss_positive_on_supported_platforms(self):
        pytest.importorskip("resource")
        assert current_rss_bytes() > 0

    def test_metrics_retain_peak(self):
        metrics = SweepMetrics()
        assert metrics.peak_rss_bytes == 0
        first = metrics.sample_rss()
        second = metrics.sample_rss()
        assert metrics.peak_rss_bytes == max(first, second)
        payload = metrics.summary()["memory"]
        assert payload["peak_rss_bytes"] == metrics.peak_rss_bytes
        assert payload["rss_samples"] == 2


class TestSubprocessCeiling:
    """End-to-end: a build stays under an absolute RSS budget."""

    #: Generous ceiling for a 3-day 1:2500-scale build (~75 MiB observed
    #: at 1:250; tiny scale sits far below).  Catches only order-of-
    #: magnitude regressions, by design — the tracemalloc test above is
    #: the sharp one.
    CEILING_MIB = 512

    def test_chunked_build_stays_under_ceiling(self, tmp_path):
        pytest.importorskip("resource")
        script = textwrap.dedent(
            f"""
            import resource, sys
            from repro.archive import ArchiveBuilder
            from repro.sim import ConflictScenarioConfig

            config = ConflictScenarioConfig(scale=2500.0, with_pki=False)
            builder = ArchiveBuilder({str(tmp_path / "arch")!r}, config)
            report = builder.build("2022-02-24", "2022-02-26")
            assert len(report.written) == 3
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            scale = 1024 if sys.platform.startswith("linux") else 1
            print(peak_kib * scale)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        peak_bytes = int(result.stdout.strip().splitlines()[-1])
        assert peak_bytes < self.CEILING_MIB * 1024 * 1024, (
            f"build peaked at {peak_bytes / 2**20:.1f} MiB"
        )
