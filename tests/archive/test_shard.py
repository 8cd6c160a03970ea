"""Tests for repro.archive.shard: round-trips, corruption, materialisation."""

import datetime as dt
import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.archive.shard import (
    SHARD_MAGIC,
    SHARD_VERSION,
    DayShardRecord,
    _decode_payload,
    _encode_payload,
    read_shard,
    read_summary,
    write_shard,
)
from repro.archive.summary import DaySummary
from repro.dns.name import DomainName
from repro.errors import ArchiveError
from repro.measurement.fast import FastCollector

_HEADER = struct.Struct("<8sHHIIIQ")


def record(**overrides):
    """A small hand-built day shard (includes a punycode .рф domain)."""
    defaults = dict(
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
    defaults.update(overrides)
    built = DayShardRecord(**defaults)
    built.summary = DaySummary(
        built.date, built.epoch_start_day, len(built.measured),
        (1, 1, 1), (2, 1, 0), (3, 0, 0),
        {"ru": 2, "xn--p1ai": 1}, {13335: 1, 197695: 2}, (0, 1, 0), 2,
    )
    return built


class TestRecordValidation:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ArchiveError, match="dns_ids"):
            record(dns_ids=[2, 2])

    def test_missing_plan_rejected(self):
        with pytest.raises(ArchiveError, match="dns plans missing"):
            record(dns_ids=[2, 2, 9])

    def test_equality_is_content_based(self):
        assert record() == record()
        assert record() != record(hosting_ids=[3, 1, 4])


class TestRoundTrip:
    def test_write_read_equal(self, tmp_path):
        original = record()
        path = str(tmp_path / "day.shard")
        file_bytes, crc = write_shard(path, original)
        assert file_bytes == (tmp_path / "day.shard").stat().st_size
        loaded = read_shard(path, expected_crc=crc)
        assert loaded == original
        assert loaded.key() == original.key()

    def test_bytes_deterministic(self, tmp_path):
        write_shard(str(tmp_path / "a.shard"), record())
        write_shard(str(tmp_path / "b.shard"), record())
        assert (tmp_path / "a.shard").read_bytes() == (
            tmp_path / "b.shard"
        ).read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        write_shard(str(tmp_path / "day.shard"), record())
        assert [p.name for p in tmp_path.iterdir()] == ["day.shard"]

    def test_punycode_domain_survives(self, tmp_path):
        path = str(tmp_path / "day.shard")
        write_shard(path, record())
        loaded = read_shard(path)
        measurement = loaded.measurement_for(7)
        assert measurement.domain == DomainName.parse("пример.рф")
        assert str(measurement.domain) == "xn--e1afmkfd.xn--p1ai"
        assert measurement.domain_index == 7
        assert measurement.ns_names == ("alice.ns.cloudflare.com",)
        assert measurement.apex_addresses == ()

    def test_concurrent_first_materialisation(self, tmp_path):
        """Query threads sharing a cached record may all index it at once."""
        path = str(tmp_path / "day.shard")
        write_shard(path, record())
        positions = [0, 1, 2] * 8
        expected = [record().measurement_at(p) for p in positions]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(100):
                    loaded = read_shard(path)
                    results = pool.map(loaded.measurement_at, positions)
                    assert list(results) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_measurement_columns(self, tmp_path):
        path = str(tmp_path / "day.shard")
        write_shard(path, record())
        loaded = read_shard(path)
        first = loaded.measurement_at(0)
        assert first.domain == DomainName.parse("a.ru")
        assert first.ns_names == ("ns1.reg.ru", "ns2.reg.ru")
        assert first.ns_addresses == (101, 102)
        assert first.apex_addresses == (11,)
        assert len(list(loaded.measurements())) == 3
        with pytest.raises(ArchiveError, match="not measured"):
            loaded.measurement_for(2)


class TestSummaryBlock:
    """The pre-aggregated summary block."""

    def test_summary_round_trips(self, tmp_path):
        original = record()
        path = str(tmp_path / "day.shard")
        _, crc = write_shard(path, original)
        assert read_shard(path, expected_crc=crc).summary == original.summary

    def test_partial_read_returns_summary(self, tmp_path):
        original = record()
        path = str(tmp_path / "day.shard")
        file_bytes, crc = write_shard(path, original)
        summary, bytes_read = read_summary(path, expected_crc=crc)
        assert summary == original.summary
        # The whole point: the per-domain columns are never read.
        assert bytes_read < file_bytes

    def test_v3_requires_summary(self, tmp_path):
        bare = record()
        bare.summary = None
        with pytest.raises(ArchiveError, match="requires a DaySummary"):
            write_shard(str(tmp_path / "day.shard"), bare)

    def test_partial_read_checks_manifest_crc(self, tmp_path):
        path = str(tmp_path / "day.shard")
        _, crc = write_shard(path, record())
        with pytest.raises(ArchiveError, match="does not match the manifest"):
            read_summary(path, expected_crc=crc ^ 1)

    def test_corrupt_summary_block_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        _, crc = write_shard(str(path), record())
        blob = bytearray(path.read_bytes())
        blob[45] ^= 0xFF  # inside the compressed summary block
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError):
            read_summary(str(path), expected_crc=crc)
        with pytest.raises(ArchiveError):
            read_shard(str(path), expected_crc=crc)


class TestCorruption:
    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        write_shard(str(path), record())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError):
            read_shard(str(path))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        write_shard(str(path), record())
        path.write_bytes(path.read_bytes()[: _HEADER.size - 2])
        with pytest.raises(ArchiveError, match="shorter than its header"):
            read_shard(str(path))

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        write_shard(str(path), record())
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTASHRD"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="bad magic"):
            read_shard(str(path))

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "day.shard"
        write_shard(str(path), record())
        blob = bytearray(path.read_bytes())
        _, _, flags, ordinal, count, crc, length = _HEADER.unpack_from(blob)
        blob[: _HEADER.size] = _HEADER.pack(
            SHARD_MAGIC, SHARD_VERSION + 1, flags, ordinal, count, crc, length
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="format version"):
            read_shard(str(path))

    def test_manifest_crc_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "day.shard")
        _, crc = write_shard(path, record())
        with pytest.raises(ArchiveError, match="does not match the manifest"):
            read_shard(path, expected_crc=crc ^ 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchiveError, match="cannot read shard"):
            read_shard(str(tmp_path / "absent.shard"))


def int32_column(values):
    return np.asarray(values, dtype="<i4").tobytes()


def materialise(payload):
    """Decode a three-record payload and materialise its first record.

    Damage anywhere in the payload must surface here already, not only
    when the damaged position itself is asked for.
    """
    return _decode_payload(dt.date(2022, 3, 4), 3, payload).measurement_at(0)


class TestDecodedPayloadIntegrity:
    """Damaged payloads fail at decode or at first materialisation.

    The payload CRC rules these out for files on disk; the checks guard
    the decoder itself, so a bug on either side of the format cannot
    silently yield wrong records.
    """

    def test_intact_payload_materialises(self):
        payload = bytes(_encode_payload(record()))
        assert materialise(payload) == record().measurement_at(0)

    def test_trailing_byte_refused(self):
        payload = bytes(_encode_payload(record())) + b"\x00"
        with pytest.raises(ArchiveError, match="trailing bytes"):
            materialise(payload)

    def test_truncated_domain_string_refused(self):
        # Three empty apex runs encode to one byte each: cutting four
        # bytes also clips the last domain string.
        payload = bytes(_encode_payload(record(apex=[()] * 3)))[:-4]
        with pytest.raises(ArchiveError, match="truncated string"):
            materialise(payload)

    def test_truncated_apex_varint_refused(self):
        wide = record(apex=[(11,), (12, 13), (3232235777,)])
        payload = bytes(_encode_payload(wide))[:-1]
        with pytest.raises(ArchiveError, match="truncated varint"):
            materialise(payload)

    def test_dns_id_missing_from_plan_table_refused(self):
        payload = bytes(_encode_payload(record()))
        damaged = payload.replace(
            int32_column([2, 2, 5]), int32_column([2, 2, 9]), 1
        )
        assert damaged != payload
        with pytest.raises(ArchiveError, match="dns plans missing"):
            materialise(damaged)

    def test_invalid_utf8_domain_refused(self):
        payload = bytes(_encode_payload(record()))
        damaged = payload.replace(b"b.ru", b"b.\xd0u", 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="invalid UTF-8"):
            materialise(damaged)

    def test_invalid_utf8_before_long_domain_refused(self):
        # A 133-byte name has a two-byte length prefix (0x85 0x01); its
        # first byte would complete the dangling 0xd0 into a valid
        # character if the column were decoded as one unmasked region.
        long_name = "c" * 130 + ".ru"
        payload = bytes(
            _encode_payload(record(domains=["a.ru", "b.ru", long_name]))
        )
        damaged = payload.replace(b"b.ru", b"b.r\xd0", 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="invalid UTF-8"):
            materialise(damaged)

    @pytest.mark.parametrize("measured", [[4, 1, 7], [1, 4, 4]])
    def test_non_ascending_measured_refused(self, measured):
        payload = bytes(_encode_payload(record()))
        damaged = payload.replace(
            int32_column([1, 4, 7]), int32_column(measured), 1
        )
        assert damaged != payload
        with pytest.raises(ArchiveError, match="strictly ascending"):
            materialise(damaged)


class TestFromSnapshot:
    """Columnarising a live snapshot must reproduce its measurements."""

    def test_snapshot_roundtrip(self, tmp_path, tiny_world):
        from repro.archive.kernel import summarize_snapshot

        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        built = DayShardRecord.from_snapshot(snapshot)
        built.summary = summarize_snapshot(snapshot)
        path = str(tmp_path / "day.shard")
        write_shard(path, built)
        loaded = read_shard(path)
        assert loaded == built
        assert loaded.population_size == len(tiny_world.population)
        assert loaded.epoch_start_day == snapshot.epoch.start_day
        for domain_index in loaded.measured[:20]:
            assert loaded.measurement_for(domain_index) == (
                snapshot.measurement_for(domain_index)
            )

    def test_caches_are_reused(self, tiny_world):
        apex_cache, plan_cache = {}, {}
        first = DayShardRecord.from_snapshot(
            FastCollector(tiny_world).collect("2022-03-04"), apex_cache, plan_cache
        )
        assert apex_cache and plan_cache
        again = DayShardRecord.from_snapshot(
            FastCollector(tiny_world).collect("2022-03-04"), apex_cache, plan_cache
        )
        assert again == first
