"""Tests for repro.archive.shard: round-trips, corruption, materialisation."""

import datetime as dt
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.archive.shard import (
    SHARD_MAGIC,
    SHARD_VERSION,
    DayShardRecord,
    _decode_payload,
    encode_shard,
    read_shard,
    read_summary,
)
from repro.archive.stream import DayStream, EncodedColumn, _stream_pieces, write_shard_stream
from repro.archive.summary import DaySummary
from repro.dns.name import DomainName
from repro.errors import ArchiveError
from repro.measurement.fast import FastCollector
from repro.measurement.records import DomainMeasurement

_HEADER = struct.Struct("<8sHHIIIQ")

DAY = dt.date(2022, 3, 4)
MEASURED = [1, 4, 7]
DNS_IDS = [2, 2, 5]
PLANS = {
    2: (("ns1.reg.ru", "ns2.reg.ru"), (101, 102)),
    5: (("alice.ns.cloudflare.com",), (250,)),
}
DOMAINS = ["a.ru", "b.ru", "xn--e1afmkfd.xn--p1ai"]
APEX = [(11,), (12, 13), ()]


def stream(**overrides):
    """A small hand-built day (includes a punycode .рф domain)."""
    columns = dict(
        measured=MEASURED,
        dns_ids=DNS_IDS,
        hosting_ids=[3, 1, 3],
        domains=DOMAINS,
        apex=APEX,
    )
    columns.update(overrides)
    domains = columns.pop("domains")
    apex = columns.pop("apex")
    summary = DaySummary(
        DAY, 1720, len(columns["measured"]),
        (1, 1, 1), (2, 1, 0), (3, 0, 0),
        {"ru": 2, "xn--p1ai": 1}, {13335: 1, 197695: 2}, (0, 1, 0), 2,
    )
    return DayStream(
        DAY, 1720, 10, dns_plan_ns=PLANS, summary=summary,
        domains_at=lambda positions: [domains[p] for p in positions],
        apexes_at=lambda positions: [apex[p] for p in positions],
        **columns,
    )


def expected_measurement(position):
    """The record at ``position`` of :func:`stream`, built by hand."""
    names, addresses = PLANS[DNS_IDS[position]]
    return DomainMeasurement(
        DAY, DomainName.parse(DOMAINS[position]), names, addresses,
        APEX[position], domain_index=MEASURED[position],
    )


def written(tmp_path, day=None):
    """``(path, crc)`` of :func:`stream` (or ``day``) written to disk."""
    path = str(tmp_path / "day.shard")
    _, crc = write_shard_stream(path, stream() if day is None else day)
    return path, crc


class TestRecordValidation:
    """A record exists only decoded, so the decoder does the validating."""

    def test_column_length_mismatch_rejected(self):
        payload = encode_payload(stream())
        column = b"\x03" + int32_column(DNS_IDS)
        damaged = payload.replace(column, b"\x02" + int32_column(DNS_IDS[:2]), 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="id columns"):
            _decode_payload(DAY, 3, damaged)

    def test_missing_plan_rejected(self):
        payload = encode_payload(stream())
        column = int32_column(DNS_IDS)
        damaged = payload.replace(column, int32_column([2, 2, 9]), 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="dns plans missing"):
            materialise(damaged)

    def test_stream_disagreeing_with_its_plan_table_never_written(
        self, tmp_path
    ):
        with pytest.raises(ArchiveError, match=r"dns plans missing.*\[9\]"):
            written(tmp_path, stream(dns_ids=[2, 2, 9]))
        assert list(tmp_path.iterdir()) == []


class TestRoundTrip:
    def test_write_read_equal(self, tmp_path):
        path = str(tmp_path / "day.shard")
        file_bytes, crc = write_shard_stream(path, stream())
        blob = (tmp_path / "day.shard").read_bytes()
        assert file_bytes == len(blob)
        loaded = read_shard(path, expected_crc=crc)
        assert isinstance(loaded, DayShardRecord)
        # Re-encoding the decoded record reproduces the file exactly.
        assert encode_shard(loaded) == (blob, crc)

    def test_bytes_deterministic(self, tmp_path):
        write_shard_stream(str(tmp_path / "a.shard"), stream())
        write_shard_stream(str(tmp_path / "b.shard"), stream())
        assert (tmp_path / "a.shard").read_bytes() == (
            tmp_path / "b.shard"
        ).read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        written(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["day.shard"]

    def test_punycode_domain_survives(self, tmp_path):
        path, _ = written(tmp_path)
        loaded = read_shard(path)
        measurement = loaded.measurement_for(7)
        assert measurement.domain == DomainName.parse("пример.рф")
        assert str(measurement.domain) == "xn--e1afmkfd.xn--p1ai"
        assert measurement.domain_index == 7
        assert measurement.ns_names == ("alice.ns.cloudflare.com",)
        assert measurement.apex_addresses == ()

    def test_concurrent_first_materialisation(self, tmp_path):
        """Query threads sharing a cached record may all index it at once."""
        path, _ = written(tmp_path)
        positions = [0, 1, 2] * 8
        expected = [expected_measurement(p) for p in positions]
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
        path, _ = written(tmp_path)
        loaded = read_shard(path)
        first = loaded.measurement_at(0)
        assert first.domain == DomainName.parse("a.ru")
        assert first.ns_names == ("ns1.reg.ru", "ns2.reg.ru")
        assert first.ns_addresses == (101, 102)
        assert first.apex_addresses == (11,)
        assert [loaded.measurement_at(p) for p in range(3)] == [
            expected_measurement(p) for p in range(3)
        ]
        with pytest.raises(ArchiveError, match="not measured"):
            loaded.measurement_for(2)


class TestSummaryBlock:
    """The pre-aggregated summary block."""

    def test_summary_round_trips(self, tmp_path):
        path, crc = written(tmp_path)
        assert read_shard(path, expected_crc=crc).summary == stream().summary

    def test_partial_read_returns_summary(self, tmp_path):
        path = str(tmp_path / "day.shard")
        file_bytes, crc = write_shard_stream(path, stream())
        summary, bytes_read = read_summary(path, expected_crc=crc)
        assert summary == stream().summary
        # The whole point: the per-domain columns are never read.
        assert bytes_read < file_bytes

    def test_v3_requires_summary(self, tmp_path):
        path, _ = written(tmp_path)
        bare = read_shard(path)
        bare.summary = None
        with pytest.raises(ArchiveError, match="requires a DaySummary"):
            encode_shard(bare)

    def test_partial_read_checks_manifest_crc(self, tmp_path):
        path, crc = written(tmp_path)
        with pytest.raises(ArchiveError, match="does not match the manifest"):
            read_summary(path, expected_crc=crc ^ 1)

    def test_corrupt_summary_block_detected(self, tmp_path):
        path, crc = written(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[45] ^= 0xFF  # inside the compressed summary block
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ArchiveError):
            read_summary(path, expected_crc=crc)
        with pytest.raises(ArchiveError):
            read_shard(path, expected_crc=crc)


class TestCorruption:
    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        written(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError):
            read_shard(str(path))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        written(tmp_path)
        path.write_bytes(path.read_bytes()[: _HEADER.size - 2])
        with pytest.raises(ArchiveError, match="shorter than its header"):
            read_shard(str(path))

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "day.shard"
        written(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTASHRD"
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="bad magic"):
            read_shard(str(path))

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "day.shard"
        written(tmp_path)
        blob = bytearray(path.read_bytes())
        _, _, flags, ordinal, count, crc, length = _HEADER.unpack_from(blob)
        blob[: _HEADER.size] = _HEADER.pack(
            SHARD_MAGIC, SHARD_VERSION + 1, flags, ordinal, count, crc, length
        )
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="format version"):
            read_shard(str(path))

    def test_manifest_crc_mismatch_refused(self, tmp_path):
        path, crc = written(tmp_path)
        with pytest.raises(ArchiveError, match="does not match the manifest"):
            read_shard(path, expected_crc=crc ^ 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchiveError, match="cannot read shard"):
            read_shard(str(tmp_path / "absent.shard"))


def int32_column(values):
    return np.asarray(values, dtype="<i4").tobytes()


def encode_payload(day):
    """The uncompressed column payload the writer stores for ``day``."""
    return b"".join(_stream_pieces(day))


def materialise(payload):
    """Decode a three-record payload and materialise its first record.

    Damage anywhere in the payload must surface here already, not only
    when the damaged position itself is asked for.
    """
    return _decode_payload(DAY, 3, payload).measurement_at(0)


class TestDecodedPayloadIntegrity:
    """Damaged payloads fail at decode or at first materialisation.

    The payload CRC rules these out for files on disk; the checks guard
    the decoder itself, so a bug on either side of the format cannot
    silently yield wrong records.
    """

    def test_intact_payload_materialises(self):
        payload = encode_payload(stream())
        assert materialise(payload) == expected_measurement(0)

    def test_trailing_byte_refused(self):
        payload = encode_payload(stream()) + b"\x00"
        with pytest.raises(ArchiveError, match="trailing bytes"):
            materialise(payload)

    def test_truncated_domain_string_refused(self):
        # Three empty apex runs encode to one byte each: cutting four
        # bytes also clips the last domain string.
        payload = encode_payload(stream(apex=[()] * 3))[:-4]
        with pytest.raises(ArchiveError, match="truncated string"):
            materialise(payload)

    def test_truncated_apex_varint_refused(self):
        wide = stream(apex=[(11,), (12, 13), (3232235777,)])
        payload = encode_payload(wide)[:-1]
        with pytest.raises(ArchiveError, match="truncated varint"):
            materialise(payload)

    def test_dns_id_missing_from_plan_table_refused(self):
        payload = encode_payload(stream())
        damaged = payload.replace(
            int32_column([2, 2, 5]), int32_column([2, 2, 9]), 1
        )
        assert damaged != payload
        with pytest.raises(ArchiveError, match="dns plans missing"):
            materialise(damaged)

    def test_invalid_utf8_domain_refused(self):
        payload = encode_payload(stream())
        damaged = payload.replace(b"b.ru", b"b.\xd0u", 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="invalid UTF-8"):
            materialise(damaged)

    def test_invalid_utf8_before_long_domain_refused(self):
        # A 133-byte name has a two-byte length prefix (0x85 0x01); its
        # first byte would complete the dangling 0xd0 into a valid
        # character if the column were decoded as one unmasked region.
        long_name = "c" * 130 + ".ru"
        payload = encode_payload(stream(domains=["a.ru", "b.ru", long_name]))
        damaged = payload.replace(b"b.ru", b"b.r\xd0", 1)
        assert damaged != payload
        with pytest.raises(ArchiveError, match="invalid UTF-8"):
            materialise(damaged)

    @pytest.mark.parametrize("measured", [[4, 1, 7], [1, 4, 4]])
    def test_non_ascending_measured_refused(self, measured):
        payload = encode_payload(stream())
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
        from repro.archive.stream import encode_stream

        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        built = DayShardRecord.from_snapshot(snapshot)
        built.summary = summarize_snapshot(snapshot)
        blob, crc = encode_shard(built)
        assert (blob, crc) == encode_stream(
            DayStream.from_snapshot(snapshot, built.summary)
        )
        path = tmp_path / "day.shard"
        path.write_bytes(blob)
        loaded = read_shard(str(path), expected_crc=crc)
        assert encode_shard(loaded) == (blob, crc)
        assert loaded.population_size == len(tiny_world.population)
        assert loaded.epoch_start_day == snapshot.epoch.start_day
        for domain_index in loaded.measured[:20]:
            assert loaded.measurement_for(domain_index) == (
                snapshot.measurement_for(domain_index)
            )

    def test_caches_are_reused(self, tiny_world):
        from repro.archive.kernel import summarize_snapshot

        names, apexes, plan_cache = EncodedColumn(), EncodedColumn(keyed=True), {}
        snapshot = FastCollector(tiny_world).collect("2022-03-04")
        first = DayShardRecord.from_snapshot(snapshot, names, apexes, plan_cache)
        assert names.blob and apexes.blob and plan_cache
        filled = len(names.blob), len(apexes.blob)
        again = DayShardRecord.from_snapshot(
            FastCollector(tiny_world).collect("2022-03-04"),
            names, apexes, plan_cache,
        )
        assert (len(names.blob), len(apexes.blob)) == filled
        first.summary = again.summary = summarize_snapshot(snapshot)
        assert encode_shard(again) == encode_shard(first)
