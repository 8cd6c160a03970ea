"""Self-healing archive tests: faulted builds, quarantine, repair.

Marked ``faults``: these build real (small) archives.  The acceptance
property throughout is byte-identity — a build that suffered injected
faults, and an archive healed after corruption, must equal the
fault-free artefact file for file.
"""

import datetime as dt
import json
import os

import pytest

from repro.archive import ArchiveBuilder, MeasurementArchive, archive_digest
from repro.archive.manifest import MANIFEST_NAME
from repro.faults import default_plan
from repro.measurement.metrics import SweepMetrics

pytestmark = pytest.mark.faults

START = dt.date(2022, 3, 1)
END = dt.date(2022, 3, 14)


@pytest.fixture(scope="module")
def clean_archive(tmp_path_factory, fault_config):
    directory = tmp_path_factory.mktemp("selfheal") / "clean"
    ArchiveBuilder(str(directory), fault_config).build(START, END, 1)
    return str(directory)


def copy_archive(source, target):
    os.makedirs(target)
    for name in os.listdir(source):
        with open(os.path.join(source, name), "rb") as src:
            with open(os.path.join(target, name), "wb") as dst:
                dst.write(src.read())
    return target


class TestFaultedBuild:
    def test_faulted_build_is_byte_identical(
        self, tmp_path, fault_config, clean_archive, fault_seed
    ):
        plan = default_plan(fault_seed, rate=0.25)
        metrics = SweepMetrics()
        directory = tmp_path / "faulted"
        builder = ArchiveBuilder(
            str(directory), fault_config, metrics=metrics, faults=plan
        )
        report = builder.build(START, END, 1)
        assert len(report.written) == 14
        # The plan must actually have interfered for this to prove anything.
        assert plan.injected() > 0
        assert metrics.recovery_count("faults_injected") > 0
        assert archive_digest(str(directory)) == archive_digest(clean_archive)
        assert MeasurementArchive(str(directory)).verify() == []


class TestLoadDaySelfHealing:
    def test_corrupt_shard_quarantined_and_rebuilt(
        self, tmp_path, fault_config, clean_archive
    ):
        directory = copy_archive(clean_archive, str(tmp_path / "heal"))
        date = dt.date(2022, 3, 5)
        shard = os.path.join(directory, f"{date.isoformat()}.shard")
        with open(shard, "rb") as handle:
            original = handle.read()
        mutated = bytearray(original)
        mutated[len(mutated) // 2] ^= 0x10
        with open(shard, "wb") as handle:
            handle.write(bytes(mutated))

        metrics = SweepMetrics()
        archive = MeasurementArchive(
            directory, metrics=metrics, config=fault_config
        )
        record = archive.load_day(date)
        assert record.date == date
        assert metrics.recovery_count("shards_quarantined") == 1
        assert metrics.recovery_count("shards_rebuilt") == 1
        assert os.path.exists(shard + ".quarantined")
        with open(shard, "rb") as handle:
            assert handle.read() == original  # bit-identical rebuild
        assert archive.verify() == []

    def test_without_config_damage_raises(self, tmp_path, clean_archive):
        directory = copy_archive(clean_archive, str(tmp_path / "noheal"))
        date = dt.date(2022, 3, 5)
        shard = os.path.join(directory, f"{date.isoformat()}.shard")
        with open(shard, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0x01]))
        archive = MeasurementArchive(directory)
        from repro.errors import ArchiveError

        with pytest.raises(ArchiveError):
            archive.load_day(date)


class TestRepair:
    def test_repair_restores_byte_identity(
        self, tmp_path, fault_config, clean_archive
    ):
        directory = copy_archive(clean_archive, str(tmp_path / "repair"))
        clean = archive_digest(clean_archive)

        # Four distinct damage classes plus an orphan.
        flip = os.path.join(directory, "2022-03-02.shard")
        with open(flip, "r+b") as handle:
            handle.seek(60)
            byte = handle.read(1)
            handle.seek(60)
            handle.write(bytes([byte[0] ^ 0x04]))
        truncated = os.path.join(directory, "2022-03-06.shard")
        with open(truncated, "rb") as handle:
            kept = handle.read()[:-9]
        with open(truncated, "wb") as handle:
            handle.write(kept)
        os.unlink(os.path.join(directory, "2022-03-09.shard"))
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        raw["days"]["2022-03-12"]["crc32"] ^= 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(os.path.join(directory, "1999-01-01.shard"), "wb") as handle:
            handle.write(b"stray bytes from an interrupted build")

        metrics = SweepMetrics()
        archive = MeasurementArchive(directory, metrics=metrics)
        kinds = {problem.kind for problem in archive.verify_detailed()}
        assert kinds == {
            "corrupt", "truncated", "missing-shard", "stale-manifest-crc", "orphan",
        }

        report = archive.repair(fault_config)
        assert report.ok
        assert sorted(report.rebuilt) == [
            dt.date(2022, 3, 2), dt.date(2022, 3, 6),
            dt.date(2022, 3, 9), dt.date(2022, 3, 12),
        ]
        assert len(report.quarantined) == 4  # all but the deleted shard
        assert metrics.recovery_count("shards_rebuilt") == 4
        assert archive.verify() == []
        assert archive_digest(directory) == clean

    def test_repair_on_clean_archive_is_a_noop(self, tmp_path, fault_config, clean_archive):
        directory = copy_archive(clean_archive, str(tmp_path / "noop"))
        archive = MeasurementArchive(directory)
        report = archive.repair(fault_config)
        assert report.ok
        assert report.quarantined == [] and report.rebuilt == []
        assert archive_digest(directory) == archive_digest(clean_archive)
