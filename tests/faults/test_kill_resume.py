"""Kill-and-resume: an interrupted build converges on identical bytes.

Marked ``faults``.  A fault plan deterministically fails one day's shard
write in an in-flight ``ArchiveBuilder.build`` (every attempt, so the
write's retry budget exhausts and the build dies mid-segment, leaving
orphan shards and no manifest coverage for the segment).  Resuming
without faults must produce an archive byte-identical to one built
without interruption — the resumability property the archive design
promises.
"""

import datetime as dt
import os

import pytest

from repro.archive import ArchiveBuilder, MeasurementArchive, archive_digest
from repro.archive.manifest import MANIFEST_NAME
from repro.errors import RecoveryError
from repro.faults import IO_ERROR, FaultPlan, FaultSpec

pytestmark = pytest.mark.faults

START = dt.date(2022, 3, 1)
END = dt.date(2022, 3, 14)

#: The shard whose write fails on every attempt, mid-range.
DOOMED_SHARD = "2022-03-07.shard"


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory, fault_config):
    directory = tmp_path_factory.mktemp("killresume") / "reference"
    ArchiveBuilder(str(directory), fault_config).build(START, END, 1)
    return str(directory)


def interrupt_then_resume(directory, fault_config, plan):
    """Run a build that must die on the doomed shard, then resume clean."""
    builder = ArchiveBuilder(str(directory), fault_config, faults=plan)
    with pytest.raises(RecoveryError):
        builder.build(START, END, 1)
    # The interruption landed mid-segment: shards exist that no
    # manifest records (the crash-consistency state resume must absorb).
    orphans = [n for n in os.listdir(directory) if n.endswith(".shard")]
    assert orphans
    assert not os.path.exists(os.path.join(directory, MANIFEST_NAME))
    resumed = ArchiveBuilder(str(directory), fault_config)
    report = resumed.build(START, END, 1)
    # Resume covers every day of the range exactly once: intact orphan
    # shards are adopted in place, the rest are rebuilt.  Nothing was in
    # the manifest, so nothing is skipped.
    assert len(report.written) + len(report.adopted) == 14
    assert not report.skipped
    return report


class TestKillAndResume:
    def test_serial_interrupt_resume_byte_identical(
        self, tmp_path, fault_config, uninterrupted
    ):
        # Matching the shard key without an attempt suffix dooms every
        # retry, so the serial build dies with RecoveryError mid-range.
        plan = FaultPlan(
            1, {"shard.write": FaultSpec(IO_ERROR, 1.0, match=DOOMED_SHARD)}
        )
        directory = tmp_path / "serial"
        report = interrupt_then_resume(str(directory), fault_config, plan)
        # Every day before the doomed shard was written, then orphaned.
        assert report.adopted == [
            START + dt.timedelta(days=offset) for offset in range(6)
        ]
        assert archive_digest(str(directory)) == archive_digest(uninterrupted)
        assert MeasurementArchive(str(directory)).verify() == []
