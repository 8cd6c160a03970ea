"""Kill-and-resume: an interrupted build converges on identical bytes.

Marked ``faults``.  A fault plan deterministically kills one chunk of an
in-flight ``ArchiveBuilder.build`` (every attempt, so the retry budget
exhausts and the build dies mid-segment, leaving orphan shards and no
manifest coverage for the segment).  Resuming without faults must
produce an archive byte-identical to one built without interruption —
the resumability property the archive design promises.
"""

import datetime as dt
import hashlib
import os

import pytest

from repro.archive import ArchiveBuilder, MeasurementArchive
from repro.archive.manifest import MANIFEST_NAME
from repro.errors import RecoveryError
from repro.faults import CRASH, FaultPlan, FaultSpec

from .conftest import HardExitPlan

pytestmark = pytest.mark.faults

START = dt.date(2022, 3, 1)
END = dt.date(2022, 3, 14)

#: Chunk size the builds run at; 2022-03-07 starts the third chunk.
CHUNK_DAYS = 3
DOOMED_CHUNK = "2022-03-07"


def archive_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if not (name.endswith(".shard") or name == MANIFEST_NAME):
            continue
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory, fault_config):
    directory = tmp_path_factory.mktemp("killresume") / "reference"
    ArchiveBuilder(str(directory), fault_config, chunk_days=CHUNK_DAYS).build(
        START, END, 1
    )
    return str(directory)


def interrupt_then_resume(directory, fault_config, plan, workers=1):
    """Run a build that must die on the doomed chunk, then resume clean."""
    builder = ArchiveBuilder(
        str(directory),
        fault_config,
        workers=workers,
        chunk_days=CHUNK_DAYS,
        faults=plan,
    )
    with pytest.raises(RecoveryError):
        builder.build(START, END, 1)
    # The interruption landed mid-segment: shards exist that no
    # manifest records (the crash-consistency state resume must absorb).
    orphans = [n for n in os.listdir(directory) if n.endswith(".shard")]
    assert orphans
    assert not os.path.exists(os.path.join(directory, MANIFEST_NAME))
    resumed = ArchiveBuilder(str(directory), fault_config, chunk_days=CHUNK_DAYS)
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
        # Matching the chunk key without an attempt suffix dooms every
        # retry, so the serial build dies with RecoveryError mid-range.
        plan = FaultPlan(
            1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match=DOOMED_CHUNK)}
        )
        directory = tmp_path / "serial"
        interrupt_then_resume(str(directory), fault_config, plan)
        assert archive_digest(str(directory)) == archive_digest(uninterrupted)
        assert MeasurementArchive(str(directory)).verify() == []

    def test_killed_pool_interrupt_resume_byte_identical(
        self, tmp_path, fault_config, uninterrupted
    ):
        # Hard-killed workers break pool after pool, the engine degrades
        # to serial, and the doomed chunk still exhausts its retries —
        # the worst recoverable-to-unrecoverable cascade ends in a clean
        # RecoveryError, and resume converges all the same.
        plan = HardExitPlan(
            1, {"sweep.chunk": FaultSpec(CRASH, 1.0, match=DOOMED_CHUNK)}
        )
        directory = tmp_path / "pool"
        interrupt_then_resume(str(directory), fault_config, plan, workers=2)
        assert archive_digest(str(directory)) == archive_digest(uninterrupted)
        assert MeasurementArchive(str(directory)).verify() == []
