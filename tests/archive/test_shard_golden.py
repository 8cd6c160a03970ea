"""Golden pins on the shard bytes the archive writer produces.

The shard format is a contract: archives on disk, the scenario digests
and the benchmark's build pin all assume that a day serialises to the
same bytes in every release.  These two hashes pin it directly, one on
a hand-built day and one on a real 1:5000 baseline build, so any
change to the writer that moves a single byte fails here.
"""

import datetime as dt
import hashlib
import os
import pathlib

from repro.archive import ArchiveBuilder
from repro.archive.stream import encode_stream

from .test_codec_fuzz import canonical_stream

CANONICAL_SHA256 = (
    "1d3bac0b6a6c40a4af2447315e359546a8fcc26ee6504742b5e876e29da46a4f"
)
CANONICAL_CRC = 0x58DD8354
CANONICAL_BYTES = 228

#: Baseline 1:5000 archive of 2022-02-20 .. 2022-03-03, every day.
BASELINE_DIGEST = (
    "e40962aeb691dbf9054de6e29a0c91874709718f2b52918a44ee556bf0433829"
)


def archive_digest(directory) -> str:
    """SHA-256 over every file of an archive: name, then bytes, sorted."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8"))
        digest.update(pathlib.Path(directory, name).read_bytes())
    return digest.hexdigest()


def test_canonical_record_bytes():
    blob, crc = encode_stream(canonical_stream())
    assert len(blob) == CANONICAL_BYTES
    assert crc == CANONICAL_CRC
    assert hashlib.sha256(blob).hexdigest() == CANONICAL_SHA256


def test_baseline_build_digest(tmp_path, archive_config):
    directory = str(tmp_path / "golden")
    report = ArchiveBuilder(directory, archive_config).build(
        dt.date(2022, 2, 20), dt.date(2022, 3, 3)
    )
    assert len(report.written) == 12
    assert archive_digest(directory) == BASELINE_DIGEST
