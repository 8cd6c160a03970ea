"""The persistent measurement archive.

OpenINTEL-style pipelines collect measurements once and query them many
times; this package is that storage layer for the reproduction.  A
measurement archive is a directory of compressed, CRC-checked binary
day shards (:mod:`repro.archive.shard`) described by a versioned,
scenario-fingerprinted manifest (:mod:`repro.archive.manifest`).
:class:`ArchiveBuilder` fills it incrementally through the
sweep engine; :class:`ArchiveCollector` serves it back through the
standard collector interface, making every experiment an archive read
instead of a re-simulation.
"""

from .builder import (
    ArchiveBuilder,
    ArchiveShardReducer,
    BuildReport,
    shard_filename,
    standard_plan_dates,
)
from .digest import archive_digest
from .kernel import ArchiveQueryKernel, summarize_snapshot
from .manifest import Manifest, scenario_fingerprint
from .shard import (
    DayShardRecord,
    ShardProbe,
    probe_shard,
    read_shard,
    read_summary,
)
from .store import ArchiveCollector, ArchivedSnapshot, MeasurementArchive
from .stream import DayStream, write_shard_stream
from .summary import DaySummary

__all__ = [
    "ArchiveBuilder",
    "ArchiveShardReducer",
    "ArchiveQueryKernel",
    "BuildReport",
    "archive_digest",
    "Manifest",
    "scenario_fingerprint",
    "DayShardRecord",
    "DayStream",
    "DaySummary",
    "ShardProbe",
    "probe_shard",
    "read_shard",
    "read_summary",
    "summarize_snapshot",
    "write_shard_stream",
    "ArchiveCollector",
    "ArchivedSnapshot",
    "MeasurementArchive",
    "shard_filename",
    "standard_plan_dates",
]
