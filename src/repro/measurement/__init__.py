"""Measurement: OpenINTEL-style collectors over the simulated world."""

from .fast import DailySnapshot, FastCollector
from .metrics import PhaseStat, SweepMetrics
from .quality import CoveragePoint, MeasurementHealth
from .records import DomainMeasurement
from .resolving import ResolvingCollector
from .seeds import ZoneTransferSeeder
from .sweep import SweepChunk, SweepEngine, partition_chunks

__all__ = [
    "DailySnapshot",
    "CoveragePoint",
    "MeasurementHealth",
    "FastCollector",
    "DomainMeasurement",
    "PhaseStat",
    "ResolvingCollector",
    "SweepChunk",
    "SweepEngine",
    "SweepMetrics",
    "ZoneTransferSeeder",
    "partition_chunks",
]
