"""Measurement: OpenINTEL-style collectors over the simulated world."""

from .fast import DailySnapshot, FastCollector
from .metrics import PhaseStat, SweepMetrics
from .records import DomainMeasurement
from .resolving import ResolvingCollector
from .sweep import SweepEngine

__all__ = [
    "DailySnapshot",
    "FastCollector",
    "DomainMeasurement",
    "PhaseStat",
    "ResolvingCollector",
    "SweepEngine",
    "SweepMetrics",
]
