"""Deterministic fault injection for the sweep/archive pipeline.

See :mod:`repro.faults.plan` for the model: a :class:`FaultPlan` makes
pure seed-derived decisions per injection site, the hot paths carry
cheap no-op hooks when no plan is attached, and every fault the
default plan can inject is recovered in-path (documented in
``docs/faults.md``).
"""

from .plan import (
    CORRUPT,
    CRASH,
    IO_ERROR,
    KINDS,
    SERVICE_SITES,
    SITES,
    STALL,
    FaultPlan,
    FaultSpec,
    TransientIOError,
    WorkerCrashed,
    default_plan,
    service_plan,
    sync_fault_metrics,
)

__all__ = [
    "IO_ERROR",
    "CRASH",
    "CORRUPT",
    "STALL",
    "KINDS",
    "SITES",
    "SERVICE_SITES",
    "FaultPlan",
    "FaultSpec",
    "TransientIOError",
    "WorkerCrashed",
    "default_plan",
    "service_plan",
    "sync_fault_metrics",
]
