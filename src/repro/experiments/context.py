"""Shared experiment context: one world, cached sweeps and datasets.

Several figures consume the same five-year sweep; the context runs that
sweep once — through the sweep engine — and accumulates every
longitudinal series in a single pass.  Likewise for the recent
(conflict-window) daily sweep, the CT monitor, and the scan dataset.
Every expensive phase is instrumented in :attr:`ExperimentContext.metrics`.

A context can also be **archive-backed**: given a persistent measurement
archive (see :mod:`repro.archive`) whose scenario fingerprint matches the
config, sweeps read the day summaries stored in its shards instead of
re-deriving world days, so experiments become disk reads.
"""

from __future__ import annotations

import datetime as _dt
import threading
from typing import List, Optional, Union

from ..core.reducers import SweepSeries
from ..ctlog.monitor import CtMonitor
from ..errors import AnalysisError
from ..measurement.fast import FastCollector
from ..measurement.metrics import SweepMetrics
from ..measurement.sweep import SweepEngine
from ..scanner.cuids import UniversalScanDataset
from ..scanner.tls import TlsScanner
from ..sim.conflict import ConflictScenarioConfig, build_scenario
from ..sim.world import World

__all__ = ["SweepSeries", "ExperimentContext"]

#: The hosting networks Figure 4 tracks (provider key order).
FIG4_PROVIDERS = (
    "regru", "rucenter", "timeweb", "beget",
    "amazon", "sedo", "cloudflare", "serverel",
)


class ExperimentContext:
    """Builds (or wraps) a world and caches every shared computation."""

    def __init__(
        self,
        world: Optional[World] = None,
        config: Optional[ConflictScenarioConfig] = None,
        cadence_days: int = 7,
        archive: Optional[Union[str, "MeasurementArchive"]] = None,
        faults=None,
        scenario: Optional[Union[str, "ScenarioSpec"]] = None,
    ) -> None:
        if cadence_days < 1:
            raise AnalysisError(f"cadence must be >= 1 day: {cadence_days}")
        if archive is not None and world is not None:
            raise AnalysisError(
                "pass either a prebuilt world or an archive, not both"
            )
        self.scenario_spec = None
        if scenario is not None:
            if config is not None or world is not None:
                raise AnalysisError(
                    "pass either a scenario or a config/world, not both"
                )
            from ..scenario import ScenarioSpec

            spec = (
                scenario
                if isinstance(scenario, ScenarioSpec)
                else ScenarioSpec.resolve(str(scenario))
            )
            self.scenario_spec = spec
            config = spec.compile()
        if config is None:
            from ..scenario import ScenarioSpec

            config = ScenarioSpec.resolve("baseline").compile()
        self.config = config
        self.metrics = SweepMetrics()
        self.faults = faults
        self.archive: Optional["MeasurementArchive"] = None
        if archive is not None:
            from ..archive.store import MeasurementArchive

            if isinstance(archive, MeasurementArchive):
                self.archive = archive
                if self.archive.metrics is None:
                    self.archive.metrics = self.metrics
                if self.archive.config is None:
                    # Enables in-place self-healing of damaged shards.
                    self.archive.config = self.config
                if self.archive.faults is None:
                    self.archive.faults = faults
            else:
                self.archive = MeasurementArchive(
                    archive,
                    metrics=self.metrics,
                    config=self.config,
                    faults=faults,
                )
            # A stale or foreign archive must be refused, not silently
            # mixed with a freshly simulated world.
            self.archive.manifest.check_scenario(self.config)
        self._world_lock = threading.Lock()
        self._catalog = None
        self._world = world
        if self.archive is not None:
            from ..archive.store import ArchiveCollector

            # The world is handed over lazily: queries the archive can
            # answer from stored shard summaries never build it, which
            # is most of what makes warm archive queries beat live.
            self.collector = ArchiveCollector(
                self.archive,
                self._world if self._world is not None else (lambda: self.world),
            )
        else:
            self.collector = FastCollector(self.world)
        self.engine = SweepEngine(self.collector, metrics=self.metrics, faults=faults)
        self.cadence_days = cadence_days
        self._api = None
        self._monitor: Optional[CtMonitor] = None
        self._scans: Optional[UniversalScanDataset] = None

    @property
    def world(self) -> World:
        """The scenario world, built on first access when config-derived.

        Live contexts touch it during construction (the collector needs
        it), so they pay for it up front exactly as before; an
        archive-backed context defers it until a query classifies
        domains — summary-served queries and records pages never do.
        """
        if self._world is None:
            with self._world_lock:
                if self._world is None:
                    with self.metrics.phase("world_build"):
                        self._world = build_scenario(self.config)
        return self._world

    @property
    def catalog(self):
        """The provider catalog, without forcing a world build.

        The standard catalog is scenario-independent (the world builder
        itself starts from it), so archive-backed contexts can resolve
        provider ASNs while the world stays unbuilt.
        """
        if self._catalog is None:
            if self._world is not None:
                self._catalog = self._world.catalog
            else:
                from ..providers.catalog import standard_catalog

                self._catalog = standard_catalog()
        return self._catalog

    @property
    def scenario_id(self) -> str:
        """The canonical scenario this context's world reproduces."""
        return getattr(self.config, "scenario_id", "baseline")

    @property
    def api(self) -> "AnalysisFacade":
        """The unified query facade over this context (see :mod:`repro.api`).

        Owns the cached sweeps and the :meth:`AnalysisFacade.query`
        entry point the CLI and the HTTP service share.
        """
        if self._api is None:
            from ..api.facade import AnalysisFacade

            self._api = AnalysisFacade(self)
        return self._api

    # ------------------------------------------------------------------
    # The recent daily window (Figures 4 and 5)
    # ------------------------------------------------------------------

    def fig4_asns(self) -> List[int]:
        """The tracked hosting ASNs, Figure 4's legend order."""
        return [
            self.catalog.get(key).primary_asn for key in FIG4_PROVIDERS
        ]

    # ------------------------------------------------------------------
    # PKI datasets (Figure 8, Tables 1-2, §4.3)
    # ------------------------------------------------------------------

    def _require_pki(self):
        if self.world.pki is None:
            raise AnalysisError(
                "this experiment needs the PKI simulation "
                "(build the scenario with with_pki=True)"
            )
        return self.world.pki

    def monitor(self) -> CtMonitor:
        """Censys-style CT monitor over the study TLDs (cached)."""
        if self._monitor is None:
            pki = self._require_pki()
            monitor = CtMonitor(
                pki.logs,
                matcher=lambda cert: cert.secures_tld(("ru", "xn--p1ai")),
            )
            with self.metrics.phase("ct_monitor"):
                monitor.poll()
            self._monitor = monitor
        return self._monitor

    def scans(
        self,
        start: _dt.date = _dt.date(2022, 3, 1),
        end: _dt.date = _dt.date(2022, 5, 15),
        step: int = 7,
    ) -> UniversalScanDataset:
        """Accumulated CUIDS scans over the Russian-CA window (cached)."""
        if self._scans is None:
            pki = self._require_pki()
            scanner = TlsScanner(pki.serving_view(self.world))
            dataset = UniversalScanDataset()
            with self.metrics.phase("tls_scans") as stat:
                dataset.run_sweeps(scanner, start, end, step)
                stat.snapshots += (end - start).days // step + 1
            self._scans = dataset
        return self._scans
