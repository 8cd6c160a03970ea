"""The analysis facade: one entry point for every consumer.

:class:`AnalysisFacade` owns the cached longitudinal sweeps of one
:class:`~repro.experiments.context.ExperimentContext` and executes :class:`~repro.api.spec.QuerySpec` queries
against them.  ``repro query``, ``repro serve``, and the figure
experiments all route through here, so the offline CLI path and the
HTTP service are one code path producing byte-identical JSON.

The facade is thread-safe: the service executes queries on a bounded
thread pool, and the sweep caches are computed at most once under a
lock while cached reads stay lock-free.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Union

from ..archive.kernel import ArchiveQueryKernel, SummaryReducer
from ..archive.summary import DaySummary
from ..core.reducers import (
    RecentWindowSeries,
    SweepSeries,
    merge_full_sweep,
    merge_recent_window,
)
from ..core.summary import compute_headline_stats
from ..errors import QueryError
from ..net.ip import format_ipv4
from ..timeline import RECENT_WINDOW_START, STUDY_END, STUDY_START, as_date
from .deadline import check_deadline
from .spec import SCHEMA_VERSION, SERIES_NAMES, QueryResult, QuerySpec

__all__ = ["AnalysisFacade"]

#: Default page size for day-level record slices (kept bounded so one
#: request cannot materialise an entire population).
DEFAULT_RECORDS_LIMIT = 100

SpecLike = Union[QuerySpec, Dict[str, object], str]


def _as_spec(spec: SpecLike) -> QuerySpec:
    if isinstance(spec, QuerySpec):
        return spec
    if isinstance(spec, str):
        return QuerySpec.from_json(spec)
    if isinstance(spec, dict):
        return QuerySpec.from_dict(spec)
    raise QueryError(f"cannot build a query spec from {type(spec).__name__}")


def _range_indices(
    dates: Sequence[str], start: Optional[str], end: Optional[str]
) -> List[int]:
    """Positions of ISO ``dates`` falling inside the [start, end] slice.

    ISO dates order lexicographically, so the comparison stays on the
    already-rendered strings.
    """
    lo = as_date(start).isoformat() if start else None
    hi = as_date(end).isoformat() if end else None
    return [
        position
        for position, day in enumerate(dates)
        if (lo is None or day >= lo) and (hi is None or day <= hi)
    ]


class AnalysisFacade:
    """Query front-end over one :class:`ExperimentContext`.

    A facade serves one scenario's world directly and can have sibling
    scenarios *registered* on it (:meth:`register_scenario`): each
    registered scenario keeps its own context — and therefore its own
    archive, sweep caches, and world — and queries carrying a
    ``scenario`` field are routed to the matching facade.  This is how
    one service process serves every world side by side without the
    caches ever mixing.
    """

    def __init__(self, context) -> None:
        self._context = context
        self._lock = threading.RLock()
        self._full: Optional[SweepSeries] = None
        self._recent: Optional[RecentWindowSeries] = None
        self._scenarios: Dict[str, "AnalysisFacade"] = {}

    @property
    def context(self):
        """The backing experiment context (world, engine, metrics)."""
        return self._context

    # ------------------------------------------------------------------
    # The scenario dimension
    # ------------------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        """The scenario this facade's own context serves."""
        return getattr(self._context.config, "scenario_id", "baseline")

    def scenario_ids(self) -> List[str]:
        """Every scenario this facade can answer for, own world first."""
        return [self.scenario_id] + sorted(self._scenarios)

    def register_scenario(self, context) -> "AnalysisFacade":
        """Serve another scenario's context alongside this one.

        The registered context brings its own facade (one archive/sweep
        cache per scenario); returns it for direct use.
        """
        sid = getattr(context.config, "scenario_id", "baseline")
        with self._lock:
            if sid == self.scenario_id or sid in self._scenarios:
                raise QueryError(f"scenario {sid!r} is already being served")
            facade = context.api
            self._scenarios[sid] = facade
        return facade

    def scenario_facade(self, scenario_id: str) -> "AnalysisFacade":
        """The facade serving ``scenario_id``, or a QueryError listing ids."""
        if scenario_id == self.scenario_id:
            return self
        try:
            return self._scenarios[scenario_id]
        except KeyError:
            raise QueryError(
                f"scenario {scenario_id!r} is not being served; "
                f"available: {', '.join(self.scenario_ids())}"
            ) from None

    # ------------------------------------------------------------------
    # The shared sweeps
    # ------------------------------------------------------------------

    def _day_summaries(
        self, phase: str, read_stored, start, end, step: int
    ) -> List[DaySummary]:
        """One :class:`DaySummary` per ``step``-th day in [start, end].

        An archive-backed collector serves the stored summaries through
        ``read_stored``, an :class:`ArchiveQueryKernel` method (no
        snapshot scatter, no world build); any other collector runs
        :class:`SummaryReducer` through the sweep engine.  Either way the
        days were reduced by the same
        :func:`~repro.archive.kernel.summarize_snapshot`.
        """
        context = self._context
        kernel = getattr(context.collector, "kernel", None)
        with context.metrics.phase(phase) as stat:
            if kernel is None:
                return context.engine.run(
                    SummaryReducer(), start, end, step, phase=phase
                )
            summaries = read_stored(kernel, start, end, step)
            stat.snapshots += len(summaries)
            return summaries

    def full_sweep(self) -> SweepSeries:
        """All full-period series, computed in one pass and cached."""
        if self._full is not None:
            return self._full
        with self._lock:
            if self._full is None:
                check_deadline("full_sweep")
                self._full = merge_full_sweep(
                    self._day_summaries(
                        "full_sweep",
                        ArchiveQueryKernel.full_sweep_records,
                        STUDY_START,
                        STUDY_END,
                        self._context.cadence_days,
                    )
                )
        return self._full

    def recent_window(self) -> RecentWindowSeries:
        """The conflict-window daily series bundle, cached."""
        if self._recent is not None:
            return self._recent
        with self._lock:
            if self._recent is None:
                check_deadline("recent_sweep")
                self._recent = merge_recent_window(
                    self._context.fig4_asns(),
                    self._day_summaries(
                        "recent_sweep",
                        ArchiveQueryKernel.recent_records,
                        RECENT_WINDOW_START,
                        STUDY_END,
                        1,
                    ),
                )
        return self._recent

    def headline(self) -> Dict[str, object]:
        """The paper's headline numbers as a flat dict."""
        sweep = self.full_sweep()
        return compute_headline_stats(
            sweep.hosting_composition,
            sweep.ns_composition,
            sweep.tld_composition,
            sweep.tld_shares,
        ).as_dict()

    # ------------------------------------------------------------------
    # The unified entry point
    # ------------------------------------------------------------------

    def query(self, spec: SpecLike) -> QueryResult:
        """Execute one query spec; the single analysis entry point.

        Phase boundaries (here, the shared sweeps, and archive shard
        reads) check the remaining request budget via
        :func:`~repro.api.deadline.check_deadline`, so a query whose
        deadline has passed stops early instead of computing an answer
        nobody is waiting for.
        """
        spec = _as_spec(spec)
        check_deadline("query")
        if spec.kind == "diff":
            # Needs two worlds at once, so it runs at the routing facade.
            return QueryResult("diff", spec.to_dict(), self._diff_data(spec))
        target = self.scenario_facade(spec.scenario_id)
        if target is not self:
            return target.query(spec)
        if spec.kind == "experiment":
            return self._query_experiment(spec)
        if spec.kind == "series":
            return QueryResult("series", spec.to_dict(), self._series_data(spec))
        if spec.kind == "headline":
            return QueryResult("headline", spec.to_dict(), self.headline())
        if spec.kind == "records":
            return QueryResult("records", spec.to_dict(), self._records_data(spec))
        if spec.kind == "catalog":
            return QueryResult("catalog", spec.to_dict(), self._catalog_data())
        raise QueryError(f"unhandled query kind {spec.kind!r}")

    def query_json(self, spec: SpecLike) -> str:
        """Execute one query and return the canonical JSON text."""
        return self.query(spec).to_json()

    # ------------------------------------------------------------------
    # Per-kind execution
    # ------------------------------------------------------------------

    def _query_experiment(self, spec: QuerySpec) -> QueryResult:
        try:
            artefact = self._run_experiment(spec.experiment)
        except KeyError as exc:
            raise QueryError(str(exc.args[0]) if exc.args else str(exc)) from exc
        return QueryResult("experiment", spec.to_dict(), artefact.as_payload())

    def _run_experiment(self, experiment_id: str):
        from ..experiments.registry import run_experiment

        return run_experiment(experiment_id, self._context)

    def _diff_data(self, spec: QuerySpec) -> Dict[str, object]:
        """One experiment under ``spec.scenario`` minus it under baseline.

        Scalar ``measured`` values and equal-length numeric series
        subtract element-wise; everything non-numeric (dates, labels,
        rows) is carried from the scenario side untouched.  Both full
        payloads ride along so a consumer never needs a second query.
        """
        target = self.scenario_facade(spec.scenario_id)
        base = self.scenario_facade("baseline")
        if target is base:
            raise QueryError("diff queries need a non-baseline scenario")
        try:
            scenario_result = target._run_experiment(spec.experiment)
            check_deadline("diff_baseline")
            baseline_result = base._run_experiment(spec.experiment)
        except KeyError as exc:
            raise QueryError(str(exc.args[0]) if exc.args else str(exc)) from exc
        scenario_payload = scenario_result.as_payload()
        baseline_payload = baseline_result.as_payload()
        return {
            "experiment_id": spec.experiment,
            "scenario": spec.scenario_id,
            "baseline": "baseline",
            "title": scenario_payload.get("title"),
            "measured_delta": _scalar_deltas(
                scenario_payload.get("measured") or {},
                baseline_payload.get("measured") or {},
            ),
            "series_delta": _series_deltas(
                scenario_payload.get("series") or {},
                baseline_payload.get("series") or {},
            ),
            "scenario_result": scenario_payload,
            "baseline_result": baseline_payload,
        }

    def _composition_data(self, series) -> Dict[str, object]:
        points = series.points()
        return {
            "title": series.title,
            "dates": [point.date.isoformat() for point in points],
            "full": [point.full for point in points],
            "part": [point.part for point in points],
            "non": [point.non for point in points],
            "total": [point.total for point in points],
            "full_pct": [round(point.share("full"), 4) for point in points],
            "part_pct": [round(point.share("part"), 4) for point in points],
            "non_pct": [round(point.share("non"), 4) for point in points],
        }

    def _series_data(self, spec: QuerySpec) -> Dict[str, object]:
        name = spec.series
        if name in ("ns_composition", "hosting_composition", "tld_composition"):
            series = getattr(self.full_sweep(), name)
            data = self._composition_data(series)
        elif name == "sanctioned_composition":
            data = self._composition_data(self.recent_window().sanctioned_composition)
        elif name == "tld_shares":
            shares = self.full_sweep().tld_shares
            data = {
                "dates": [point.date.isoformat() for point in shares],
                "total": [point.total for point in shares],
                "shares_pct": {
                    tld: [round(value, 4) for value in shares.share_series(tld)]
                    for tld in shares.tlds_seen()
                },
            }
        elif name == "asn_shares":
            from ..experiments.context import FIG4_PROVIDERS

            series = self.recent_window().asn_shares
            catalog = self._context.catalog
            providers = {
                key: catalog.get(key).primary_asn for key in FIG4_PROVIDERS
            }
            data = {
                "dates": [day.isoformat() for day in series.dates()],
                "providers": {key: int(asn) for key, asn in providers.items()},
                "counts": {
                    key: series.count_series(asn)
                    for key, asn in providers.items()
                },
                "shares_pct": {
                    key: [round(value, 4) for value in series.share_series(asn)]
                    for key, asn in providers.items()
                },
            }
        elif name == "listed_counts":
            recent = self.recent_window()
            data = {
                "dates": [
                    point.date.isoformat()
                    for point in recent.sanctioned_composition.points()
                ],
                "listed": list(recent.listed_counts),
            }
        else:  # unreachable: QuerySpec validated the name
            raise QueryError(f"unknown series {name!r}")

        keep = _range_indices(data["dates"], spec.start, spec.end)
        if len(keep) != len(data["dates"]):
            data = _slice_columns(data, keep)
        data["series"] = name
        return data

    def _records_data(self, spec: QuerySpec) -> Dict[str, object]:
        """One page of a day's per-domain records, optionally one TLD's.

        An archive-backed context answers from the day's
        :class:`~repro.archive.shard.DayShardRecord` alone: the shard
        holds every field of a record, and its name index gives the TLD
        filter, so no world is built.  The archive was matched to the
        context's scenario by its manifest fingerprint when it was
        opened.  A live context collects the day and filters on the
        world's ``tld`` column.
        """
        date = as_date(spec.date)
        check_deadline("records_collect")
        archive = self._context.archive
        if archive is not None:
            day = archive.load_day(date)
            matched = day.measured
            if spec.tld is not None:
                matched = matched[day.tld_mask(spec.tld)]
        else:
            day = self._context.collector.collect(date)
            matched = day.measured
            if spec.tld is not None:
                tlds = self._context.world.population.tld
                matched = matched[tlds[matched] == spec.tld.encode("utf-8")]
        offset = spec.offset or 0
        limit = DEFAULT_RECORDS_LIMIT if spec.limit is None else spec.limit
        page = matched[offset : offset + limit].tolist()
        records = []
        for index in page:
            measurement = day.measurement_for(index)
            records.append(
                {
                    "index": index,
                    "domain": str(measurement.domain),
                    "domain_unicode": measurement.domain.to_unicode(),
                    "ns_names": list(measurement.ns_names),
                    "ns_addresses": [
                        format_ipv4(address)
                        for address in measurement.ns_addresses
                    ],
                    "apex_addresses": [
                        format_ipv4(address)
                        for address in measurement.apex_addresses
                    ],
                }
            )
        return {
            "date": date.isoformat(),
            "measured_total": int(len(day.measured)),
            "matched_total": len(matched),
            "offset": offset,
            "limit": limit,
            "records": records,
        }

    def _catalog_data(self) -> Dict[str, object]:
        from ..experiments.registry import EXPERIMENTS, EXTENSIONS
        from .spec import QUERY_KINDS

        return {
            "schema_version": SCHEMA_VERSION,
            "kinds": list(QUERY_KINDS),
            "experiments": sorted(EXPERIMENTS),
            "extensions": sorted(EXTENSIONS),
            "series": list(SERIES_NAMES),
            "scenarios": self.scenario_ids(),
        }


def _scalar_deltas(
    scenario: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, float]:
    """Element-wise ``scenario - baseline`` over shared numeric scalars."""
    deltas: Dict[str, float] = {}
    for key in scenario:
        left, right = scenario[key], baseline.get(key)
        if isinstance(left, bool) or isinstance(right, bool):
            continue
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            deltas[key] = round(left - right, 6)
    return deltas


def _series_deltas(
    scenario: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, List[float]]:
    """Per-point deltas for shared, equal-length numeric series columns."""
    deltas: Dict[str, List[float]] = {}
    for name in scenario:
        left, right = scenario[name], baseline.get(name)
        if (
            isinstance(left, list)
            and isinstance(right, list)
            and len(left) == len(right)
            and left
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in left + right
            )
        ):
            deltas[name] = [round(a - b, 6) for a, b in zip(left, right)]
    return deltas


def _slice_columns(data: Dict[str, object], keep: List[int]) -> Dict[str, object]:
    """Restrict every parallel column of a series payload to ``keep``."""
    length = len(data["dates"])

    def cut(value):
        if isinstance(value, list) and len(value) == length:
            return [value[position] for position in keep]
        if isinstance(value, dict):
            return {key: cut(item) for key, item in value.items()}
        return value

    return {key: cut(value) for key, value in data.items()}
