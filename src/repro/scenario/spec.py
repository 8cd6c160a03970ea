"""Declarative, seed-pure scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of one world: the
config knobs (scale, seed, netnod handling, sanctioned-domain census)
plus a ``world`` block of counterfactual deltas (conflict on/off,
migration intensity, provider exits, extra flows/pulses, sanction
waves).  Specs are JSON round-trippable, canonically ordered, and carry
no randomness of their own — :meth:`ScenarioSpec.compile` folds them
into a :class:`~repro.sim.conflict.ConflictScenarioConfig` whose RNG
streams are derived from the seed exactly as before, so the same spec
builds bit-identical worlds in any process.

This mirrors what :class:`repro.faults.FaultPlan` did for fault
injection: intent lives in a declarative object, mechanics stay in the
simulator.  The ``baseline`` spec compiles to a config with no variant
at all, which is the byte-identity contract the archive digest tests
pin.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..sim.conflict import ConflictScenarioConfig
from ..sim.events import Field
from ..sim.flows import Flow, Pulse
from ..sim.variant import ScenarioVariant
from ..timeline import as_date

__all__ = ["ScenarioSpec", "ProviderExit", "FlowSpec", "PulseSpec", "WaveSpec"]

#: Canonical scenario ids: kebab-case, led by a letter or digit.
_ID_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]{0,63}$")

_FIELD_NAMES = {"dns": Field.DNS, "hosting": Field.HOSTING}

#: Config knobs a spec may carry (subset of ConflictScenarioConfig).
_CONFIG_KEYS = (
    "scale", "seed", "geo_lag_days", "netnod_mode", "with_pki",
    "sanctioned_domain_count",
)


def _iso(value, field: str) -> str:
    try:
        return as_date(value).isoformat()
    except Exception as exc:
        raise ScenarioError(f"bad {field!r} date {value!r}: {exc}") from exc


def _require_keys(payload: Dict, known: Sequence[str], where: str) -> None:
    if not isinstance(payload, dict):
        raise ScenarioError(f"{where} must be an object, got {type(payload).__name__}")
    unknown = set(payload) - set(known)
    if unknown:
        raise ScenarioError(f"unknown {where} field(s): {', '.join(sorted(unknown))}")


class FlowSpec:
    """Declarative form of one gradual :class:`~repro.sim.flows.Flow`."""

    __slots__ = ("field", "sources", "dest", "total_pp", "start", "end")

    def __init__(self, field, sources, dest, total_pp, start, end) -> None:
        if field not in _FIELD_NAMES:
            raise ScenarioError(f"flow field must be dns/hosting, got {field!r}")
        self.field = field
        self.sources = tuple(str(source) for source in sources)
        self.dest = str(dest)
        self.total_pp = float(total_pp)
        self.start = _iso(start, "flow start")
        self.end = _iso(end, "flow end")
        if not self.sources:
            raise ScenarioError("flow needs at least one source plan")
        if self.total_pp <= 0:
            raise ScenarioError(f"flow total_pp must be positive: {self.total_pp}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "field": self.field, "sources": list(self.sources),
            "dest": self.dest, "total_pp": self.total_pp,
            "start": self.start, "end": self.end,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowSpec":
        _require_keys(payload, ("field", "sources", "dest", "total_pp", "start", "end"),
                      "flow")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ScenarioError(f"malformed flow spec: {exc}") from exc

    def resolve(self) -> Flow:
        return Flow(
            _FIELD_NAMES[self.field], self.sources, self.dest,
            self.total_pp, self.start, self.end,
        )


class PulseSpec:
    """Declarative form of one instantaneous :class:`~repro.sim.flows.Pulse`."""

    __slots__ = ("field", "sources", "dest", "day", "fraction", "count")

    def __init__(self, field, sources, dest, day, fraction=None, count=None) -> None:
        if field not in _FIELD_NAMES:
            raise ScenarioError(f"pulse field must be dns/hosting, got {field!r}")
        self.field = field
        self.sources = tuple(str(source) for source in sources)
        self.dest = str(dest)
        self.day = _iso(day, "pulse day")
        self.fraction = float(fraction) if fraction is not None else None
        self.count = int(count) if count is not None else None
        if not self.sources:
            raise ScenarioError("pulse needs at least one source plan")
        self.resolve()  # Pulse owns the fraction/count rules

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "field": self.field, "sources": list(self.sources),
            "dest": self.dest, "day": self.day,
        }
        if self.fraction is not None:
            payload["fraction"] = self.fraction
        if self.count is not None:
            payload["count"] = self.count
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PulseSpec":
        _require_keys(payload, ("field", "sources", "dest", "day", "fraction", "count"),
                      "pulse")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ScenarioError(f"malformed pulse spec: {exc}") from exc

    def resolve(self) -> Pulse:
        return Pulse(
            _FIELD_NAMES[self.field], self.sources, self.dest, self.day,
            fraction=self.fraction, count=self.count,
        )


class ProviderExit:
    """One provider leaving the Russian market on a date.

    Compiles to a DNS flow (``<provider>_dns`` plan to ``dns_refuge``, if
    the provider has a single-provider DNS plan) and a hosting flow
    (``<provider>_h`` to ``hosting_refuge``), each moving ``*_pp``
    percentage points of the population over ``duration_days``.
    """

    __slots__ = (
        "provider", "date", "dns_refuge", "hosting_refuge",
        "dns_pp", "hosting_pp", "duration_days",
    )

    def __init__(
        self,
        provider: str,
        date,
        dns_refuge: str = "rucenter_dns",
        hosting_refuge: str = "timeweb_h",
        dns_pp: float = 1.0,
        hosting_pp: float = 1.0,
        duration_days: int = 21,
    ) -> None:
        self.provider = str(provider)
        self.date = _iso(date, "exit date")
        self.dns_refuge = str(dns_refuge)
        self.hosting_refuge = str(hosting_refuge)
        self.dns_pp = float(dns_pp)
        self.hosting_pp = float(hosting_pp)
        self.duration_days = int(duration_days)
        if self.duration_days < 1:
            raise ScenarioError(f"exit duration must be >= 1 day: {duration_days}")
        if self.dns_pp < 0 or self.hosting_pp < 0:
            raise ScenarioError("exit pp values must be >= 0")

    def as_dict(self) -> Dict[str, object]:
        return {
            "provider": self.provider, "date": self.date,
            "dns_refuge": self.dns_refuge, "hosting_refuge": self.hosting_refuge,
            "dns_pp": self.dns_pp, "hosting_pp": self.hosting_pp,
            "duration_days": self.duration_days,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProviderExit":
        _require_keys(
            payload,
            ("provider", "date", "dns_refuge", "hosting_refuge",
             "dns_pp", "hosting_pp", "duration_days"),
            "provider exit",
        )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ScenarioError(f"malformed provider exit: {exc}") from exc

    def resolve(self, dns_plan_keys, hosting_plan_keys) -> Tuple[List[Flow], List[Pulse]]:
        start = as_date(self.date)
        end = start + _dt.timedelta(days=self.duration_days)
        flows: List[Flow] = []
        dns_plan = f"{self.provider}_dns"
        if self.dns_pp > 0 and dns_plan in dns_plan_keys:
            flows.append(Flow(Field.DNS, [dns_plan], self.dns_refuge,
                              self.dns_pp, start, end))
        hosting_plan = f"{self.provider}_h"
        if self.hosting_pp > 0 and hosting_plan in hosting_plan_keys:
            flows.append(Flow(Field.HOSTING, [hosting_plan], self.hosting_refuge,
                              self.hosting_pp, start, end))
        if not flows:
            raise ScenarioError(
                f"provider exit {self.provider!r} resolves to no flows "
                f"(no {dns_plan!r}/{hosting_plan!r} plan, or zero pp)"
            )
        return flows, []


class WaveSpec:
    """One sanctions designation wave: a date and a domain count."""

    __slots__ = ("date", "count")

    def __init__(self, date, count) -> None:
        self.date = _iso(date, "wave date")
        self.count = int(count)
        if self.count < 1:
            raise ScenarioError(f"wave count must be >= 1: {count}")

    def as_dict(self) -> List[object]:
        return [self.date, self.count]

    @classmethod
    def from_item(cls, payload) -> "WaveSpec":
        if isinstance(payload, dict):
            _require_keys(payload, ("date", "count"), "sanction wave")
            return cls(payload.get("date"), payload.get("count", 0))
        try:
            date, count = payload
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"sanction wave must be [date, count], got {payload!r}"
            ) from exc
        return cls(date, count)


class ScenarioSpec:
    """One named, declarative counterfactual scenario.

    ``name`` is the canonical id the archive fingerprint, the query
    API's ``scenario`` dimension, and the CLI all use.  The reserved
    name ``baseline`` may only describe the delta-free historical world.
    """

    __slots__ = (
        "name", "title", "description",
        "scale", "seed", "geo_lag_days", "netnod_mode", "with_pki",
        "sanctioned_domain_count",
        "conflict", "migration_intensity", "provider_exits",
        "extra_flows", "extra_pulses", "sanction_waves", "notes",
    )

    def __init__(
        self,
        name: str,
        title: str = "",
        description: str = "",
        scale: float = 250.0,
        seed: int = 20220224,
        geo_lag_days: int = 0,
        netnod_mode: str = "renumber",
        with_pki: bool = True,
        sanctioned_domain_count: int = 107,
        conflict: bool = True,
        migration_intensity: float = 1.0,
        provider_exits: Sequence[ProviderExit] = (),
        extra_flows: Sequence[FlowSpec] = (),
        extra_pulses: Sequence[PulseSpec] = (),
        sanction_waves: Optional[Sequence[WaveSpec]] = None,
        notes: Sequence[Tuple[str, str, str]] = (),
    ) -> None:
        if not _ID_PATTERN.match(str(name)):
            raise ScenarioError(
                f"scenario name {name!r} is not a canonical id "
                "(kebab-case: [a-z0-9][a-z0-9-]*, max 64 chars)"
            )
        self.name = str(name)
        self.title = str(title)
        self.description = str(description)
        self.scale = float(scale)
        self.seed = int(seed)
        self.geo_lag_days = int(geo_lag_days)
        self.netnod_mode = str(netnod_mode)
        self.with_pki = bool(with_pki)
        self.sanctioned_domain_count = int(sanctioned_domain_count)
        self.conflict = bool(conflict)
        self.migration_intensity = float(migration_intensity)
        self.provider_exits = tuple(provider_exits)
        self.extra_flows = tuple(extra_flows)
        self.extra_pulses = tuple(extra_pulses)
        self.sanction_waves = (
            None if sanction_waves is None else tuple(sanction_waves)
        )
        self.notes = tuple(
            (_iso(date, "note date"), str(actor), str(text))
            for date, actor, text in notes
        )
        if self.migration_intensity <= 0:
            raise ScenarioError(
                f"migration_intensity must be positive: {migration_intensity}"
            )
        if self.name == "baseline" and self.has_deltas():
            # The one reserved name: "baseline" is the identity scenario
            # whose archives must stay byte-identical to historical ones,
            # so it cannot carry world deltas under that name.
            raise ScenarioError(
                "the 'baseline' scenario cannot carry world deltas; "
                "give a counterfactual its own name"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def has_deltas(self) -> bool:
        """True when the world block departs from the calibrated history."""
        return (
            not self.conflict
            or self.migration_intensity != 1.0
            or bool(self.provider_exits)
            or bool(self.extra_flows)
            or bool(self.extra_pulses)
            or self.sanction_waves is not None
        )

    def to_dict(self) -> Dict[str, object]:
        """Canonical nested dict (every key present, stable order)."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "config": {
                "scale": self.scale,
                "seed": self.seed,
                "geo_lag_days": self.geo_lag_days,
                "netnod_mode": self.netnod_mode,
                "with_pki": self.with_pki,
                "sanctioned_domain_count": self.sanctioned_domain_count,
            },
            "world": {
                "conflict": self.conflict,
                "migration_intensity": self.migration_intensity,
                "provider_exits": [exit.as_dict() for exit in self.provider_exits],
                "extra_flows": [flow.as_dict() for flow in self.extra_flows],
                "extra_pulses": [pulse.as_dict() for pulse in self.extra_pulses],
                "sanction_waves": (
                    None if self.sanction_waves is None
                    else [wave.as_dict() for wave in self.sanction_waves]
                ),
                "notes": [list(note) for note in self.notes],
            },
        }

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, compact)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable identity of the *world deltas* (config knobs excluded).

        Two specs that build the same world at different scales share
        runtime parameters but not worlds, so scale/seed/etc. live in
        the fingerprint's own fields; the digest covers only what the
        declarative world block adds on top.
        """
        payload = self.to_dict()["world"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        _require_keys(payload, ("name", "title", "description", "config", "world"),
                      "scenario spec")
        if "name" not in payload:
            raise ScenarioError("scenario spec needs a 'name'")
        config = dict(payload.get("config") or {})
        _require_keys(config, _CONFIG_KEYS, "scenario config")
        world = dict(payload.get("world") or {})
        _require_keys(
            world,
            ("conflict", "migration_intensity", "provider_exits",
             "extra_flows", "extra_pulses", "sanction_waves", "notes"),
            "scenario world",
        )
        waves = world.get("sanction_waves")
        return cls(
            name=payload["name"],
            title=payload.get("title", ""),
            description=payload.get("description", ""),
            **config,
            conflict=world.get("conflict", True),
            migration_intensity=world.get("migration_intensity", 1.0),
            provider_exits=[
                ProviderExit.from_dict(item)
                for item in world.get("provider_exits", ())
            ],
            extra_flows=[
                FlowSpec.from_dict(item) for item in world.get("extra_flows", ())
            ],
            extra_pulses=[
                PulseSpec.from_dict(item) for item in world.get("extra_pulses", ())
            ],
            sanction_waves=(
                None if waves is None
                else [WaveSpec.from_item(item) for item in waves]
            ),
            notes=world.get("notes", ()),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"scenario spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a spec from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario spec {path}: {exc}") from exc
        return cls.from_json(text)

    @classmethod
    def resolve(cls, name_or_path: str) -> "ScenarioSpec":
        """The one entry point call sites use: library id or JSON file path.

        A canonical id resolves through the shipped library; anything
        with a path separator or ``.json`` suffix loads from disk.
        """
        text = str(name_or_path)
        if "/" in text or text.endswith(".json"):
            return cls.load(text)
        from .library import get_scenario

        return get_scenario(text)

    def with_config(self, **overrides) -> "ScenarioSpec":
        """A copy with runtime config knobs replaced (scale, seed, ...)."""
        unknown = set(overrides) - set(_CONFIG_KEYS)
        if unknown:
            raise ScenarioError(
                f"unknown config override(s): {', '.join(sorted(unknown))}"
            )
        payload = self.to_dict()
        payload["config"].update(
            {key: value for key, value in overrides.items() if value is not None}
        )
        return type(self).from_dict(payload)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def compile(self) -> ConflictScenarioConfig:
        """Fold the spec into a :class:`ConflictScenarioConfig`.

        The baseline spec compiles with ``variant=None`` — the identical
        config an ad-hoc ``ConflictScenarioConfig(...)`` call produced
        before the scenario engine, which is the byte-identity contract.
        """
        variant = self._variant()
        return ConflictScenarioConfig(
            scale=self.scale,
            seed=self.seed,
            geo_lag_days=self.geo_lag_days,
            netnod_mode=self.netnod_mode,
            with_pki=self.with_pki,
            sanctioned_domain_count=self.sanctioned_domain_count,
            variant=variant,
            scenario_id=self.name,
            spec_digest=self.digest() if self.name != "baseline" else None,
        )

    def build(self):
        """Compile and build the world (convenience for library callers)."""
        from ..sim.conflict import build_scenario

        return build_scenario(self.compile())

    def _variant(self) -> Optional[ScenarioVariant]:
        if not self.has_deltas():
            return None
        extra_flows: List[Flow] = []
        extra_pulses: List[Pulse] = []
        if self.provider_exits:
            dns_keys, hosting_keys = _plan_keys()
            for exit in self.provider_exits:
                flows, pulses = exit.resolve(dns_keys, hosting_keys)
                extra_flows.extend(flows)
                extra_pulses.extend(pulses)
        extra_flows.extend(flow.resolve() for flow in self.extra_flows)
        extra_pulses.extend(pulse.resolve() for pulse in self.extra_pulses)
        waves = (
            None if self.sanction_waves is None
            else [(as_date(wave.date), wave.count) for wave in self.sanction_waves]
        )
        notes = [(as_date(date), actor, text) for date, actor, text in self.notes]
        return ScenarioVariant(
            conflict=self.conflict,
            intensity=self.migration_intensity,
            extra_flows=extra_flows,
            extra_pulses=extra_pulses,
            sanction_waves=waves,
            notes=notes,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.to_json())

    def __repr__(self) -> str:
        return f"ScenarioSpec({self.name!r}, digest={self.digest()})"


_PLAN_KEYS: Optional[Tuple[frozenset, frozenset]] = None


def _plan_keys() -> Tuple[frozenset, frozenset]:
    """The standard plan-table keys, for fail-fast exit validation."""
    global _PLAN_KEYS
    if _PLAN_KEYS is None:
        from ..providers.catalog import standard_catalog
        from ..sim.conflict import _dns_plans, _hosting_plans

        catalog = standard_catalog()
        _PLAN_KEYS = (
            frozenset(plan.key for plan in _dns_plans(catalog).plans()),
            frozenset(plan.key for plan in _hosting_plans(catalog).plans()),
        )
    return _PLAN_KEYS
