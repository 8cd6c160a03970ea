"""Deterministic registration churn for the ``.ru``/``.рф`` population.

The real study covers ~5 M concurrently registered names (11.7 M unique
across five years).  The generator reproduces those population dynamics at
a configurable scale: an initial cohort active on study day 0, Poisson
daily births against a slow-growth target curve, and exponential lifetimes
so the unique-to-concurrent ratio lands near the paper's ~2.3x.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..dns.name import DomainName
from ..errors import RegistryError
from ..rng import derive_rng
from ..timeline import STUDY_DAYS, DateLike, day_index
from .domain import NEVER, DomainRecord
from .names import NameFactory
from .tld import TLD_RF, TLD_RU

__all__ = ["PopulationConfig", "DomainPopulation"]


class PopulationConfig:
    """Knobs for the population generator."""

    def __init__(
        self,
        seed: int = 20220224,
        initial_count: int = 10_000,
        rf_share: float = 0.04,
        daily_birth_rate: float = 7.2e-4,
        daily_death_rate: float = 7.0e-4,
        horizon_days: int = STUDY_DAYS,
        registrars: Sequence[str] = (
            "REG.RU", "RU-CENTER", "Beget", "Timeweb", "Rusonyx", "Webnames",
        ),
        reserved_names: Sequence[Tuple[str, str]] = (),
    ) -> None:
        if initial_count < 1:
            raise RegistryError(f"initial_count must be positive: {initial_count}")
        if not 0.0 <= rf_share <= 1.0:
            raise RegistryError(f"rf_share out of range: {rf_share}")
        if daily_birth_rate < 0 or daily_death_rate < 0:
            raise RegistryError("rates must be non-negative")
        self.seed = seed
        self.initial_count = initial_count
        self.rf_share = rf_share
        self.daily_birth_rate = daily_birth_rate
        self.daily_death_rate = daily_death_rate
        self.horizon_days = horizon_days
        self.registrars = tuple(registrars)
        #: (label, tld) pairs registered long before the study and never
        #: deleted; they occupy indices 0..len-1 so scenarios can address
        #: them directly (the sanctioned-domain set uses this).
        self.reserved_names = tuple(reserved_names)


class DomainPopulation:
    """The generated registration history, with columnar views."""

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        self._records: List[DomainRecord] = []
        self._generate()
        self.created = np.asarray(
            [rec.created_day for rec in self._records], dtype=np.int64
        )
        self.deleted = np.asarray(
            [rec.deleted_day for rec in self._records], dtype=np.int64
        )
        #: Per-record TLD label as ASCII bytes (A-label form, e.g.
        #: ``b"xn--p1ai"``): bytes take a quarter of a str column's memory.
        self.tld = np.asarray(
            [rec.name.tld.encode("ascii") for rec in self._records]
        )
        self.is_rf = self.tld == TLD_RF.encode("ascii")

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def _generate(self) -> None:
        cfg = self.config
        rng = derive_rng(cfg.seed, "registry", "population")
        names = NameFactory(derive_rng(cfg.seed, "registry", "names"))

        def make_record(created_day: int) -> None:
            index = len(self._records)
            is_rf = rng.random() < cfg.rf_share
            tld = TLD_RF if is_rf else TLD_RU
            label = names.next_cyrillic() if is_rf else names.next_ascii()
            lifetime = 1 + int(rng.exponential(1.0 / max(cfg.daily_death_rate, 1e-9)))
            deleted_day = created_day + lifetime
            if deleted_day > cfg.horizon_days + 365:
                deleted_day = NEVER
            registrar = cfg.registrars[int(rng.integers(0, len(cfg.registrars)))]
            self._records.append(
                DomainRecord(
                    DomainName((label, tld)),
                    index,
                    created_day,
                    deleted_day,
                    registrar=registrar,
                    registrant=f"org-{index:06d}",
                )
            )

        # Reserved names first: stable, pre-study, never deleted.
        for label, tld in cfg.reserved_names:
            index = len(self._records)
            self._records.append(
                DomainRecord(
                    DomainName((label, tld)),
                    index,
                    created_day=-2000,
                    deleted_day=NEVER,
                    registrar=cfg.registrars[index % len(cfg.registrars)],
                    registrant=f"org-{index:06d}",
                )
            )

        # Initial cohort: registered before the study window opened.
        for _ in range(cfg.initial_count):
            age = int(rng.exponential(900.0)) + 1
            make_record(-age)
        # Their deletion days were drawn relative to creation; resurrect any
        # that died before day 0 (they must be active when the study opens).
        for rec in self._records:
            if rec.deleted_day <= 0:
                rec.deleted_day = 1 + int(
                    rng.exponential(1.0 / max(cfg.daily_death_rate, 1e-9))
                )

        # Daily births against a slow exponential growth target.
        net = cfg.daily_birth_rate - cfg.daily_death_rate
        for day in range(cfg.horizon_days):
            target_active = cfg.initial_count * math.exp(net * day)
            expected = cfg.daily_birth_rate * target_active
            for _ in range(int(rng.poisson(expected))):
                make_record(day)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DomainRecord]:
        return iter(self._records)

    def record(self, index: int) -> DomainRecord:
        """The record with the given index."""
        return self._records[index]

    def by_name(self, name: DomainName) -> DomainRecord:
        """Find a record by domain name (linear; for tests and whois)."""
        for rec in self._records:
            if rec.name == name:
                return rec
        raise RegistryError(f"unknown domain: {name}")

    def active_mask(self, date: DateLike) -> np.ndarray:
        """Boolean mask of records active on ``date``."""
        day = day_index(date)
        return (self.created <= day) & (day < self.deleted)

    def active_count(self, date: DateLike) -> int:
        """Number of active registrations on ``date``."""
        return int(self.active_mask(date).sum())

    def active_indices(self, date: DateLike) -> np.ndarray:
        """Indices of records active on ``date``."""
        return np.flatnonzero(self.active_mask(date))

    def unique_count(self) -> int:
        """Total unique registrations across the whole horizon."""
        return len(self._records)
