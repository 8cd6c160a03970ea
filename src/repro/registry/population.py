"""Deterministic registration churn for the ``.ru``/``.рф`` population.

The real study covers ~5 M concurrently registered names (11.7 M unique
across five years).  The generator reproduces those population dynamics at
a configurable scale: an initial cohort active on study day 0, Poisson
daily births against a slow-growth target curve, and exponential lifetimes
so the unique-to-concurrent ratio lands near the paper's ~2.3x.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..dns.idna import encode_label
from ..dns.name import DomainName, check_length, checked_alabel
from ..errors import RegistryError
from ..rng import derive_rng
from ..timeline import STUDY_DAYS, DateLike, day_index
from .domain import NEVER, DomainRecord
from .names import NameFactory, WordDraws
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
    """The generated registration history, kept as columns.

    Generation appends to plain columns (the label as generated, its
    TLD, the created and deleted study days, a registrar index) and
    builds the ``created``/``deleted``/``tld``/``is_rf`` numpy views
    straight from them.  Nothing reads most records while a world is
    built, so :meth:`record` builds each :class:`DomainRecord`, with its
    validated, IDNA-encoded :class:`DomainName`, on first read and
    caches it.  A reader that needs one name calls :meth:`name`, which
    builds the same checked :class:`DomainName` from the columns and
    keeps nothing; an archive build writing a day reads many at once as
    text through :meth:`name_texts`, checked by the same rules.  Iteration
    and :meth:`by_name` go through :meth:`record`, so every name anyone
    reads is still checked.
    """

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        self._labels, tlds, created, deleted, self._registrars = self._generate()
        self._records: List[Optional[DomainRecord]] = [None] * len(self._labels)
        self._name_index: Optional[Dict[Tuple[str, ...], int]] = None
        self.created = np.asarray(created, dtype=np.int64)
        self.deleted = np.asarray(deleted, dtype=np.int64)
        #: Per-record TLD label as ASCII bytes (A-label form, e.g.
        #: ``b"xn--p1ai"``): bytes take a quarter of a str column's memory.
        alabels = {tld: encode_label(tld).encode("ascii") for tld in set(tlds)}
        self.tld = np.asarray([alabels[tld] for tld in tlds])
        self.is_rf = self.tld == TLD_RF.encode("ascii")

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def _generate(
        self,
    ) -> Tuple[List[str], List[str], List[int], List[int], List[int]]:
        """The label, TLD, created, deleted and registrar-index columns.

        Per domain the population generator draws ``random()`` (the
        TLD), ``exponential`` (the lifetime) and ``integers`` (the
        registrar), in that order; the initial cohort draws its age
        first, and each study day draws its birth count.  The ``random``
        and ``integers`` draws are replayed over raw words
        (:class:`~repro.registry.names.WordDraws`), so they equal numpy's
        per-call draws while numpy's own ``exponential``/``poisson``
        calls interleave on the same generator.  The labels come from a
        separate generator, drawn as one column once every TLD is known.
        """
        cfg = self.config
        rng = derive_rng(cfg.seed, "registry", "population")
        draws = WordDraws(rng)
        random, integers = draws.random, draws.integers
        exponential = rng.exponential
        created: List[int] = []
        deleted: List[int] = []
        registrars: List[int] = []
        cyrillic: List[bool] = []
        rf_share = cfg.rf_share
        lifetime_scale = 1.0 / max(cfg.daily_death_rate, 1e-9)
        last_day = cfg.horizon_days + 365
        registrar_count = len(cfg.registrars)

        # Reserved names first: stable, pre-study, never deleted.
        reserved = len(cfg.reserved_names)
        created.extend([-2000] * reserved)
        deleted.extend([NEVER] * reserved)
        registrars.extend(index % registrar_count for index in range(reserved))

        def draw(created_days: Iterable[int]) -> None:
            for created_day in created_days:
                cyrillic.append(random() < rf_share)
                deleted_day = created_day + 1 + int(exponential(lifetime_scale))
                created.append(created_day)
                deleted.append(NEVER if deleted_day > last_day else deleted_day)
                registrars.append(integers(registrar_count))

        # Initial cohort: registered before the study window opened (each
        # age is drawn just before that domain's own draws).
        draw(-(int(exponential(900.0)) + 1) for _ in range(cfg.initial_count))
        # Their deletion days were drawn relative to creation; resurrect any
        # that died before day 0 (they must be active when the study opens).
        for index, deleted_day in enumerate(deleted):
            if deleted_day <= 0:
                deleted[index] = 1 + int(exponential(lifetime_scale))

        # Daily births against a slow exponential growth target.
        net = cfg.daily_birth_rate - cfg.daily_death_rate
        for day in range(cfg.horizon_days):
            target_active = cfg.initial_count * math.exp(net * day)
            expected = cfg.daily_birth_rate * target_active
            draw(repeat(day, int(rng.poisson(expected))))

        names = NameFactory(derive_rng(cfg.seed, "registry", "names"))
        labels = [label for label, _ in cfg.reserved_names] + names.labels(cyrillic)
        tlds = [tld for _, tld in cfg.reserved_names] + [
            TLD_RF if rf else TLD_RU for rf in cyrillic
        ]
        return labels, tlds, created, deleted, registrars

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DomainRecord]:
        return map(self.record, range(len(self._records)))

    def record(self, index: int) -> DomainRecord:
        """The record with the given index (built on first read, then cached).

        For readers that need the registrar, registrant or lifetime, and
        for ones that read the same record again (whois, zone files,
        movement sampling).  A reader that needs only the name calls
        :meth:`name` instead, so the record is never built.
        """
        record = self._records[index]
        if record is None:
            # Two threads racing here build equal records; one is kept.
            index = range(len(self._records))[index]
            record = DomainRecord(
                self.name(index),
                index,
                int(self.created[index]),
                int(self.deleted[index]),
                registrar=self.config.registrars[self._registrars[index]],
                registrant=f"org-{index:06d}",
            )
            self._records[index] = record
        return record

    def name(self, index: int) -> DomainName:
        """The name of the record with the given index, built and not kept.

        Read straight from the label and TLD columns; each call
        validates and IDNA-encodes again, and equals
        ``record(index).name``.
        """
        return DomainName((self._labels[index], self.tld[index].decode("ascii")))

    def name_texts(self, indices: Sequence[int]) -> List[str]:
        """The dotted A-label names of the records at ``indices``, as text.

        Each equals ``str(name(index))`` and is checked by the same
        rules (:func:`~repro.dns.name.checked_alabel`, the 253-octet
        limit), so an invalid label raises
        :class:`~repro.errors.InvalidDomainName` here as well; but no
        :class:`DomainName` is built, and each distinct TLD is checked
        once per call.
        """
        labels = self._labels
        tlds = self.tld[np.asarray(indices, dtype=np.int64)].tolist()
        alabels = {tld: checked_alabel(tld.decode("ascii")) for tld in set(tlds)}
        texts = []
        for index, tld in zip(indices, tlds):
            text = f"{checked_alabel(labels[index])}.{alabels[tld]}"
            if len(text) > 253:  # what check_length refuses, counted cheaply
                check_length(tuple(text.split(".")))
            texts.append(text)
        return texts

    def by_name(self, name: DomainName) -> DomainRecord:
        """Find a record by domain name.

        The name → index map is built on the first lookup from the label
        and TLD columns (the A-label tuples :class:`DomainName` compares
        by); the lowest index wins a repeated name.
        """
        if self._name_index is None:
            index: Dict[Tuple[str, ...], int] = {}
            tlds = [tld.decode("ascii") for tld in self.tld.tolist()]
            for position, key in enumerate(zip(map(encode_label, self._labels), tlds)):
                index.setdefault(key, position)
            self._name_index = index
        position = self._name_index.get(name.labels)
        if position is None:
            raise RegistryError(f"unknown domain: {name}")
        return self.record(position)

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
