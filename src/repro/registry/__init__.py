"""Registry substrate: domain lifecycle, population churn, zone seeds, whois."""

from .domain import NEVER, DomainRecord
from .names import NameFactory
from .population import DomainPopulation, PopulationConfig
from .tld import (
    RUSSIAN_TLDS,
    STUDY_TLDS,
    TLD_RF,
    TLD_RU,
    TLD_SU,
    is_russian_tld,
)
from .whois import WhoisRecord, WhoisService
from .zonefile import ZoneFileService, ZoneFileSnapshot

__all__ = [
    "NEVER",
    "DomainRecord",
    "NameFactory",
    "DomainPopulation",
    "PopulationConfig",
    "RUSSIAN_TLDS",
    "STUDY_TLDS",
    "TLD_RF",
    "TLD_RU",
    "TLD_SU",
    "is_russian_tld",
    "WhoisRecord",
    "WhoisService",
    "ZoneFileService",
    "ZoneFileSnapshot",
]
