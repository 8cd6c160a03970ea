"""Geolocation substrate: countries, range databases, versioned service."""

from .countries import COUNTRY_NAMES, RU, validate_country
from .database import GeoDatabase, GeoDatabaseBuilder, GeoRange, with_override
from .service import GeoService

__all__ = [
    "COUNTRY_NAMES",
    "RU",
    "validate_country",
    "GeoDatabase",
    "GeoDatabaseBuilder",
    "GeoRange",
    "GeoService",
    "with_override",
]
