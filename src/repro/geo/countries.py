"""Country codes used throughout the simulation.

A tiny ISO-3166-alpha-2 subset covering every country the paper mentions,
and the code of the one country the analysis pivots on.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["RU", "COUNTRY_NAMES", "validate_country"]

#: The Russian Federation, the pivot of the whole analysis.
RU = "RU"

#: Display names for the countries appearing in the scenario.
COUNTRY_NAMES: Dict[str, str] = {
    "RU": "Russian Federation",
    "US": "United States",
    "DE": "Germany",
    "NL": "Netherlands",
    "SE": "Sweden",
    "FR": "France",
    "GB": "United Kingdom",
    "CZ": "Czech Republic",
    "EE": "Estonia",
    "PL": "Poland",
    "UA": "Ukraine",
    "FI": "Finland",
    "SG": "Singapore",
    "JP": "Japan",
    "CA": "Canada",
    "CH": "Switzerland",
    "LT": "Lithuania",
    "TR": "Turkey",
    "KZ": "Kazakhstan",
    "BY": "Belarus",
}


def validate_country(code: str) -> str:
    """Return ``code`` if it looks like an ISO alpha-2 code; raise otherwise."""
    if len(code) != 2 or not code.isalpha() or not code.isupper():
        raise ValueError(f"not an ISO alpha-2 country code: {code!r}")
    return code

