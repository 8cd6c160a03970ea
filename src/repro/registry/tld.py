"""TLD constants for the study.

The measured population is every domain under the Russian Federation
ccTLDs ``.ru`` and ``.рф`` (A-label ``xn--p1ai``).  For the *name-server TLD
dependency* analysis, a TLD counts as Russian when it is administered by
the Russian Federation — which adds the legacy Soviet ``.su`` zone.
"""

from __future__ import annotations

from typing import Optional

from ..dns.idna import to_ascii

__all__ = [
    "TLD_RU",
    "TLD_RF",
    "TLD_SU",
    "STUDY_TLDS",
    "RUSSIAN_TLDS",
    "is_russian_tld",
]

#: The ``.ru`` ccTLD label.
TLD_RU = "ru"
#: The ``.рф`` ccTLD label in A-label form.
TLD_RF = "xn--p1ai"
#: The legacy ``.su`` ccTLD label (administered from Russia).
TLD_SU = "su"

#: TLDs whose registrations constitute the measured population.
STUDY_TLDS = frozenset({TLD_RU, TLD_RF})
#: TLDs counted as Russian in the NS TLD-dependency analysis.
RUSSIAN_TLDS = frozenset({TLD_RU, TLD_RF, TLD_SU})


def is_russian_tld(tld: Optional[str]) -> bool:
    """True when the (Unicode or A-label) TLD is Russian-administered."""
    if tld is None:
        return False
    return to_ascii(tld.lower().lstrip(".")) in RUSSIAN_TLDS
