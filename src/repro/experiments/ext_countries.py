"""Extension: per-country hosting shifts ("flight to Russia and the NL").

Section 3.2 attributes post-invasion hosting movement to "flight from the
US and other Western countries to a combination of Russia and the
Netherlands".  This experiment measures per-country hosting presence
through the conflict window.
"""

from __future__ import annotations

from ..core.countrydist import collect_country_shares
from ..timeline import RECENT_WINDOW_START, STUDY_END
from .base import ExperimentResult
from .context import ExperimentContext
from .render import fmt_pct, sparkline

__all__ = ["run"]

_TRACKED = ("RU", "US", "DE", "NL", "SE", "FR")


def run(context: ExperimentContext) -> ExperimentResult:
    """Per-country hosting shares, 2022-02-22 .. 2022-05-25, daily."""
    snapshots = context.collector.sweep(RECENT_WINDOW_START, STUDY_END, 1)
    series = collect_country_shares(snapshots, kind="hosting")

    result = ExperimentResult(
        "countries",
        "Hosting presence by country through the conflict (extension)",
        "Section 3.2 (prose), quantified",
    )
    result.add_series("date", [p.date.isoformat() for p in series])
    for country in _TRACKED:
        result.add_series(
            f"{country}_pct", [round(v, 2) for v in series.share_series(country)]
        )

    result.measured = {
        "ru_change_pp": round(series.net_change("RU"), 2),
        "nl_change_pp": round(series.net_change("NL"), 2),
        "us_change_pp": round(series.net_change("US"), 2),
        "de_change_pp": round(series.net_change("DE"), 2),
    }
    result.paper = {
        "ru_change_pp": "positive (flight to Russia)",
        "nl_change_pp": "positive (flight to the Netherlands)",
        "us_change_pp": "negative (Western providers shunned/left)",
        "de_change_pp": "negative (Sedo and Hetzner exits)",
    }

    for country in _TRACKED:
        values = series.share_series(country)
        result.sections.append(
            f"{country}: " + sparkline(values)
            + f"  ({fmt_pct(values[0])} -> {fmt_pct(values[-1])})"
        )
    return result
