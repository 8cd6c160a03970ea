#!/usr/bin/env python3
"""Counterfactual: what if Cloudflare had exited the Russian market?

The paper notes Cloudflare explicitly chose to keep serving Russia
("Russia needs more Internet access, not less").  This example writes
the counterfactual as an ad-hoc ``ScenarioSpec`` — the historical
timeline plus Cloudflare terminating Russian customers on April 1,
2022 — and measures how much further the "fully Russian name service"
share would have jumped, using the *unchanged* analysis pipeline.
"""

import datetime as dt

from repro.archive import summarize_snapshot
from repro.core.reducers import merge_full_sweep
from repro.measurement import FastCollector
from repro.scenario import PulseSpec, ScenarioSpec

WINDOW = (dt.date(2022, 3, 1), dt.date(2022, 5, 25))
EXIT_DAY = dt.date(2022, 4, 1)
CONFIG = dict(scale=1000.0, with_pki=False)


def full_share_series(world):
    collector = FastCollector(world)
    summaries = [
        summarize_snapshot(snapshot)
        for snapshot in collector.sweep(WINDOW[0], WINDOW[1], 7)
    ]
    return merge_full_sweep(summaries).ns_composition


def main() -> None:
    print("building baseline (historical) and counterfactual worlds ...\n")
    baseline = ScenarioSpec("baseline", **CONFIG).build()

    counterfactual = ScenarioSpec(
        "cloudflare-exit",
        title="Cloudflare leaves the Russian market",
        **CONFIG,
        extra_pulses=[
            PulseSpec("dns", ["cloudflare_dns"], "regru_dns", EXIT_DAY,
                      fraction=1.0),
            PulseSpec("dns", ["ru_plus_cloudflare"], "rucenter_dns", EXIT_DAY,
                      fraction=1.0),
            PulseSpec("hosting", ["cloudflare_h"], "timeweb_h", EXIT_DAY,
                      fraction=1.0),
        ],
        notes=[
            (EXIT_DAY, "Cloudflare", "terminates Russian DNS customers"),
            (EXIT_DAY, "Cloudflare",
             "secondary-NS customers drop the Cloudflare leg"),
            (EXIT_DAY, "Cloudflare", "Cloudflare-hosted sites repatriate"),
        ],
    ).build()
    print(counterfactual.manifest.render())
    print()

    base_series = full_share_series(baseline)
    cf_series = full_share_series(counterfactual)

    print(f"{'date':12s} {'baseline full%':>15s} {'counterfactual':>15s} {'delta':>7s}")
    for base_point, cf_point in zip(base_series, cf_series):
        delta = cf_point.share("full") - base_point.share("full")
        marker = "  <- exit" if base_point.date >= EXIT_DAY and delta > 1 else ""
        print(
            f"{base_point.date!s:12s} {base_point.share('full'):14.1f}% "
            f"{cf_point.share('full'):14.1f}% {delta:+6.1f}{marker}"
        )

    final_delta = cf_series.last().share("full") - base_series.last().share("full")
    print(
        f"\na full Cloudflare exit would have pushed fully-Russian name "
        f"service up another {final_delta:.1f} pp —\n"
        "on top of the paper's measured +6.9 pp, illustrating how much the "
        "decision of a single\nprovider matters at this concentration."
    )


if __name__ == "__main__":
    main()
