"""The experiment registry: every paper artefact, one place, one shape.

Every registered runner is a figure module's ``run(context) ->
ExperimentResult``: the artefact that renders as text
(``render()``), exports CSV (``write_csv()``) and carries its
machine-readable payload (``as_payload()``).  Only the query facade
wraps it, in the versioned :class:`~repro.api.spec.QueryResult`
envelope (``context.api.query({"kind": "experiment", ...})``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import ExperimentResult
from .context import ExperimentContext
from . import fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8
from . import ext_concentration, ext_countries, ext_dataset, ext_gl25, google, headline, table1, table2, trustedca

__all__ = ["EXPERIMENTS", "EXTENSIONS", "run_experiment", "run_all"]

Runner = Callable[[ExperimentContext], ExperimentResult]

#: Experiments that need the certificate simulation (skipped by
#: :func:`run_all` on PKI-less worlds, e.g. archive-backed contexts).
_NEEDS_PKI = frozenset(
    {"fig8", "table1", "table2", "trustedca", "concentration", "gl25"}
)

#: Paper artefacts: experiment id -> runner.
EXPERIMENTS: Dict[str, Runner] = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "table1": table1.run,
    "table2": table2.run,
    "trustedca": trustedca.run,
    "google": google.run,
    "headline": headline.run,
}

#: Beyond-the-paper analyses (discussion/footnote claims, quantified).
EXTENSIONS: Dict[str, Runner] = {
    "concentration": ext_concentration.run,
    "gl25": ext_gl25.run,
    "dataset": ext_dataset.run,
    "countries": ext_countries.run,
}


def run_experiment(
    experiment_id: str, context: ExperimentContext
) -> ExperimentResult:
    """Run one experiment (paper artefact or extension) by id."""
    runner = EXPERIMENTS.get(experiment_id) or EXTENSIONS.get(experiment_id)
    if runner is None:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)} + {sorted(EXTENSIONS)}"
        )
    return runner(context)


def run_all(
    context: ExperimentContext, include_extensions: bool = False
) -> List[ExperimentResult]:
    """Run every experiment a context's world can answer.

    PKI-dependent artefacts are skipped on worlds built without the
    certificate simulation (``repro bundle --no-pki`` and every
    archive-backed context, since archives hold DNS measurements only).
    """
    runners = dict(EXPERIMENTS)
    if include_extensions:
        runners.update(EXTENSIONS)
    pki = context.world.pki is not None
    return [
        runner(context)
        for experiment_id, runner in runners.items()
        if pki or experiment_id not in _NEEDS_PKI
    ]
