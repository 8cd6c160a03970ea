"""The experiment registry: every paper artefact, one place, one shape.

Every registered runner has the uniform signature ``run(context) ->
QueryResult``: the per-figure modules still build their
:class:`~repro.experiments.base.ExperimentResult` artefacts internally,
but the registry normalises each into the versioned
:class:`~repro.api.spec.QueryResult` envelope, so every experiment is
machine-readable (``result.to_json()``) and servable through the
unified query API.  Attribute access on a :class:`QueryResult` falls
through to the wrapped artefact, so ``render()``/``measured``/CSV
export keep working on the uniform return type.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..api.spec import QueryResult
from .context import ExperimentContext
from . import fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8
from . import ext_concentration, ext_countries, ext_dataset, ext_gl25, google, headline, table1, table2, trustedca

__all__ = ["EXPERIMENTS", "EXTENSIONS", "run_experiment", "run_all"]


#: Experiments that need the certificate simulation (skipped by
#: :func:`run_all` on PKI-less worlds, e.g. archive-backed contexts).
_NEEDS_PKI = frozenset(
    {"fig8", "table1", "table2", "trustedca", "concentration", "gl25"}
)


def _uniform(
    experiment_id: str, runner
) -> Callable[[ExperimentContext], QueryResult]:
    """Normalise one artefact builder to ``run(context) -> QueryResult``."""

    def run(context: ExperimentContext) -> QueryResult:
        return QueryResult.from_experiment(runner(context))

    run.experiment_id = experiment_id
    run.requires_pki = experiment_id in _NEEDS_PKI
    run.__doc__ = runner.__doc__
    return run


#: Paper artefacts: experiment id -> uniform runner.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], QueryResult]] = {
    experiment_id: _uniform(experiment_id, module.run)
    for experiment_id, module in {
        "fig1": fig1,
        "fig2": fig2,
        "fig3": fig3,
        "fig4": fig4,
        "fig5": fig5,
        "fig6": fig6,
        "fig7": fig7,
        "fig8": fig8,
        "table1": table1,
        "table2": table2,
        "trustedca": trustedca,
        "google": google,
        "headline": headline,
    }.items()
}

#: Beyond-the-paper analyses (discussion/footnote claims, quantified).
EXTENSIONS: Dict[str, Callable[[ExperimentContext], QueryResult]] = {
    experiment_id: _uniform(experiment_id, module.run)
    for experiment_id, module in {
        "concentration": ext_concentration,
        "gl25": ext_gl25,
        "dataset": ext_dataset,
        "countries": ext_countries,
    }.items()
}


def run_experiment(
    experiment_id: str, context: ExperimentContext
) -> QueryResult:
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
) -> List[QueryResult]:
    """Run every experiment a context's world can answer.

    PKI-dependent artefacts are skipped on worlds built without the
    certificate simulation (``repro bundle --no-pki`` and every
    archive-backed context, since archives hold DNS measurements only).
    """
    runners = list(EXPERIMENTS.values())
    if include_extensions:
        runners.extend(EXTENSIONS.values())
    if context.world.pki is None:
        runners = [runner for runner in runners if not runner.requires_pki]
    return [runner(context) for runner in runners]
