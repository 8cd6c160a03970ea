"""Shared helpers for the benchmark harness."""

from __future__ import annotations

import pathlib
import sys

from repro.experiments import run_experiment

ROUNDS_LIGHT = 3
ROUNDS_HEAVY = 1

ROOT_DIR = pathlib.Path(__file__).parent.parent

#: The keys of perfbench's env block a bench record is stamped with.
ENV_KEYS = ("cores", "python", "numpy", "commit", "src_sha256")


def environment() -> dict:
    """The host and source tree a bench ran on, as perfbench names them."""
    if str(ROOT_DIR) not in sys.path:
        sys.path.insert(0, str(ROOT_DIR))
    from perfbench.common import env_block

    block = env_block("benchmarks", 0, None)
    return {key: block[key] for key in ENV_KEYS}


def regenerate(benchmark, make_context, experiment_id, save, rounds=ROUNDS_LIGHT):
    """Regenerate one paper artefact under the benchmark timer.

    Each round runs against a *fresh* (uncached) context over the shared
    world, so the timing covers the real sweep/analysis work.  The
    rendered artefact is saved to benchmarks/output/ and printed.
    """
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id, make_context()),
        rounds=rounds,
        iterations=1,
    )
    text = result.render()
    save(experiment_id, text)
    print()
    print(text)
    return result
