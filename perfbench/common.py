"""Shared helpers: checkout paths, the scenario config, env block, stats."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: served archive cache, traces, reports.
WORK = os.path.join(ROOT, "perfbench", "_work")

#: Population scale denominator every workload runs at.
SCALE = 250
#: The library's default scenario seed; the served archive uses it and
#: the ``build`` digest pin is checked at it.
DEFAULT_SEED = 20220224
#: Connections the load driver may hold open at once (= cores here).
CONNECTIONS = max(1, os.cpu_count() or 1)
#: Iterations of the reference loop (about 4-7 ms on a 2-vCPU VM).
REFERENCE_LOOPS = 60_000
#: Seconds the reference loop takes on the reference host: a 2-vCPU VM
#: (Python 3.11) when no other tenant slows it.
REFERENCE_S = 0.0044


def check_checkout() -> Optional[str]:
    """An error message when the program under test is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no program to measure: {SRC}/repro is missing"
    return None


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: ``src`` and the checkout importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One string-hash layout for every measured process, so runs differ
    # in their inputs and the host, not in dict and set ordering.
    env["PYTHONHASHSEED"] = "0"
    return env


def scenario_config(seed: int):
    """The baseline scenario at 1:250 without PKI, through the spec path."""
    from repro.scenario import ScenarioSpec

    return (
        ScenarioSpec.resolve("baseline")
        .with_config(scale=SCALE, seed=seed, with_pki=False)
        .compile()
    )


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path + bytes), sorted."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit() -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def env_block(workload: str, seed: int, offered_rate: Optional[float]) -> Dict:
    """What a result needs to be comparable with another one."""
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": source_digest(),
        "scale": SCALE,
        "workload": workload,
        "workload_seed": seed,
        "offered_rate_qps": offered_rate,
        "connections": CONNECTIONS,
    }


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reference_loop() -> float:
    """Seconds that a fixed few milliseconds of pure Python take now."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


class Pace:
    """Samples of :func:`reference_loop` over a run: the host's speed.

    A shared VM runs the same code up to 1.5x slower for seconds to
    minutes at a time, whenever other tenants load the host.  Every
    reported time is scaled by ``REFERENCE_S`` over the reference loop's
    time around it, so a run reads the same in a slow spell as in a
    fast one, while a change to the measured code still shows in full.
    """

    def __init__(self, window: float = 1.0, nearest: int = 3,
                 loop: Callable[[], float] = reference_loop) -> None:
        #: Loops that start this close (seconds) to an interval pace it ...
        self.window = window
        #: ... or, when fewer did, this many loops nearest to it.
        self.nearest = nearest
        #: Runs one reference loop, here or in another process; seconds.
        self.loop = loop
        #: ``(start, seconds)`` of each reference loop, in run order.
        self.samples: List[Tuple[float, float]] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            self.samples.append((start, self.loop()))

    def took(self, begin: float, end: float) -> float:
        """Seconds spent in reference loops started within ``[begin, end)``."""
        return sum(
            seconds for start, seconds in self.samples if begin <= start < end
        )

    def factor(self, begin: float, end: float) -> float:
        """``REFERENCE_S`` ÷ the median loop time near ``[begin, end]``.

        The loops that started within ``window`` of the interval count;
        when fewer than ``nearest`` did, the ``nearest`` nearest do.
        """
        near = [
            seconds for start, seconds in self.samples
            if begin - self.window <= start <= end + self.window
        ]
        if len(near) < self.nearest:
            middle = (begin + end) / 2.0
            near = [
                seconds for _, seconds in sorted(
                    self.samples, key=lambda sample: abs(sample[0] - middle)
                )[: self.nearest]
            ]
        return REFERENCE_S / statistics.median(near)

    def normalise(self, seconds: float, begin: float, end: float) -> float:
        """``seconds`` measured over ``[begin, end]``, at reference speed."""
        return seconds * self.factor(begin, end)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    import math

    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_python(args: List[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python3 <args>`` from the checkout root; raise on failure."""
    result = subprocess.run(
        [sys.executable] + args, cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args[:2])} exited {result.returncode}:\n"
            f"{result.stderr[-2000:]}"
        )
    return result
