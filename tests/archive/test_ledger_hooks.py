"""The benchmark's build trace still finds every layer it wraps.

``perfbench.tracing.install_build_layers`` rebinds build-path callables
by name (``DayStream.from_snapshot``, ``summarize_snapshot``,
``write_shard_stream``, ...).  A rename in ``src/`` would otherwise
surface only when the benchmark runs; this test runs a small traced
build and checks that the layers are populated and add back up to the
day loop.  It runs in a subprocess because the tracer patches modules
for the life of the process.
"""

import json
import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from perfbench.layers import build_layers
    from perfbench.tracing import Tracer, install_build_layers

    tracer = Tracer()
    install_build_layers(tracer)

    from repro.archive import ArchiveBuilder
    from repro.sim import ConflictScenarioConfig

    config = ConflictScenarioConfig(scale=5000.0, with_pki=False)
    report = ArchiveBuilder(sys.argv[1], config).build(
        "2022-02-24", "2022-02-26"
    )
    assert len(report.written) == 3, report
    print(json.dumps(build_layers(tracer.spans, tracer.counters)))
    """
)


def test_traced_build_layers_add_up(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([REPO, os.path.join(REPO, "src")])
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "arch")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    layers = json.loads(result.stdout.strip().splitlines()[-1])
    assert abs(layers["trace.build_layer_sum_pct"] - 100.0) <= 5.0, layers
    for name in (
        "archive.from_snapshot.s", "archive.summarize.s", "archive.encode.s",
    ):
        assert layers[name] > 0, (name, layers)
