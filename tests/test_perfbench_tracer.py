"""The traced benchmark run (``perfbench/run.py --trace 1``) patches rdcopt
functions by name, so a rename in the package breaks it without failing any
other test. This builds every workload and instruments it as the traced run
does, in a subprocess, because the tracer also patches ``numpy.linalg``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys, tempfile
from pathlib import Path

sys.path[:0] = sys.argv[1:3]
import run, tracer, workloads

rd = run.import_rdcopt()
with tempfile.TemporaryDirectory() as tmp:
    built = []
    for name, workload in workloads.WORKLOADS.items():
        built.append(workload())
        built[-1].build(rd, 0, Path(tmp) / name)
    traced = tracer.Tracer()
    traced.instrument(rd)
    for workload in built:
        workload.trace_with(traced)
print(" ".join(workloads.WORKLOADS))
"""


def test_tracer_instruments_every_workload():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["logdet", "rosenbrock", "frechet", "duality"]
