"""The golden-trace manifest: sha256 of every trace output of the CLI.

The outputs are the 38 ``dca_n*`` / ``dcppa_n*`` CSVs of ``rdcopt bench
dca-vs-dcppa`` (n = 2..20), ``frechet_dca.csv``, ``frechet_fw.csv`` and
``instance.json`` of ``rdcopt bench frechet --seed 42``, ``sandwich.csv``
and ``duality_report.txt`` of ``rdcopt check duality``, and the four trace
CSVs of ``rdcopt bench rosenbrock`` (a = 2e5).

The bits of the first three commands depend on the BLAS kernel, so
``test_golden.py`` regenerates them in a subprocess with OpenBLAS pinned to
its Haswell (AVX2) kernel on one thread, which any x86-64 machine can run.
Where that pin cannot hold (numpy's BLAS is not an OpenBLAS built with
DYNAMIC_ARCH, or the machine is not x86-64) ``skip_reason`` says so and the
gate skips. The Rosenbrock runs compute in plain floats and 2-vectors:
their CSVs hashed the same under the SkylakeX, Haswell, Zen and Prescott
kernels. Their run takes minutes, so ``test_criterion_3_rosenbrock`` in
``test_acceptance.py``, which makes it anyway, checks their hashes on the
host's own kernel.

A change that moves results on purpose re-blesses the manifest with

    python tests/golden.py

(all four commands, the Rosenbrock one for some minutes) and says in its
description which outputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

MANIFEST = Path(__file__).with_name("golden.json")
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}

# output directory -> (CLI arguments, files kept)
COMMANDS = {
    "logdet": (["bench", "dca-vs-dcppa", "--n-min", "2", "--n-max", "20"],
               [f"{tag}_n{n}.csv" for tag in ("dca", "dcppa") for n in range(2, 21)]),
    "frechet": (["bench", "frechet", "--n", "5", "--m", "20", "--seed", "42"],
                ["frechet_dca.csv", "frechet_fw.csv", "instance.json"]),
    "duality": (["check", "duality"], ["sandwich.csv", "duality_report.txt"]),
    "rosenbrock": (["bench", "rosenbrock"],
                   [f"{name}.csv" for name in ("euclidean_gd", "euclidean_dca",
                                               "riemannian_gd", "riemannian_dca")]),
}
# the commands test_golden.py regenerates
GATE = ("logdet", "frechet", "duality")


def skip_reason() -> Optional[str]:
    """Why the Haswell pin cannot hold here, or None when it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the OpenBLAS Haswell kernel needs x86-64, not {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS"
    config = str(blas.get("openblas configuration", ""))
    if "openblas" not in str(blas.get("name", "")).lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS ({blas.get('name')}) is not an OpenBLAS with DYNAMIC_ARCH"
    return None


def pinned_env() -> dict:
    """The environment of a subprocess on the pinned kernel, which imports
    rdcopt from ``src/`` and can import the test modules."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    return env


def generate(out_dir: Path, names=GATE) -> None:
    """Run the CLI commands ``names`` into ``out_dir``/<name> under the pinned kernel."""
    env = pinned_env()
    for name in names:
        args, _ = COMMANDS[name]
        subprocess.run([sys.executable, "-m", "rdcopt", *args, "--out", str(out_dir / name)],
                       env=env, check=True, stdout=subprocess.DEVNULL)


def digests(out_dir: Path, names=GATE) -> dict:
    """sha256 of the manifest files of the commands ``names`` under ``out_dir``,
    keyed "<name>/<file>"."""
    return {f"{name}/{file}": hashlib.sha256((out_dir / name / file).read_bytes()).hexdigest()
            for name in names for file in COMMANDS[name][1]}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def mismatches(expected: dict, actual: dict) -> list:
    """The keys of the commands ``actual`` covers whose digests differ, or
    that only one side has."""
    names = {key.split("/")[0] for key in actual}
    return sorted(key for key in expected.keys() | actual.keys()
                  if key.split("/")[0] in names and expected.get(key) != actual.get(key))


def main() -> int:
    reason = skip_reason()
    if reason is not None:
        print(f"cannot bless here: {reason}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp), COMMANDS)
        new = digests(Path(tmp), COMMANDS)
    moved = mismatches(load_manifest(), new) if MANIFEST.exists() else sorted(new)
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{MANIFEST.name}: {len(moved)} of {len(new)} outputs moved")
    for key in moved:
        print(f"  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
