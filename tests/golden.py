"""The golden-trace manifest: every trace output of the CLI, and its summary.

The manifest holds the sha256 of the 38 ``dca_n*`` / ``dcppa_n*`` CSVs of
``rdcopt bench dca-vs-dcppa`` (n = 2..20), ``frechet_dca.csv`` and
``frechet_fw.csv`` of ``rdcopt bench frechet --seed 42``, ``sandwich.csv``
of ``rdcopt check duality`` and the four trace CSVs of ``rdcopt bench
rosenbrock`` (a = 2e5). For each of the four commands it also holds the
record of its ``summary.json``: the summary itself, stop reasons and work
counts included, without the keys that contain "seconds" (``record``). A
record is kept whole, not hashed, so a mismatch names the fields that moved.

The bits of the first three commands depend on the BLAS kernel, so
``test_golden.py`` regenerates them in a subprocess with OpenBLAS pinned to
its Haswell (AVX2) kernel on one thread, which any x86-64 machine can run.
Where that pin cannot hold (numpy's BLAS is not an OpenBLAS built with
DYNAMIC_ARCH, or the machine is not x86-64) ``skip_reason`` says so and the
gate skips. The Rosenbrock runs compute in plain floats and 2-vectors:
their CSVs hashed the same under the SkylakeX, Haswell, Zen and Prescott
kernels, and their record under SkylakeX and Haswell. Their run takes
minutes, so ``test_criterion_3_rosenbrock`` in ``test_acceptance.py``,
which makes it anyway, checks their hashes, and the record of the summary
that ``run_rosenbrock`` returns, on the host's own kernel.

A change that moves results on purpose re-blesses the manifest with

    python tests/golden.py [command ...]

where each command is a key of ``COMMANDS``: only their entries are
regenerated, and every other entry is kept byte for byte. With no command
it re-blesses all four, the Rosenbrock one for some minutes. The change
says in its description which outputs and fields moved and why.
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

SUMMARY = "summary.json"
# output directory -> (CLI arguments, files hashed)
COMMANDS = {
    "logdet": (["bench", "dca-vs-dcppa", "--n-min", "2", "--n-max", "20"],
               [f"{tag}_n{n}.csv" for tag in ("dca", "dcppa") for n in range(2, 21)]),
    "frechet": (["bench", "frechet", "--n", "5", "--m", "20", "--seed", "42"],
                ["frechet_dca.csv", "frechet_fw.csv"]),
    "duality": (["check", "duality"], ["sandwich.csv"]),
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


def record(summary):
    """A summary without its wall-clock fields: every key that contains
    "seconds" is dropped, at any depth."""
    if isinstance(summary, dict):
        return {key: record(value) for key, value in summary.items() if "seconds" not in key}
    if isinstance(summary, list):
        return [record(value) for value in summary]
    return summary


def hashes(out_dir: Path, names) -> dict:
    """sha256 of the hashed files of the commands ``names`` under ``out_dir``,
    keyed "<name>/<file>"."""
    return {f"{name}/{file}": hashlib.sha256((out_dir / name / file).read_bytes()).hexdigest()
            for name in names for file in COMMANDS[name][1]}


def digests(out_dir: Path, names=GATE) -> dict:
    """The manifest entries of the commands ``names`` under ``out_dir``: the
    ``hashes`` and the record of each command's summary.json."""
    return {**hashes(out_dir, names),
            **{f"{name}/{SUMMARY}": record(json.loads(
                (out_dir / name / SUMMARY).read_text(encoding="utf-8"))) for name in names}}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _moved_fields(expected: dict, actual: dict, path: str = "") -> list:
    """The paths of the fields where two records differ; a number differs
    when its JSON text does, so -0.0 is not 0.0 and 1 is not 1.0."""
    moved = []
    for key in sorted(expected.keys() | actual.keys()):
        field = f"{path}.{key}" if path else key
        a, b = expected.get(key), actual.get(key)
        if key not in expected or key not in actual:
            moved.append(field)
        elif isinstance(a, dict) and isinstance(b, dict):
            moved += _moved_fields(a, b, field)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            moved += _moved_fields(dict(enumerate(a)), dict(enumerate(b)), field)
        elif json.dumps(a) != json.dumps(b):
            moved.append(field)
    return moved


def mismatches(expected: dict, actual: dict) -> list:
    """What differs in the commands ``actual`` covers: each key whose hash
    differs or that only one side has, and "<key>: <field>" for each field
    of a record that moved."""
    names = {key.split("/")[0] for key in actual}
    moved = []
    for key in sorted(expected.keys() | actual.keys()):
        if key.split("/")[0] not in names:
            continue
        a, b = expected.get(key), actual.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            moved += [f"{key}: {field}" for field in _moved_fields(a, b)]
        elif key not in expected or key not in actual or a != b:
            moved.append(key)
    return moved


def main(names=()) -> int:
    """Re-bless the entries of the commands ``names`` (all four when empty)."""
    unknown = sorted(set(names) - COMMANDS.keys())
    if unknown:
        print(f"unknown command {unknown}; choose from {sorted(COMMANDS)}", file=sys.stderr)
        return 2
    reason = skip_reason()
    if reason is not None:
        print(f"cannot bless here: {reason}", file=sys.stderr)
        return 1
    names = list(names) or list(COMMANDS)
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp), names)
        fresh = digests(Path(tmp), names)
    old = load_manifest() if MANIFEST.exists() else {}
    moved = mismatches(old, fresh)
    kept = {key: value for key, value in old.items() if key.split("/")[0] not in names}
    new = {**kept, **fresh}
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{MANIFEST.name}: {len(moved)} outputs or fields moved, of {len(fresh)} outputs "
          f"of {', '.join(names)}; {len(kept)} other entries kept")
    for key in moved:
        print(f"  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
