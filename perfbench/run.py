"""Benchmark of rdcopt: one workload per process.

    python3 perfbench/run.py --workload logdet --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the whole record, with the environment, goes to
``perfbench/out/``. Exits with code 2, before any run, when the checkout has
no ``src/rdcopt``.
"""

import os

# one process, one thread: cap BLAS and OpenMP before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "time1_s": "s", "time2_s": "s",
              "time3_s": "s"}
MODULES = ("matfun", "manifolds", "problems", "solvers", "duality", "bench")


def import_rdcopt() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "rdcopt" or m.startswith("rdcopt.")]:
        del sys.modules[name]
    importlib.import_module("rdcopt")
    return SimpleNamespace(**{m: importlib.import_module(f"rdcopt.{m}") for m in MODULES})


def set_up(workload, seed: int, out_dir: Path):
    """Import rdcopt and build the workload's instances SETUP_REPEATS times.

    Returns the last package and the median set-up seconds, each scaled to
    nominal speed by the interpreter kernel timed right after it.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rd = import_rdcopt()
        workload.build(rd, seed, out_dir)
        elapsed = time.perf_counter() - t0
        seconds.append(elapsed * reference.NOMINAL["python"] / reference.probe("python"))
    return rd, statistics.median(seconds)


def git_sha():
    """The commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": git_sha(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("logdet", "rosenbrock", "frechet", "duality"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdcopt" / "__init__.py").is_file():
        print(f"perfbench: no rdcopt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    out_dir = OUT / args.workload
    workload = workloads.WORKLOADS[args.workload]()
    rd, setup_s = set_up(workload, args.seed, out_dir)
    if Path(rd.solvers.__file__).resolve().parent != SRC / "rdcopt":
        print(f"perfbench: rdcopt was imported from {rd.solvers.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.instrument(rd)
        workload.trace_with(tracer)
    rec = workloads.Recorder(workload.kind_of, tracer)

    # whole rounds only; stop when another round would overrun the budget
    round_s = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        workload.run_round(rec)
        round_s.append(time.perf_counter() - t0)
        if time.perf_counter() + round_s[-1] > deadline:
            break

    attempted = len(rec.operations)
    failed = rec.failed
    if args.trace:
        metrics = tracer.per_layer_metrics(attempted)
    else:
        values = dict(workload.metrics(rec), setup_s=setup_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {"correct": rec.correct, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(round_s), round_s=round_s,
                  failures=sorted({f"{op.name}: {tag}: {msg}" for op in failed
                                   for tag, msg in op.failures}),
                  raw_medians={name: statistics.median(seconds)
                               for name, (_, seconds) in rec.raw.items()},
                  probe_medians={kind: statistics.median(p) for kind, p in rec.probes.items()},
                  environment=environment())
    if tracer is not None:
        record["spans"] = tracer.spans()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {args.workload}: {len(round_s)} rounds in {sum(round_s):.2f} s, "
          f"{attempted} operations, {len(failed)} failed, correct {rec.correct}")
    print(f"environment: git {env['git_sha']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, threads {env['threads']}")
    for line in record["failures"]:
        print(f"failed: {line}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
