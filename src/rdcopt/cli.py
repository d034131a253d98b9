"""Command-line harness.

    rdcopt bench dca-vs-dcppa [--n-min N] [--n-max N] --out DIR
    rdcopt bench rosenbrock [--a A] [--b B] [--long-run] --out DIR
    rdcopt bench frechet [--n N] [--m M] [--seed S] --out DIR
    rdcopt check duality --out DIR

Each option sets the ``ExperimentConfig`` field of its name (``--out`` sets
``out_dir``); the config holds every default and decides whether the
instance is valid. Each command prints its JSON summary and writes the same
bytes to ``DIR/summary.json``. Exit codes: 0 on success, 1 on any failure
inside a run, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import (
    ExperimentConfig,
    run_dca_vs_dcppa,
    run_duality_checks,
    run_frechet,
    run_rosenbrock,
)

# (command group, command) -> (runner, whether its summary passes)
COMMANDS = {
    ("bench", "dca-vs-dcppa"): (run_dca_vs_dcppa, lambda summary: not summary["failures"]),
    ("bench", "rosenbrock"): (run_rosenbrock, lambda summary: True),
    ("bench", "frechet"): (run_frechet, lambda summary: True),
    ("check", "duality"): (run_duality_checks, lambda summary: summary["passed"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdcopt",
        description="Difference-of-convex optimization benchmarks on Hadamard manifolds")
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench", help="run a benchmark experiment")
    experiments = bench.add_subparsers(dest="target", required=True)

    p = experiments.add_parser("dca-vs-dcppa",
                               help="log-det comparison of DCA and DCPPA over n")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--out", dest="out_dir", required=True)

    p = experiments.add_parser("rosenbrock",
                               help="four first-order methods on the Rosenbrock problem")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--long-run", action="store_const", const=True,
                   help="run Euclidean gradient descent to its natural stop "
                        "(tens of millions of iterations)")
    p.add_argument("--out", dest="out_dir", required=True)

    p = experiments.add_parser("frechet",
                               help="constrained Frechet-variance maximization")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, help="instance seed")
    p.add_argument("--out", dest="out_dir", required=True)

    check = commands.add_parser("check", help="run a verification suite")
    checks = check.add_subparsers(dest="target", required=True)
    p = checks.add_parser("duality", help="Fenchel duality checks on the 1-D family")
    p.add_argument("--out", dest="out_dir", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, passed = COMMANDS[args.command, args.target]
    # the options given; an option not given is None and keeps its default
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    given = {name: value for name, value in vars(args).items()
             if name in fields and value is not None}
    try:
        config = ExperimentConfig(**given)
    except ValueError as exc:
        print(f"rdcopt: error: {exc}", file=sys.stderr)
        return 2
    summary = run(config)
    text = json.dumps(summary, indent=2, default=str) + "\n"
    sys.stdout.write(text)
    (config.out_dir / "summary.json").write_text(text, encoding="utf-8", newline="\n")
    return 0 if passed(summary) else 1


if __name__ == "__main__":
    raise SystemExit(main())
