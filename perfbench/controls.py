"""Negative controls for the benchmark's own checks.

    python3 perfbench/controls.py

Feeds each check a wrong result, which it must reject, and the matching
right result, which it must accept. Also checks that BENCHMARK.json names
the workloads and metrics the benchmark reports. Exits with code 1 if any
control misbehaves.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def fake_trace(f, reason="gradient norm", points=None):
    return SimpleNamespace(f=list(f), reason=reason, points=points)


def descent_with_double_inverse(a, b, q, start, max_iter):
    """The Armijo descent on the plane with G^-1 applied to an already Riemannian gradient."""
    cq = 2.0 * (float(q[0]) - b)
    x1, x2 = float(start[0]), float(start[1])

    def phi(y1, y2):
        return a * (y1 * y1 - y2) ** 2 + 2.0 * (y1 - b) ** 2 - cq * y1

    def ginv(y1, v1, v2):
        return v1 + 2.0 * y1 * v2, 2.0 * y1 * v1 + (1.0 + 4.0 * y1 * y1) * v2

    f, t_guess = phi(x1, x2), 1.0
    for _ in range(max_iter):
        v = a * (x1 * x1 - x2)
        g1, g2 = ginv(x1, 4.0 * v * x1 + 4.0 * (x1 - b) - cq, -2.0 * v)
        r1, r2 = ginv(x1, g1, g2)
        n2 = g1 * r1 + g2 * r2
        t = t_guess
        while True:
            c1, c2 = x1 - t * r1, x2 - t * r2 + t * t * r1 * r1
            fc = phi(c1, c2)
            if fc <= f - 1e-4 * t * n2:
                break
            t *= 0.5
        x1, x2, f = c1, c2, fc
        t_guess = min(1.0, 4.0 * t)
    return x1, x2


def controls(rd):
    """(name, failures of the wrong result, failures of the right result) per control."""
    out = []

    n = 5
    p0 = math.log(n) * np.eye(n)
    right = math.exp(1.0 / (math.sqrt(2.0) * n)) * np.eye(n)
    other = math.exp(-1.0 / (math.sqrt(2.0) * n)) * np.eye(n)
    descending = fake_trace([1.0, 0.0, -0.25])
    out.append(("log-det point on the other branch",
                checks.logdet_solution(other, p0, descending),
                checks.logdet_solution(right, p0, descending)))

    a, b = 2e5, 1.0
    out.append(("Rosenbrock point 1e-5 off (1, 1)",
                checks.rosenbrock_solution(a, b, (1.0 + 1e-5, 1.0), descending.f),
                checks.rosenbrock_solution(a, b, (1.0, 1.0), descending.f)))

    prob, start = rd.problems.random_frechet_instance(5, 20, 0)
    data = (prob.points, prob.weights, prob.lower, prob.upper)
    off = prob.lower - 1e-6 * np.eye(5)

    def variance_trace(points):
        return fake_trace([-checks.frechet_variance(prob.points, prob.weights, p)
                           for p in points], points=points)

    out.append(("Frechet iterate with slack -1e-6",
                checks.frechet_run(*data, variance_trace([start, off]), ascending=False),
                checks.frechet_run(*data, variance_trace([start, prob.lower]),
                                   ascending=False)))

    q = (0.1, 0.2)
    reference = checks.armijo_descent_2d(True, a, b, q, q, 50)
    out.append(("plane descent with G^-1 applied twice",
                checks.parity(descent_with_double_inverse(a, b, q, q, 50), reference),
                checks.parity(reference, reference)))

    config = rd.bench.ExperimentConfig(out_dir=run.OUT / "controls")
    tampered = rd.bench.run_duality_checks(config, tamper=True)
    honest = rd.bench.run_duality_checks(config)
    out.append(("tampered duality suite", checks.duality_suite(tampered),
                checks.duality_suite(honest)))
    out.append(("untampered suite as the control", checks.tampered_suite(honest),
                checks.tampered_suite(tampered)))
    return out


def manifest_matches() -> list:
    """Differences between BENCHMARK.json and what the benchmark reports."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for what, declared, reported in (
            ("workloads", [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)),
            ("end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END),
            ("per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]},
             {k: unit for k, (unit, _) in tracer.PER_LAYER.items()})):
        if declared != reported:
            problems.append(f"BENCHMARK.json {what} {declared} != reported {reported}")
    return problems


def main() -> int:
    ok = True
    for name, wrong, right in controls(run.import_rdcopt()):
        caught = bool(wrong) and not right
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {name}: wrong result -> "
              f"{[tag for tag, _ in wrong]}, right result -> {[tag for tag, _ in right]}")
    for problem in manifest_matches():
        ok = False
        print(f"FAIL {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
