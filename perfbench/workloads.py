"""The four workloads of the benchmark.

A workload is built once per set-up (``build``) and then runs whole rounds
(``run_round``). Every round runs the same operations on the same inputs,
so the share of failed operations is the same in every run. Each workload
reports the same end-to-end metric names; ``time1_s`` .. ``time3_s`` mean a
different measurement on each workload (README.md has the table), built
from medians of samples scaled to the nominal speed of a reference kernel
(see reference.py).

Known faults: an operation that fails only a check listed in its ``known``
tags is counted as failed and leaves the run correct; any other failure
makes the run incorrect.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np

import checks
import reference


class Operation:
    def __init__(self, name: str, known):
        self.name = name
        self.known = frozenset(known)
        self.failures: list = []

    def check(self, failures) -> None:
        self.failures.extend(failures)


class Recorder:
    """Operations, timing samples and reference-kernel probes of one run.

    The reference kernels are probed at the start, after every operation,
    and wherever a workload calls ``probe``. A sample is scaled to nominal
    speed by the mean of the probe just before and the probe just after the
    work that produced it: the host's speed changes within a second, and
    wider windows of probes tracked it worse in trials.
    """

    def __init__(self, kind_of: dict, tracer=None):
        self.kind_of = kind_of  # sample name -> reference kind
        self.tracer = tracer
        self.operations: list[Operation] = []
        self.probes = {kind: [] for kind in sorted(set(kind_of.values()))}
        # sample name -> (probes taken before each sample, seconds of each sample)
        self.raw: dict[str, tuple] = {}
        self.probe()

    def call(self, fn, *args, **kwargs):
        """Call into the program, traced when tracing; returns (result, seconds)."""
        with nullcontext() if self.tracer is None else self.tracer.active():
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            return result, time.perf_counter() - t0

    def sample(self, name: str, *values) -> None:
        """Hold timing samples until the probe after them."""
        epochs, seconds = self.raw.setdefault(name, (array("l"), array("d")))
        epochs.extend([len(next(iter(self.probes.values())))] * len(values))
        seconds.extend(values)

    def probe(self) -> None:
        for kind, probes in self.probes.items():
            probes.append(reference.probe(kind))

    def scaled(self, name: str) -> list:
        """The samples of ``name`` at the nominal speed of its reference kernel."""
        kind = self.kind_of[name]
        probes, nominal = self.probes[kind], reference.NOMINAL[kind]
        return [v * nominal / (0.5 * (probes[e - 1] + probes[e])) for e, v in zip(*self.raw[name])]

    @contextmanager
    def operation(self, name: str, known=()):
        op = Operation(name, known)
        try:
            yield op
        except Exception as exc:  # a failing call into the program ends the operation, not the run
            op.failures.append(("exception", f"{type(exc).__name__}: {exc}"))
        self.operations.append(op)
        self.probe()

    @property
    def failed(self) -> list:
        return [op for op in self.operations if op.failures]

    @property
    def correct(self) -> bool:
        return all(tag in op.known for op in self.operations for tag, _ in op.failures)


def step_seconds(trace) -> list:
    """Wall seconds of each step of a solver run, from its trace."""
    return np.diff(np.asarray(trace.seconds)).tolist()


class Workload:
    """Base: ``METRICS`` maps each time metric to (sample names, reference kind).

    A metric is the sum of the medians of its samples, each scaled to the
    nominal speed of the kernel of that kind.
    """

    METRICS: dict = {}

    @property
    def kind_of(self) -> dict:
        return {sample: kind for samples, kind in self.METRICS.values() for sample in samples}

    def metrics(self, rec: Recorder) -> dict:
        return {name: sum(statistics.median(rec.scaled(s)) for s in samples)
                for name, (samples, _) in self.METRICS.items()}


class LogDet(Workload):
    """DCA and DCPPA on (log det p)^4 - (log det p)^2 from log(n) I, n = 5, 20 and 60."""

    name = "logdet"
    # pairs per round: a pair takes about 0.12 s at n = 5, 0.35 s at 20, 1.3 s at 60
    REPEATS = {5: 6, 20: 2, 60: 1}
    METRICS = {"time1_s": (("dca_60", "dcppa_60"), "lapack"),
               "time2_s": (("dca_5", "dcppa_5"), "small"),
               "time3_s": (("dca_20", "dcppa_20"), "lapack")}

    def build(self, rd, seed: int, out_dir) -> None:
        S, P = rd.solvers, rd.problems
        # the trust-region settings of `rdcopt bench dca-vs-dcppa`
        self.sub = S.SubSolverSpec(
            kind="trust_region",
            criterion=S.StoppingCriterion(max_iter=5000, grad_norm_tol=1e-10))
        self.stop = S.StoppingCriterion(max_iter=100, grad_norm_tol=1e-10)
        self.cases = [(n, P.logdet_dcproblem(P.LogDetProblem(n)), math.log(n) * np.eye(n))
                      for n in self.REPEATS]
        self.solvers = S

    def trace_with(self, tracer) -> None:
        self.cases = [(n, tracer.problem(dc), p0) for n, dc, p0 in self.cases]

    def run_round(self, rec: Recorder) -> None:
        for n, dc, p0 in self.cases:
            for _ in range(self.REPEATS[n]):
                self.run_pair(rec, n, dc, p0)

    def run_pair(self, rec: Recorder, n: int, dc, p0) -> None:
        """One DCA and one DCPPA solve from the same start."""
        S = self.solvers
        for method in ("dca", "dcppa"):
            with rec.operation(f"{method} n={n}") as op:
                if method == "dca":
                    (p, trace), sec = rec.call(S.dca_solve, dc, p0, self.sub, self.stop,
                                               record_points=False)
                else:
                    (p, trace), sec = rec.call(S.dcppa_solve, dc, p0, 1.0 / (2.0 * n),
                                               self.sub, self.stop, record_points=False)
                rec.sample(f"{method}_{n}", sec)
                op.check(checks.logdet_solution(p, p0, trace))


class Rosenbrock(Workload):
    """The headline comparison at a = 2e5, b = 1 from (0.1, 0.2)."""

    name = "rosenbrock"
    A, B = 2e5, 1.0
    START = (0.1, 0.2)
    EDCA_CAP = 200  # outer steps of the Euclidean DCA (about 5 ms each)
    GD_CAP, GD_RUNS = 2500, 20  # steps per Riemannian gradient-descent run (about 15 us each)
    PARITY_STEPS = 50  # inner steps of the one-outer-step parity runs
    METRICS = {"time1_s": (("rdca_step",), "python"), "time2_s": (("edca_step",), "python"),
               "time3_s": (("gd_step",), "python")}

    def build(self, rd, seed: int, out_dir) -> None:
        S, P = rd.solvers, rd.problems
        spec = P.RosenbrockProblem(self.A, self.B)
        self.p0 = np.array(self.START)
        armijo = S.ArmijoParams()
        # the sub-solver of `rdcopt bench rosenbrock`
        self.sub = S.SubSolverSpec(
            kind="gradient_descent",
            criterion=S.StoppingCriterion(max_iter=1000, grad_norm_tol=1e-16), armijo=armijo)
        self.parity_sub = S.SubSolverSpec(
            kind="gradient_descent",
            criterion=S.StoppingCriterion(max_iter=self.PARITY_STEPS, grad_norm_tol=1e-16),
            armijo=armijo)
        self.armijo = armijo
        self.plane_dc = P.rosenbrock_dcproblem(spec, "rb")
        self.flat_dc = P.rosenbrock_dcproblem(spec, "euclidean")
        self.plane = plane = self.plane_dc.geometry
        self.gd_cost = lambda p: P.rosenbrock_cost(spec, p)
        self.gd_grad = lambda p: plane.egrad_to_rgrad(p, P.rosenbrock_grad(spec, p))
        # segments of 100 and 10 outer steps (about 0.5 s and 0.05 s)
        self.rdca_stop = S.StoppingCriterion(max_iter=100, iterate_change_tol=1e-16)
        self.edca_stop = S.StoppingCriterion(max_iter=10, iterate_change_tol=1e-16)
        self.gd_stop = S.StoppingCriterion(max_iter=self.GD_CAP, iterate_change_tol=1e-16)
        self.one_step = S.StoppingCriterion(max_iter=1)
        self.solvers = S

    def trace_with(self, tracer) -> None:
        self.plane_dc = tracer.problem(self.plane_dc)
        self.flat_dc = tracer.problem(self.flat_dc)
        self.gd_cost = tracer.cost(self.gd_cost)
        self.gd_grad = tracer.grad(self.gd_grad)

    def metrics(self, rec: Recorder) -> dict:
        values = super().metrics(rec)
        # the solve time as steps x median step: every step runs 1000 inner steps
        values["time1_s"] *= self.rdca_steps
        return values

    def segments(self, rec: Recorder, name: str, dc, stop, sample: str, cap=None):
        """One DCA run from p0 to its own stop, or to ``cap`` steps, in segments.

        A DCA step depends only on the current point, so restarting from the
        last point continues the same iterate sequence. The generator yields
        after each segment, which lets a round interleave the runs with each
        other and with reference probes.
        """
        a, b = self.A, self.B
        with rec.operation(name) as op:
            p, f = self.p0, []
            while True:
                (p, trace), _ = rec.call(self.solvers.dca_solve, dc, p, self.sub, stop,
                                         record_points=False)
                f.extend(trace.f[1:] if f else trace.f)
                rec.sample(sample, *step_seconds(trace))
                if trace.reason != "max iterations" or len(f) - 1 == cap:
                    break
                yield
            if cap is None:
                self.rdca_steps = len(f) - 1
                op.check(checks.rosenbrock_solution(a, b, p, f))
            else:
                joined = SimpleNamespace(f=f, reason=trace.reason)
                op.check(checks.rosenbrock_capped(a, b, self.p0, p, joined, cap))

    def descents(self, rec: Recorder):
        """GD_RUNS identical capped Riemannian gradient-descent runs, yielding after each."""
        a, b = self.A, self.B
        for _ in range(self.GD_RUNS):
            with rec.operation("riemannian gd, capped") as op:
                (p, trace), _ = rec.call(self.solvers.gradient_descent, self.plane, self.gd_cost,
                                         self.gd_grad, self.p0, self.armijo, self.gd_stop)
                rec.sample("gd_step", *step_seconds(trace))
                op.check(checks.rosenbrock_capped(a, b, self.p0, p, trace, self.GD_CAP))
            yield

    def run_round(self, rec: Recorder) -> None:
        S, a, b, p0 = self.solvers, self.A, self.B, self.p0
        # the capped runs take turns with the segments of the long Riemannian
        # DCA, so that their samples spread over the whole round
        runs = [self.segments(rec, "riemannian dca", self.plane_dc, self.rdca_stop, "rdca_step"),
                self.segments(rec, "euclidean dca, capped", self.flat_dc, self.edca_stop,
                              "edca_step", cap=self.EDCA_CAP),
                self.descents(rec)]
        while runs:
            for run in list(runs):
                if next(run, StopIteration) is StopIteration:
                    runs.remove(run)
                rec.probe()
        for geometry, dc in (("flat", self.flat_dc), ("plane", self.plane_dc)):
            # the 2-D fast path applies G^-1 to the plane surrogate's gradient,
            # which is already Riemannian, so the plane parity check fails until fixed
            known = ("parity",) if geometry == "plane" else ()
            with rec.operation(f"parity {geometry}", known) as op:
                (p, _), _ = rec.call(S.dca_solve, dc, p0, self.parity_sub, self.one_step,
                                     record_points=False)
                reference_point = checks.armijo_descent_2d(geometry == "plane", a, b, p0, p0,
                                                           self.PARITY_STEPS)
                op.check(checks.parity(p, reference_point))


class Frechet(Workload):
    """DCA then Frank-Wolfe, as `rdcopt bench frechet` runs them, on a sweep of instances.

    The sweep is the instances of generator seeds 0..59 at n = 5, m = 20;
    the benchmark's seed sets the order in which a round visits them.
    """

    name = "frechet"
    N, M, INSTANCES = 5, 20, 60
    METRICS = {"time1_s": (("dca_step",), "small"), "time2_s": (("fw_step",), "small"),
               "time3_s": (("instance",), "small")}

    def build(self, rd, seed: int, out_dir) -> None:
        S, P = rd.solvers, rd.problems
        self.stop = S.StoppingCriterion(max_iter=1000, iterate_change_tol=1e-14,
                                        grad_change_tol=1e-9)
        self.instances = []
        for s in np.random.default_rng(seed).permutation(self.INSTANCES):
            prob, p0 = P.random_frechet_instance(self.N, self.M, int(s))
            self.instances.append({
                "seed": int(s), "prob": prob, "p0": p0, "dc": P.frechet_dcproblem(prob),
                "oracle": P.frechet_linear_oracle(prob),
                "fw_oracle": P.frechet_linear_oracle(prob),
                "fw_grad": lambda p, prob=prob: -P.frechet_grad(prob, p),
                "fw_cost": lambda p, prob=prob: -P.frechet_variance(prob, p),
                "feasible": lambda p, prob=prob: P.box_slack(p, prob.lower, prob.upper) >= 0.0,
            })
        self.solvers, self.problems = S, P

    def trace_with(self, tracer) -> None:
        for inst in self.instances:
            inst["dc"] = tracer.problem(inst["dc"])
            inst["fw_oracle"] = tracer.wrap("problems.linear_oracle", inst["fw_oracle"])
            inst["fw_grad"] = tracer.grad(inst["fw_grad"])
            inst["fw_cost"] = tracer.cost(inst["fw_cost"])
            inst["feasible"] = tracer.wrap("problems.feasible", inst["feasible"])

    def run_round(self, rec: Recorder) -> None:
        S, P = self.solvers, self.problems
        for inst in self.instances:
            prob, p0, dc = inst["prob"], inst["p0"], inst["dc"]
            # a stop on "fixed point" after a failed feasibility safeguard fails
            # the fixed-point check
            with rec.operation(f"instance {inst['seed']}", known=("fixed point",)) as op:
                (p, tr_dca), sec_dca = rec.call(S.dca_solve, dc, p0, None, self.stop,
                                                record_points=True)
                fw_stop = S.StoppingCriterion(max_iter=max(tr_dca.iterations - 1, 1),
                                              iterate_change_tol=1e-14, grad_change_tol=1e-9)
                (_, tr_fw), sec_fw = rec.call(
                    S.frank_wolfe_solve, dc.geometry, inst["fw_grad"], inst["fw_oracle"], p0,
                    fw_stop, inst["fw_cost"], inst["feasible"], True)
                rec.sample("dca_step", *step_seconds(tr_dca))
                rec.sample("fw_step", *step_seconds(tr_fw))
                rec.sample("instance", sec_dca + sec_fw)
                data = (prob.points, prob.weights, prob.lower, prob.upper)
                op.check(checks.frechet_run(*data, tr_dca, ascending=True))
                op.check(checks.frechet_run(*data, tr_fw, ascending=False))
                if tr_dca.reason == "fixed point":
                    z = inst["oracle"](p, -P.frechet_grad(prob, p))
                    op.check(checks.fixed_point(p, z))


class Duality(Workload):
    """`rdcopt check duality`, its tampered control, and the grid conjugate alone.

    The lone conjugate takes a cost that accepts one point at a time, so
    ``conjugate_grid`` samples it in its Python loop: timings of the
    vectorized path split into two speed modes in run-dependent proportions.
    """

    name = "duality"
    COVECTORS = (-3.0, -1.0, 0.5, 2.0)
    CONJUGATE_REPEATS = 100  # 400 calls of about 1.3 ms
    METRICS = {"time1_s": (("suite",), "array"), "time2_s": (("tampered",), "array"),
               "time3_s": (("conjugate",), "python")}

    def build(self, rd, seed: int, out_dir) -> None:
        B = rd.bench
        self.config = B.ExperimentConfig(out_dir=out_dir)
        grid = rd.duality.Grid1D(-10.0, 10.0, 2001)
        self.points, self.spacing = grid.points(), grid.spacing
        self.geometry = rd.manifolds.Euclidean(1)
        self.half_square = lambda x: 0.5 * float(x[0]) ** 2
        self.bench, self.duality = B, rd.duality

    def trace_with(self, tracer) -> None:
        """Nothing to wrap: the suite builds its own problems, and the
        duality layer is patched in the modules."""

    def run_round(self, rec: Recorder) -> None:
        with rec.operation("suite") as op:
            summary, sec = rec.call(self.bench.run_duality_checks, self.config)
            rec.sample("suite", sec)
            op.check(checks.duality_suite(summary))
        with rec.operation("tampered suite") as op:
            summary, sec = rec.call(self.bench.run_duality_checks, self.config, tamper=True)
            rec.sample("tampered", sec)
            op.check(checks.tampered_suite(summary))
        with rec.operation("grid conjugate, scalar cost") as op:
            origin = np.zeros(1)
            for _ in range(self.CONJUGATE_REPEATS):
                for y in self.COVECTORS:
                    conj, sec = rec.call(self.duality.conjugate_grid, self.half_square,
                                         self.geometry, self.points, origin, np.array([y]))
                    rec.sample("conjugate", sec)
                    op.check(checks.conjugate_half_square(conj.value, y, self.spacing))
                rec.probe()


WORKLOADS = {w.name: w for w in (LogDet, Rosenbrock, Frechet, Duality)}
