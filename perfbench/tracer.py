"""Per-layer tracing for the traced benchmark run (``--trace 1``).

The program is observed from outside: every public function of a layer is
replaced, under each name the program looks up at call time, by a wrapper
that opens a span around the call. The layers are the package's modules:

* ``matfun`` -- its own functions, plus the ``numpy.linalg`` entry points,
  because ``problems`` and ``SPDManifold.inner`` call numpy directly;
* ``manifolds`` -- the methods of the geometry classes;
* ``problems`` -- the callables of each ``DCProblem`` the benchmark builds
  (costs, gradients, the closures returned by the ``subproblem`` hook), the
  box oracle and the feasibility safeguard;
* ``solvers`` -- the public solver runs, the Armijo line search and the
  finite-difference Hessian product;
* ``duality`` -- the grid conjugate, Fenchel-Young gaps, the sandwich check.

Spans are kept in memory, folded by (parent key, key) as they close: the
Rosenbrock workload opens millions of spans per operation, far too many to
keep one by one. A layer's self time is the time of its spans minus the time
of their child spans. Counts that no span boundary gives (outer steps,
capped sub-solves, trust-region rejections) are read from the
``SolverTrace`` each solver run returns.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("matfun", "manifolds", "problems", "solvers", "duality")

# per-layer metric name -> (unit, source); every value is reported per operation
PER_LAYER = {
    "matfun.eigh.calls": ("count/op", ("calls", "matfun.eigh")),
    "matfun.eigvalsh.calls": ("count/op", ("calls", "matfun.eigvalsh")),
    "matfun.solve.calls": ("count/op", ("calls", "matfun.solve")),
    "matfun.inv.calls": ("count/op", ("calls", "matfun.inv")),
    "matfun.self_s": ("s/op", ("self", "matfun")),
    "manifolds.exp.calls": ("count/op", ("calls", "manifolds.exp")),
    "manifolds.log.calls": ("count/op", ("calls", "manifolds.log")),
    "manifolds.inner.calls": ("count/op", ("calls", "manifolds.inner")),
    "manifolds.transport.calls": ("count/op", ("calls", "manifolds.transport")),
    "manifolds.dist.calls": ("count/op", ("calls", "manifolds.dist")),
    "manifolds.egrad_to_rgrad.calls": ("count/op", ("calls", "manifolds.egrad_to_rgrad")),
    "manifolds.self_s": ("s/op", ("self", "manifolds")),
    "problems.cost.calls": ("count/op", ("calls", "problems.cost")),
    "problems.grad.calls": ("count/op", ("calls", "problems.grad")),
    "problems.box_oracle.calls": ("count/op", ("calls", "problems.box_oracle")),
    "problems.box_oracle.s": ("s/op", ("span", "problems.box_oracle")),
    "problems.safeguard.calls": ("count/op", ("calls", "problems.safeguard")),
    "problems.safeguard.fallbacks": ("count/op", ("counter", "problems.safeguard.fallbacks")),
    "problems.self_s": ("s/op", ("self", "problems")),
    "solvers.outer_steps": ("count/op", ("counter", "solvers.outer_steps")),
    "solvers.inner_solves": ("count/op", ("counter", "solvers.inner_solves")),
    "solvers.inner_capped": ("count/op", ("counter", "solvers.inner_capped")),
    "solvers.inner_steps": ("count/op", ("counter", "solvers.inner_steps")),
    "solvers.inner_evals": ("count/op", ("counter", "solvers.inner_evals")),
    "solvers.tr_steps": ("count/op", ("counter", "solvers.tr_steps")),
    "solvers.tr_rejected": ("count/op", ("counter", "solvers.tr_rejected")),
    "solvers.hvp.calls": ("count/op", ("calls", "solvers.hvp")),
    "solvers.self_s": ("s/op", ("self", "solvers")),
    "duality.conjugate.calls": ("count/op", ("calls", "duality.conjugate")),
    "duality.grid_samples": ("count/op", ("counter", "duality.grid_samples")),
    "duality.self_s": ("s/op", ("self", "duality")),
}

_NUMPY_LINALG = ("eigh", "eigvalsh", "solve", "inv", "cholesky")
_MATFUN = ("symmetrize", "sym_eig", "sym_apply", "sym_dlog", "spd_cholesky", "is_spd",
           "assert_spd", "spd_sqrt_inv_sqrt", "spd_logdet")
_GEOMETRY = ("inner", "norm", "exp", "log", "dist", "geodesic", "transport",
             "egrad_to_rgrad", "adjoint_log_diff", "point_norm", "metric_tensor",
             "det_hessian_quadform")
_PROBLEMS = {"box_linear_subproblem": "box_oracle", "box_slack": "box_slack",
             "box_feasible": "box_feasible"}
_SOLVER_RUNS = {"dca_solve": "dc", "dcppa_solve": "dc", "frank_wolfe_solve": "fw",
                "gradient_descent": "gd", "trust_region_solve": "tr"}
_DUALITY = {"conjugate_grid": "conjugate", "fenchel_young_gap": "fenchel_young_gap",
            "primal_dual_sandwich_check": "sandwich"}


class Tracer:
    """Span and count collector; records only while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.edges: dict[tuple, list] = {}  # (parent key, key) -> [calls, seconds]
        self.counters: Counter = Counter()
        self._open: list[str] = []  # keys of the open spans, innermost last
        self._runs: list[str] = []  # kinds of the open solver runs, innermost last

    @contextmanager
    def active(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def wrap(self, key: str, fn):
        """``fn`` with a span named ``key`` around every call made while enabled."""
        open_keys, edges, clock = self._open, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = open_keys[-1] if open_keys else None
            open_keys.append(key)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_keys.pop()
                edge = edges.get((parent, key))
                if edge is None:
                    edges[(parent, key)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        return traced

    # -- patching the program ------------------------------------------------

    def instrument(self, rd) -> None:
        """Replace the layer functions of the freshly imported package ``rd``."""
        import numpy.linalg

        for name in _NUMPY_LINALG:
            setattr(numpy.linalg, name, self.wrap(f"matfun.{name}", getattr(numpy.linalg, name)))
        matfun = {name: self.wrap(f"matfun.{name}", getattr(rd.matfun, name)) for name in _MATFUN}
        for module in (rd.matfun, rd.manifolds, rd.problems):
            for name, fn in matfun.items():
                if hasattr(module, name):
                    setattr(module, name, fn)
        for cls in (rd.manifolds.Geometry, rd.manifolds.Euclidean,
                    rd.manifolds.SPDManifold, rd.manifolds.RosenbrockPlane):
            for name in _GEOMETRY:
                if name in cls.__dict__:
                    setattr(cls, name, self.wrap(f"manifolds.{name}", cls.__dict__[name]))
        for name, short in _PROBLEMS.items():
            setattr(rd.problems, name, self.wrap(f"problems.{short}", getattr(rd.problems, name)))
        rd.problems.feasibility_safeguard = self._safeguard(rd.problems.feasibility_safeguard)
        runs = {name: self._solver_run(name, kind, getattr(rd.solvers, name))
                for name, kind in _SOLVER_RUNS.items()}
        for module in (rd.solvers, rd.bench):
            for name, fn in runs.items():
                if hasattr(module, name):
                    setattr(module, name, fn)
        rd.solvers.armijo_linesearch = self._armijo(rd.solvers.armijo_linesearch)
        rd.solvers.fd_hessian_apply = self.wrap("solvers.hvp", rd.solvers.fd_hessian_apply)
        duality = {name: (self._conjugate(getattr(rd.duality, name)) if short == "conjugate"
                          else self.wrap(f"duality.{short}", getattr(rd.duality, name)))
                   for name, short in _DUALITY.items()}
        for module in (rd.duality, rd.bench):
            for name, fn in duality.items():
                setattr(module, name, fn)

    def problem(self, dc):
        """A copy of the ``DCProblem`` ``dc`` whose callables open problems spans."""
        wrap = self.wrap
        fields = {}
        for name, key in (("g_cost", "problems.cost"), ("h_cost", "problems.cost"),
                          ("g_rgrad", "problems.grad"), ("h_rgrad", "problems.grad"),
                          ("constrained_subsolver", "problems.dc_step")):
            fn = getattr(dc, name)
            if fn is not None:
                fields[name] = wrap(key, fn)
        if dc.subproblem is not None:
            fields["subproblem"] = wrap("problems.subproblem", self._hook(dc.subproblem))
        return dataclasses.replace(dc, **fields)

    def cost(self, fn):
        return self.wrap("problems.cost", fn)

    def grad(self, fn):
        return self.wrap("problems.grad", fn)

    def _hook(self, subproblem):
        """The ``subproblem`` hook, returning closures that count their calls.

        The 2-D fast path of the DC loop is private; its inner steps are seen
        only through these closures. A closure called while no generic
        sub-solver run is open belongs to the fast path: its first cost call
        and first gradient call start a sub-solve, every later gradient call
        follows an accepted step and every later cost call is a line-search
        trial.
        """
        counters, runs = self.counters, self._runs

        def hook(q, x):
            cost, grad = subproblem(q, x)
            started = [False]

            def fast_path():
                if not runs or runs[-1] != "dc":
                    return False
                if not started[0]:
                    started[0] = True
                    counters["solvers.inner_steps"] -= 1
                    counters["solvers.inner_evals"] -= 1
                return True

            def counted_cost(z):
                if self.enabled and fast_path():
                    counters["solvers.inner_evals"] += 1
                return cost(z)

            def counted_grad(z):
                if self.enabled and fast_path():
                    counters["solvers.inner_steps"] += 1
                return grad(z)

            return self.cost(counted_cost), self.grad(counted_grad)

        return hook

    def _solver_run(self, name, kind, fn):
        span = self.wrap(f"solvers.{name}", fn)
        counters, runs = self.counters, self._runs

        @functools.wraps(fn)
        def run(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outer = not runs
            runs.append(kind)
            try:
                point, trace = span(*args, **kwargs)
            finally:
                runs.pop()
            steps = len(trace) - 1
            if outer:
                counters["solvers.outer_steps"] += steps
            if kind == "dc" and args[0].constrained_subsolver is None:
                # one sub-solve per attempted step; a "fixed point" stop ends
                # on a sub-solve that adds no row
                counters["solvers.inner_solves"] += steps + (trace.reason == "fixed point")
                counters["solvers.inner_capped"] += len(trace.subsolver_failures)
            elif kind == "tr":
                counters["solvers.tr_steps"] += steps
                counters["solvers.tr_rejected"] += sum(1 for s in trace.step[1:] if s == 0.0)
            return point, trace

        return run

    def _armijo(self, fn):
        """Line searches inside a DC run are sub-solver steps: count trials and accepts."""
        span = self.wrap("solvers.armijo_linesearch", fn)
        counters, runs = self.counters, self._runs

        @functools.wraps(fn)
        def linesearch(geometry, f, *args, **kwargs):
            if not (self.enabled and "dc" in runs):
                return span(geometry, f, *args, **kwargs)

            def trial(z):
                counters["solvers.inner_evals"] += 1
                return f(z)

            result = span(geometry, trial, *args, **kwargs)
            counters["solvers.inner_steps"] += 1
            return result

        return linesearch

    def _safeguard(self, fn):
        span = self.wrap("problems.safeguard", fn)
        counters = self.counters

        @functools.wraps(fn)
        def safeguard(p_prev, q_star, *args, **kwargs):
            result = span(p_prev, q_star, *args, **kwargs)
            if self.enabled and result is p_prev:
                counters["problems.safeguard.fallbacks"] += 1
            return result

        return safeguard

    def _conjugate(self, fn):
        span = self.wrap("duality.conjugate", fn)
        counters = self.counters

        @functools.wraps(fn)
        def conjugate(f, geometry, points, *args, **kwargs):
            if self.enabled:
                counters["duality.grid_samples"] += len(points)
            return span(f, geometry, points, *args, **kwargs)

        return conjugate

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Calls and inclusive seconds per span key, and self seconds per layer."""
        calls, span_s = Counter(), Counter()
        self_s = {layer: 0.0 for layer in LAYERS}
        for (parent, key), (n, seconds) in self.edges.items():
            calls[key] += n
            span_s[key] += seconds
            self_s[key.split(".")[0]] += seconds
            if parent is not None:
                self_s[parent.split(".")[0]] -= seconds
        return {"calls": calls, "span": span_s, "self": self_s, "counter": self.counters}

    def per_layer_metrics(self, operations: int) -> dict:
        totals = self.layer_totals()
        return {name: {"value": totals[source][key] / operations, "unit": unit}
                for name, (unit, (source, key)) in PER_LAYER.items()}

    def spans(self) -> list:
        """The folded spans, for the run record."""
        return [{"parent": parent, "key": key, "calls": n, "seconds": seconds}
                for (parent, key), (n, seconds) in sorted(
                    self.edges.items(), key=lambda item: (item[0][0] or "", item[0][1]))]
