"""Span tracing for the benchmark's traced run.

The tracer wraps parieq's public functions under the names the calling
modules look them up by (``parieq.equilibrium.mass``, ``parieq.stackelberg.
solve``, ...), so every call the solver makes between layers records a span:
name, start, end, parent span and op id. Spans live in flat in-memory arrays
while the batch runs; ``SpanLog`` turns them into numpy arrays for the
per-layer counts and self times, and ``save`` writes them out at the end.
Nothing in ``src/`` changes: uninstalling restores the original functions.
"""

import time
from array import array

import numpy as np

import parieq.equilibrium as E
import parieq.measure as M
import parieq.metrics as MT
import parieq.oracle as O
import parieq.scenario as S
import parieq.stackelberg as SK

OP_SPAN = "bench.op"
MASS_CLOSED = "measure.mass.closed_form"
MASS_QUAD = "measure.mass.quadrature"
QUAD_SPAN = "quadrature.adaptive_simpson"

_MEASURE_BUILDERS = ("wedge", "uniform", "symmetrized_wedge", "gaussian_mixture",
                     "tabulated", "scaled", "from_density")

# (module, attribute the callers use, span name); the mass and quadrature
# entries get dedicated wrappers below
TARGETS = (
    [(E, "solve", "equilibrium.solve"),
     (SK, "solve", "equilibrium.solve"),
     (E, "phi_context", "equilibrium.phi_context"),
     (E, "phi", "equilibrium.phi"),
     (E, "compute_pbar1", "equilibrium.pbar"),
     (E, "compute_pbar2", "equilibrium.pbar"),
     (E, "zeta1", "equilibrium.zeta"),
     (E, "zeta2", "equilibrium.zeta"),
     (E, "atomic_best_response", "response.atomic_best_response"),
     (O, "atomic_best_response", "response.atomic_best_response"),
     (E, "diffuse_best_response", "response.diffuse_best_response"),
     (SK, "optimize_take", "stackelberg.optimize_take"),
     (SK, "house_revenue", "metrics.house_revenue"),
     (O, "discretize", "oracle.discretize"),
     (O, "iterate_best_response", "oracle.iterate"),
     (S, "load_scenario", "scenario.load"),
     (S, "loads_scenario", "scenario.load")]
    + [(MT, name, f"metrics.{name}")
       for name in ("house_revenue", "diffuse_actual_profit",
                    "atomic_actual_profit", "diffuse_subjective_profit",
                    "atomic_subjective_profit", "market_report")]
    + [(M, name, "measure.build") for name in _MEASURE_BUILDERS])
MASS_TARGETS = ((E, "mass"), (O, "mass"), (M, "mass"))
QUAD_TARGETS = ((M, "adaptive_simpson"), (MT, "adaptive_simpson"))


class Tracer:
    """Records nested spans of wrapped calls into flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.evals: dict[int, int] = {}  # quadrature span -> density evaluations
        self._stack = [-1]
        self._op = [-1]
        self._saved = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self):
        # bound locals keep the per-call cost of a wrapper low
        name_id, parent, op, start, end = (self.name_id, self.parent, self.op,
                                           self.start, self.end)
        stack, opbox, clock = self._stack, self._op, time.perf_counter

        def call(nid, fn, args, kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(opbox[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return call

    def wrap(self, fn, name: str):
        nid, call = self._intern(name), self._recorder()

        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def _wrap_mass(self, fn):
        closed, quad = self._intern(MASS_CLOSED), self._intern(MASS_QUAD)
        call = self._recorder()

        def traced(m, *args, **kwargs):
            nid = quad if getattr(m, "exact_mass", None) is None else closed
            return call(nid, fn, (m,) + args, kwargs)
        return traced

    def _wrap_quadrature(self, fn):
        nid, call, evals, start = (self._intern(QUAD_SPAN), self._recorder(),
                                   self.evals, self.start)

        def traced(f, *args, **kwargs):
            count = [0]

            def counted(x):
                count[0] += 1
                return f(x)
            i = len(start)
            try:
                return call(nid, fn, (counted,) + args, kwargs)
            finally:
                evals[i] = count[0]
        return traced

    def install(self) -> None:
        """Swap the wrapped functions into the calling modules."""
        for module, attr, name in TARGETS:
            self._swap(module, attr, lambda fn, name=name: self.wrap(fn, name))
        for module, attr in MASS_TARGETS:
            self._swap(module, attr, self._wrap_mass)
        for module, attr in QUAD_TARGETS:
            self._swap(module, attr, self._wrap_quadrature)

    def _swap(self, module, attr, make) -> None:
        # a missing name is an error, not a skip: its metrics would read 0
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span tagged with its id."""
        self._op[0] = op_id
        try:
            return self.wrap(fn, OP_SPAN)()
        finally:
            self._op[0] = -1

    def log(self) -> "SpanLog":
        return SpanLog(self)


class SpanLog:
    """Numpy view of a tracer's spans with self times and ancestry queries."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.evals = np.zeros(len(self.start), dtype=np.int64)
        if tracer.evals:
            idx = np.fromiter(tracer.evals.keys(), dtype=np.int64)
            self.evals[idx] = np.fromiter(tracer.evals.values(), dtype=np.int64)
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.duration[has_parent],
                              minlength=len(self.start))
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name equals or starts with one of the prefixes."""
        ids = [i for i, n in enumerate(self.names)
               if any(n == p or n.startswith(p + ".") for p in prefixes)]
        return np.isin(self.name_id, ids)

    def nearest(self, target: np.ndarray) -> np.ndarray:
        """Index of each span's nearest strict ancestor in ``target``, or -1."""
        idx = np.arange(len(self))
        own = np.where(target, idx, -1)
        anc = np.full(len(self), -1)
        has_parent = self.parent >= 0
        anc[has_parent] = own[self.parent[has_parent]]
        # parents precede children, so each pass settles one more level
        while True:
            todo = (anc == -1) & has_parent
            todo[todo] = anc[self.parent[todo]] != -1
            if not todo.any():
                return anc
            anc[todo] = anc[self.parent[todo]]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, op=self.op, start=self.start,
                 end=self.end, density_evals=self.evals)
