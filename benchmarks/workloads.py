"""The four benchmark workloads: seeded inputs, the timed op and its checks.

Each workload's ``setup(seed)`` is the set-up ``setup_s`` measures: it loads
the scenarios, builds the measures and returns the op list. An op's ``run``
calls parieq through module attributes (``E.solve``, ``SK.optimize_take``),
so the traced run sees every call; its ``check`` runs after the batch, untimed,
and returns ``(wrong, misses)``. ``wrong`` lists broken invariants, reference
mismatches or errors; ``misses`` lists accuracy misses against a stated bound
(the oracle's criterion-8 gap), which count as failed ops but are not wrong
outputs of the program.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import parieq.equilibrium as E
import parieq.measure as M
import parieq.metrics as MT
import parieq.oracle as O
import parieq.response as R
import parieq.scenario as S
import parieq.stackelberg as SK
from parieq.cli import BASELINE_W
from parieq.errors import ParieqError

DEFAULT_SEED = 0
FP_TOL = E.FP_TOL
ORACLE_N = 2000
ORACLE_GAP_BOUND = 0.01  # criterion 8
BRACKET_SLACK = 1e-8  # well above quadrature noise in phi
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Op:
    key: str                      # stable identity, used for reference lookup
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], list[str]]]


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _mass_at_thresholds(p: float, kappa: float, m) -> tuple[float, float]:
    """D(p): small-bettor wealth beyond each threshold of candidate p."""
    return (M.mass(m, min(p / kappa, 1.0), 1.0),
            M.mass(m, 0.0, max(1.0 - (1.0 - p) / kappa, 0.0)))


def equilibrium_problems(eq, params, m) -> list[str]:
    """Invariants every solve must meet, for any input."""
    kappa, p = params.kappa, eq.p_star
    out = []
    if not 1.0 - kappa < p < kappa:
        return [f"p*={p!r} outside ({1 - kappa}, {kappa})"]
    if eq.atomic.a1 + eq.atomic.a2 > params.w * (1.0 + 1e-12):
        out.append(f"budget cap broken: {eq.atomic} > w={params.w}")
    d1, d2 = _mass_at_thresholds(p, kappa, m)
    for label, got, want in (("d1*", eq.d1_star, d1), ("d2*", eq.d2_star, d2)):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            out.append(f"{label}={got!r} but mass at threshold is {want!r}")
    ctx = E.phi_context(params, m)

    def excess(x):
        return E.phi(x, ctx) - x

    if eq.residual != abs(excess(p)):
        out.append(f"residual {eq.residual!r} != |phi(p*)-p*| {abs(excess(p))!r}")
    # phi - p falls with slope <= -1, so the root lies within residual of p*;
    # at the band ends phi - p is kappa and -kappa by construction
    delta = eq.residual + BRACKET_SLACK
    lo, hi = p - delta, p + delta
    if ((lo > 1.0 - kappa and excess(lo) < 0.0)
            or (hi < kappa and excess(hi) > 0.0)):
        out.append(f"fixed point not bracketed within {delta:.3g} of p*")
    return out


def reference_problems(ref, key: str, got: dict, tols: dict) -> list[str]:
    """Differences from the reference values; ``ref`` is None off the default seed."""
    if ref is None:
        return []
    want = ref.get(key)
    if want is None:
        return [f"no reference value for {key}"]
    return [f"{name}={got[name]!r}, reference {want[name]!r}"
            for name, tol in tols.items()
            if name in want and abs(got[name] - want[name]) > tol]


def load_reference(workload: str, seed: int = DEFAULT_SEED):
    """Reference outputs of the default seed's ops; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _guard(check):
    """Turn an exception inside a check into a wrong output."""
    def guarded(out):
        if isinstance(out, Exception):
            return [f"raised {out.__class__.__name__}: {out}"], []
        try:
            return check(out)
        except (ParieqError, ArithmeticError, ValueError) as exc:
            return [f"check raised {exc.__class__.__name__}: {exc}"], []
    return guarded


# --------------------------------------------------------------------------
# solve + metric columns, as `sweep` and `solve` emit them
# --------------------------------------------------------------------------

def _metric(name: str, eq, params, m, p_actual):
    if name == "house_revenue":
        return MT.house_revenue(eq, params)
    if name == "diffuse_actual_profit":
        return MT.diffuse_actual_profit(eq, params, p_actual)
    if name == "diffuse_subjective_profit":
        return MT.diffuse_subjective_profit(eq, params, m)
    if name == "atomic_subjective_profit":
        return MT.atomic_subjective_profit(eq, params)
    raise ValueError(f"unknown metric {name}")


def _solve_op(key, params, m, metrics, p_actual, ref) -> Op:
    def run():
        eq = E.solve(params, m)
        return eq, {n: _metric(n, eq, params, m, p_actual) for n in metrics}

    def check(out):
        eq, values = out
        wrong = equilibrium_problems(eq, params, m)
        for name, v in values.items():
            if not math.isfinite(v):
                wrong.append(f"{name} is {v}")
        if values.get("house_revenue", 0.0) < 0.0:
            wrong.append("negative house revenue")
        if values.get("diffuse_subjective_profit", 0.0) < -1e-12:
            wrong.append("negative subjective profit")
        got = {"p_star": eq.p_star, **values}
        tols = {"p_star": FP_TOL, **{n: 1e-8 for n in values}}
        return wrong + reference_problems(ref, key, got, tols), []

    return Op(key, run, _guard(check))


def record_solve(out) -> dict:
    eq, values = out
    return {"p_star": eq.p_star, **values}


def _bundled():
    """Bundled scenarios, loaded and built the way the CLI does it."""
    out = []
    for path in S.bundled_scenarios().values():
        sc = S.load_scenario(path)
        out.append((sc, S.build_measure(sc.measure)))
    return out


# --------------------------------------------------------------------------
# closed_form_sweep
# --------------------------------------------------------------------------

def setup_closed_form_sweep(seed: int) -> list[Op]:
    """The six bundled sweeps with --baseline: 550 rows of solve + metrics.

    The default seed runs the scenarios' exact kappa grids; any other seed
    moves each interior grid point by up to 0.4 of a grid step, keeping the
    end points (and with them the kappa = 0.5001 floor rows).
    """
    rng = np.random.default_rng(seed)
    ref = load_reference("closed_form_sweep", seed)
    ops = []
    for sc, m in _bundled():
        kappas = sc.kappa.kappas()
        if seed != DEFAULT_SEED:
            step = (sc.kappa.hi - sc.kappa.lo) / (sc.kappa.steps - 1)
            kappas = ([kappas[0]]
                      + [k + step * float(rng.uniform(-0.4, 0.4))
                         for k in kappas[1:-1]]
                      + [kappas[-1]])
        for kappa in kappas:
            for w in sorted({BASELINE_W, sc.w}):
                params = R.MarketParams(kappa=kappa, q=sc.q, w=w)
                key = f"{sc.name}|kappa={kappa!r}|w={w!r}"
                ops.append(_solve_op(key, params, m, sc.metrics, sc.p_actual, ref))
    return ops


# --------------------------------------------------------------------------
# quadrature_solve
# --------------------------------------------------------------------------

# Each seed perturbs fixed templates a little: the batch always holds the same
# families, knot counts and takes, so one seed's batch costs about what
# another's does, while the thresholds, kernels and knots still move.

def _jitter(rng, x: float, rel: float) -> float:
    return float(x * rng.uniform(1.0 - rel, 1.0 + rel))


def _mixture_record(rng, means, stddevs) -> dict:
    return {"kind": "gaussian_mixture",
            "weights": [_jitter(rng, 1.0, 0.1) for _ in means],
            "means": [float(mu + rng.uniform(-0.02, 0.02)) for mu in means],
            "stddevs": [_jitter(rng, sd, 0.03) for sd in stddevs]}


_KNOT_TEMPLATES = {
    4: [(0.0, 1.0), (0.35, 1.8), (0.7, 0.6), (1.0, 1.2)],
    5: [(0.0, 0.8), (0.25, 1.5), (0.5, 0.7), (0.75, 1.6), (1.0, 1.0)],
    6: [(0.0, 1.4), (0.2, 0.7), (0.4, 1.9), (0.6, 1.0), (0.8, 0.6), (1.0, 1.3)],
}


def _tabulated_knots(rng, k: int) -> list[list[float]]:
    knots = _KNOT_TEMPLATES[k]
    xs = [x if x in (0.0, 1.0) else float(x + rng.uniform(-0.03, 0.03))
          for x, _ in knots]
    return [[x, _jitter(rng, v, 0.1)] for x, (_, v) in zip(xs, knots)]


def _quadrature_records(rng) -> list[dict]:
    return [
        _mixture_record(rng, (0.3, 0.7), (0.2, 0.2)),
        _mixture_record(rng, (0.2, 0.5, 0.8), (0.25, 0.3, 0.25)),
        {"kind": "scaled", "factor": _jitter(rng, 1.5, 0.1),
         "base": _mixture_record(rng, (0.4, 0.75), (0.3, 0.2))},
    ] + [{"kind": "tabulated", "knots": _tabulated_knots(rng, k)}
         for k in sorted(_KNOT_TEMPLATES)]


def _smooth_density(a: float, b: float):
    return lambda p: math.exp(a * p + b * p * p)


# (kappa, q, w) templates, one solve each per measure
POINTS = ((0.6, 0.3, 1.0), (0.75, 0.85, 0.1), (0.9, 0.6, 1.0))
QUAD_METRICS = ("house_revenue", "diffuse_actual_profit",
                "diffuse_subjective_profit", "atomic_subjective_profit")


def setup_quadrature_solve(seed: int) -> list[Op]:
    """Seed-drawn measures without a closed-form mass, three solves each.

    Gaussian mixtures (k = 2, 3), a scaled mixture and tabulated densities
    with 4, 5 and 6 knots go through the scenario loader as `parieq solve`
    would read them; a smooth exp-quadratic density goes through
    ``from_density``.
    """
    rng = np.random.default_rng(seed)
    ref = load_reference("quadrature_solve", seed)
    measures = []
    for i, record in enumerate(_quadrature_records(rng)):
        text = json.dumps({"name": f"quad{i}", "measure": record, "q": 0.5,
                           "w": 1.0, "kappa": 0.8, "p_actual": 0.5,
                           "metrics": list(QUAD_METRICS)})
        sc = S.loads_scenario(text)
        measures.append((sc.name, S.build_measure(sc.measure)))
    a, b = float(rng.uniform(0.2, 0.4)), float(rng.uniform(-1.0, -0.8))
    measures.append(("smooth", M.from_density(_smooth_density(a, b), "smooth")))
    ops = []
    for name, m in measures:
        for kappa, q, w in POINTS:
            kappa += float(rng.uniform(-0.005, 0.005))
            q += float(rng.uniform(-0.02, 0.02))
            params = R.MarketParams(kappa=kappa, q=q, w=w)
            p_actual = float(rng.uniform(0.2, 0.8))
            key = f"{name}|kappa={kappa!r}"
            ops.append(_solve_op(key, params, m, QUAD_METRICS, p_actual, ref))
    return ops


# --------------------------------------------------------------------------
# take_search
# --------------------------------------------------------------------------

def setup_take_search(seed: int) -> list[Op]:
    """optimize_take at its default grid on each bundled scenario.

    The inputs are the bundled scenarios for every seed; the seed orders them.
    """
    ref = load_reference("take_search")
    ops = []
    for sc, m in _bundled():
        ops.append(_take_op(sc, m, ref))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def _take_op(sc, m, ref) -> Op:
    q, w = sc.q, sc.w

    def run():
        return SK.optimize_take(m, q, w)

    def check(opt):
        wrong = []
        if len(opt.profile) != 256:
            wrong.append(f"profile has {len(opt.profile)} points, not 256")
        if not SK.KAPPA_SEARCH_LO <= opt.kappa_star <= SK.KAPPA_SEARCH_HI:
            wrong.append(f"kappa*={opt.kappa_star} outside the search interval")
        if opt.revenue_star < max(r for _, r in opt.profile):
            wrong.append("reported optimum below a grid sample")
        params = R.MarketParams(kappa=opt.kappa_star, q=q, w=w)
        eq = E.solve(params, m)
        wrong += equilibrium_problems(eq, params, m)
        if MT.house_revenue(eq, params) != opt.revenue_star:
            wrong.append("revenue* is not the revenue at kappa*")
        got = {"kappa_star": opt.kappa_star, "revenue_star": opt.revenue_star}
        tols = {"kappa_star": 1e-5, "revenue_star": 1e-9}
        return wrong + reference_problems(ref, sc.name, got, tols), []

    return Op(sc.name, run, _guard(check))


def record_take(opt) -> dict:
    return {"kappa_star": opt.kappa_star, "revenue_star": opt.revenue_star}


# --------------------------------------------------------------------------
# oracle_crosscheck
# --------------------------------------------------------------------------

def setup_oracle_crosscheck(seed: int) -> list[Op]:
    """Oracle cross-checks at N = 2000 with the CLI's iteration defaults.

    The six criterion-8 cases, the bundled scenarios at kappa = 0.8 and one
    seed-drawn tabulated measure. Bundled example1 at kappa = 0.8 is left out:
    it is criterion8:example1 at kappa = 0.8 (wedge(1), q = 0.9, w = 1).
    """
    rng = np.random.default_rng(seed)
    ref = load_reference("oracle_crosscheck", seed)
    w1, w10, w100 = M.wedge(1), M.wedge(10), M.wedge(100)
    cases = [
        ("criterion8:example1", w1, 0.9, 1.0, 0.8),
        ("criterion8:example1", w1, 0.9, 1.0, 0.95),
        ("criterion8:example2", w1, 0.57, 1.0, 0.97),
        ("criterion8:example3", w10, 0.95, 1.0, 0.9),
        ("criterion8:example4_case1", M.symmetrized_wedge(100), 1.0, BASELINE_W,
         0.506),
        ("criterion8:example4_case2", w100, 1.0, 1.0, 0.839),
    ]
    cases += [(f"bundled:{sc.name}", m, sc.q, sc.w, 0.8) for sc, m in _bundled()
              if sc.name != "example1"]
    knots = _tabulated_knots(rng, 5)
    cases.append(("tabulated", M.tabulated([tuple(k) for k in knots]),
                  float(rng.uniform(0.6, 0.7)), 1.0, float(rng.uniform(0.78, 0.82))))
    return [_oracle_op(f"{name}|kappa={kappa!r}", m,
                       R.MarketParams(kappa=kappa, q=q, w=w), ref)
            for name, m, q, w, kappa in cases]


def _oracle_op(key, m, params, ref) -> Op:
    def run():
        eq = E.solve(params, m)
        pop = O.discretize(m, ORACLE_N)
        return eq, pop, O.iterate_best_response(pop, params)

    def check(out):
        eq, pop, res = out
        wrong = equilibrium_problems(eq, params, m)
        b = pop.beliefs
        if pop.size != ORACLE_N or not (0.0 < b[0] and b[-1] < 1.0
                                        and bool(np.all(np.diff(b) >= 0.0))):
            wrong.append("discretized beliefs are not sorted inside (0, 1)")
        wrong += reference_problems(ref, key, {"p_star": eq.p_star},
                                    {"p_star": FP_TOL})
        gap = abs(res.p_approx - eq.p_star)
        misses = [] if gap < ORACLE_GAP_BOUND else [f"oracle gap {gap:.3g}"]
        return wrong, misses

    return Op(key, run, _guard(check))


def record_oracle(out) -> dict:
    eq, _, res = out
    return {"p_star": eq.p_star, "p_approx": res.p_approx}


def oracle_layer_metrics(outputs) -> dict:
    """oracle.* per-layer figures that come from the results, not the spans."""
    res = [(eq, r) for eq, _, r in outputs]
    return {"oracle.iterations": sum(r.iterations for _, r in res) / len(res),
            "oracle.converged_ratio": sum(r.converged for _, r in res) / len(res),
            "oracle.gap_max": max(abs(r.p_approx - eq.p_star) for eq, r in res)}


# name -> (set-up, reference record of one op's output, nominal batch seconds,
# ops per gauged segment). A segment is the run of ops timed between two
# yardstick runs (see yardstick.py), about 0.2 to 1 s of work. The batch times
# include those yardstick runs and are taken on a 2-core Xeon in its slower
# spells, so a run's batches take at most about --seconds there; they only set
# the batch count
WORKLOADS = {
    "closed_form_sweep": (setup_closed_form_sweep, record_solve, 0.42, 550),
    "quadrature_solve": (setup_quadrature_solve, record_solve, 1.3, 7),
    "take_search": (setup_take_search, record_take, 0.8, 1),
    "oracle_crosscheck": (setup_oracle_crosscheck, record_oracle, 5.6, 1),
}


def cold_start_scenario(seed: int) -> str:
    """A scalar-kappa scenario for timing a fresh `parieq solve`."""
    rng = np.random.default_rng(seed)
    return json.dumps({
        "name": "cold_start", "measure": {"kind": "wedge", "n": 10},
        "q": float(rng.uniform(0.2, 0.9)), "w": 1.0,
        "kappa": float(rng.uniform(0.6, 0.95)),
        "metrics": ["house_revenue", "atomic_subjective_profit"]}, indent=2)
