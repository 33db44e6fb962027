"""The benchmark's span tracer wraps parieq functions by module and name."""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from conftest import Scen, bundled_cases
from parieq.measure import from_density, wedge
from parieq.response import MarketParams
from test_measure import _family_zoo

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    # the traced benchmark run stops on a missing name; catch a refactor
    # that removes or renames one here instead
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    targets = ([(module, attr) for module, attr, _ in spans.TARGETS]
               + list(spans.MASS_TARGETS) + list(spans.QUAD_TARGETS))
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_every_measure_carries_the_mass_attribute_the_tracer_reads():
    # spans labels each traced mass call by this attribute; renaming it
    # would silently relabel every mass
    for m in _family_zoo() + [from_density(lambda p: 1.0 + p)]:
        assert callable(getattr(m, "exact_mass", None)), m.kind


def test_optimize_take_still_calls_the_traced_solve(monkeypatch):
    # the grid is solved in one batch and each golden-section probe by
    # fixed_point, but the traced run's self-check needs solves to count:
    # the revenue at kappa* must still come from parieq.stackelberg.solve.
    # No lane and no probe hands a take to solve here, so that is the one call
    real, calls = stackelberg_mod.solve, []

    def counted(params, *args, **kwargs):
        calls.append(params.kappa)
        return real(params, *args, **kwargs)

    monkeypatch.setattr(stackelberg_mod, "solve", counted)
    opt = stackelberg_mod.optimize_take(wedge(100), 1.0, 1.0)
    assert calls == [opt.kappa_star]


@pytest.mark.parametrize("case", bundled_cases(), ids=lambda c: c.name)
def test_every_solve_calls_the_traced_boundaries_and_phi(monkeypatch, case):
    # the traced run's self-check needs every solve to compute each action
    # boundary once and to evaluate phi through the module attribute, at
    # least twice and at most 2 endpoints + 105 midpoints = 107 times (the
    # bisection runs out of floats on the band within that many);
    # benchmarks/run.py still allows up to 218
    calls = Counter()

    def counting(name):
        real = getattr(equilibrium_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("compute_pbar1", "compute_pbar2", "phi"):
        monkeypatch.setattr(equilibrium_mod, name, counting(name))
    equilibrium_mod.solve(case.params, case.measure)
    assert calls["compute_pbar1"] == calls["compute_pbar2"] == 1
    assert 2 <= calls["phi"] <= 2 + 105


def test_every_measure_carries_an_array_mass():
    # the grid solver asks every measure for its masses through this field
    for m in _family_zoo() + [from_density(lambda p: 1.0 + p)]:
        assert callable(getattr(m, "exact_mass_array", None)), m.kind


@pytest.mark.parametrize("case", bundled_cases() + [
    Scen(m.kind, m, MarketParams(kappa=0.8, q=0.7, w=1.0)) for m in _family_zoo()],
    ids=lambda c: c.name)
def test_phi_and_D_read_their_totals_from_exact_mass_inside_the_band(monkeypatch, case):
    # inside the band both thresholds lie in [0, 1], so no phi or _D
    # evaluation there, the boundary ratios' included, calls
    # parieq.equilibrium.mass: each reads its two totals from the measure's
    # exact_mass, at the thresholds mass() would get and with its floats.
    # Each evaluation is charged only its own calls: a boundary step inside
    # phi runs _D, whose calls go to _D's own entry
    real_exact_mass, real_mass = case.measure.exact_mass, equilibrium_mod.mass
    open_evals, per_eval, mass_calls = [], {"phi": [], "_D": []}, []

    def recording_exact_mass(lo, hi):
        total = real_exact_mass(lo, hi)
        open_evals[-1].append((lo.hex(), hi.hex(), total.hex()))
        return total

    def counted(name):
        real = getattr(equilibrium_mod, name)

        def evaluation(p, *args):
            kappa = args[0] if name == "_D" else args[0].params.kappa
            open_evals.append([])
            try:
                return real(p, *args)
            finally:
                per_eval[name].append((p, kappa, open_evals.pop()))
        return evaluation

    for name in per_eval:
        monkeypatch.setattr(equilibrium_mod, name, counted(name))
    monkeypatch.setattr(equilibrium_mod, "mass",
                        lambda *args: mass_calls.append(args) or real_mass(*args))
    equilibrium_mod.solve(case.params, replace(case.measure, exact_mass=recording_exact_mass))
    assert len(per_eval["phi"]) >= 2 and per_eval["_D"]
    assert not mass_calls
    for p, kappa, totals in per_eval["phi"] + per_eval["_D"]:
        assert 1.0 - kappa <= p <= kappa
        assert totals == [tuple(x.hex() for x in (lo, hi, real_mass(case.measure, lo, hi)))
                          for lo, hi in ((p / kappa, 1.0), (0.0, 1.0 - (1.0 - p) / kappa))], p


def test_quadrature_solve_markets_take_at_most_50_totals_per_solve(monkeypatch):
    # each solve steps its action boundaries only as far as phi's
    # comparisons need: 47.1 evaluations of the totals per solve (phi's own
    # and _D's) on the 21 seed-0 markets of the quadrature_solve workload,
    # against 104.4 when both boundaries were bisected to the tolerance
    # first. The test starts with no remembered boundary and each op solves
    # a new key, so none takes part
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    real_solve, calls, per_solve = equilibrium_mod.solve, [0], []

    def counted(real):
        def evaluation(*args):
            calls[0] += 1
            return real(*args)
        return evaluation

    def counted_solve(*args, **kwargs):
        n = calls[0]
        eq = real_solve(*args, **kwargs)
        per_solve.append(calls[0] - n)
        return eq

    ops = workloads.setup_quadrature_solve(workloads.DEFAULT_SEED)
    for name in ("phi", "_D"):
        monkeypatch.setattr(equilibrium_mod, name, counted(getattr(equilibrium_mod, name)))
    monkeypatch.setattr(equilibrium_mod, "solve", counted_solve)
    for op in ops:
        op.run()
    assert len(per_solve) == 21
    assert sum(per_solve) / len(per_solve) <= 50
