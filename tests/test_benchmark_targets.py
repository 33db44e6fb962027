"""The benchmark's span tracer wraps parieq functions by module and name."""

from collections import Counter
from pathlib import Path

import pytest

import parieq.equilibrium as equilibrium_mod
import parieq.stackelberg as stackelberg_mod
from conftest import bundled_cases
from parieq.measure import from_density, wedge
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


@pytest.mark.parametrize("case", bundled_cases(), ids=lambda c: c.name)
def test_every_phi_and_D_evaluation_calls_the_traced_mass_twice(monkeypatch, case):
    # the traced run counts measure.mass_calls through parieq.equilibrium.mass;
    # a phi or _D that reached the measure another way would read 0 calls per
    # solve. Each evaluation is charged only its own mass calls: a boundary
    # step inside phi runs _D, whose calls go to _D's own entry
    real_mass = equilibrium_mod.mass
    open_evals, per_eval = [], {"phi": [], "_D": []}

    def counted(name):
        real = getattr(equilibrium_mod, name)

        def evaluation(*args):
            open_evals.append(0)
            try:
                return real(*args)
            finally:
                per_eval[name].append(open_evals.pop())
        return evaluation

    def counted_mass(*args):
        if open_evals:
            open_evals[-1] += 1
        return real_mass(*args)

    for name in per_eval:
        monkeypatch.setattr(equilibrium_mod, name, counted(name))
    monkeypatch.setattr(equilibrium_mod, "mass", counted_mass)
    equilibrium_mod.solve(case.params, case.measure)
    assert len(per_eval["phi"]) >= 2 and per_eval["_D"]
    assert set(per_eval["phi"]) == set(per_eval["_D"]) == {2}


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
