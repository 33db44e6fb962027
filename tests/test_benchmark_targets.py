"""The benchmark's span tracer wraps parieq functions by module and name."""

from pathlib import Path

from parieq.measure import from_density
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
