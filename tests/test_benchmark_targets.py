"""The benchmark's span tracer wraps parieq functions by module and name."""

from pathlib import Path

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
