"""Scenario config files: JSON records describing one experiment each.

A scenario names a wealth measure (as a tagged record), the large bettor's
belief q and budget w, either a single kappa or a sweep grid, an optional
true probability, and the metric columns to emit, each a key of
metrics.METRICS named at most once. Parsing builds the measure once and
keeps it on the Scenario, unserialized. Files round-trip exactly through
dump_scenario: parse -> serialize -> parse yields an equal Scenario.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from . import measure as measure_mod
from .errors import ConfigError, DomainError
from .measure import BeliefMeasure
from .metrics import METRICS
from .stackelberg import KAPPA_SEARCH_HI, KAPPA_SEARCH_LO

MAX_SCALED_DEPTH = 500  # each level adds frames to every mass call; about 984 crash


@dataclass(frozen=True)
class SweepSpec:
    lo: float
    hi: float
    steps: int

    def kappas(self) -> list[float]:
        """Uniform grid, ascending; endpoints included."""
        return [self.lo + (self.hi - self.lo) * i / (self.steps - 1)
                for i in range(self.steps)]


@dataclass(frozen=True)
class Scenario:
    """One experiment. belief_measure is the measure parsing built from the
    `measure` record; it is not serialized, and == and repr leave it out."""

    name: str
    measure: dict  # tagged record, kept verbatim for round-tripping
    q: float
    w: float
    kappa: Union[float, SweepSpec]
    p_actual: Optional[float]
    metrics: tuple[str, ...]
    belief_measure: BeliefMeasure = field(compare=False, repr=False)

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.kappa, SweepSpec)


def build_measure(spec: dict) -> BeliefMeasure:
    """Instantiate the measure named by a tagged record.

    At most MAX_SCALED_DEPTH 'scaled' records nest in it.
    """
    return _build_measure(spec, MAX_SCALED_DEPTH)


def _build_measure(spec: dict, scaled_left: int) -> BeliefMeasure:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"measure spec must be a record with a 'kind', got {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "wedge":
            return measure_mod.wedge(spec["n"])
        if kind == "symmetrized_wedge":
            return measure_mod.symmetrized_wedge(spec["n"])
        if kind == "uniform":
            return measure_mod.uniform()
        if kind == "gaussian_mixture":
            return measure_mod.gaussian_mixture(
                *(_numbers(spec[key], f"field {key!r}")
                  for key in ("weights", "means", "stddevs")))
        if kind == "tabulated":
            return measure_mod.tabulated(
                [tuple(_numbers(k, "a tabulated knot")) for k in spec["knots"]])
        if kind == "scaled":
            if scaled_left == 0:
                raise ConfigError(f"'scaled' records nest over {MAX_SCALED_DEPTH} deep")
            return measure_mod.scaled(_build_measure(spec["base"], scaled_left - 1),
                                      _number(spec, "factor"))
    except ConfigError:  # a ValueError too, but it says what is wrong already
        raise
    except KeyError as exc:
        raise ConfigError(f"measure kind {kind!r} is missing field {exc}") from exc
    except (DomainError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {kind!r} measure: {exc}") from exc
    raise ConfigError(f"unknown measure kind {kind!r}")


def _is_number(val: Any) -> bool:
    # a JSON number: bool is an int subclass, and strings are not numbers
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _numbers(val: Any, what: str) -> list:
    if not (isinstance(val, list) and all(map(_is_number, val))):
        raise ConfigError(f"{what} must be an array of numbers, got {val!r}")
    return val


def _number(obj: dict, key: str, lo=None, hi=None, strict_lo=False) -> float:
    if key not in obj:
        raise ConfigError(f"scenario is missing field {key!r}")
    val = obj[key]
    if not _is_number(val):
        raise ConfigError(f"field {key!r} must be a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"field {key!r} must be finite, got {val}")
    if lo is not None and (val <= lo if strict_lo else val < lo):
        raise ConfigError(f"field {key!r} out of range: {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"field {key!r} out of range: {val}")
    return val


def parse_scenario(obj: Any) -> Scenario:
    """Validate a decoded record and produce a Scenario."""
    if not isinstance(obj, dict):
        raise ConfigError(f"scenario must be a record, got {type(obj).__name__}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("scenario needs a nonempty string 'name'")
    if any(c in name for c in ',"\r\n'):  # the name is written raw into CSV rows
        raise ConfigError(f"scenario name {name!r} must not contain a comma, "
                          "a double quote, CR or LF")
    if "measure" not in obj:
        raise ConfigError("scenario is missing field 'measure'")
    belief_measure = build_measure(obj["measure"])
    q = _number(obj, "q", lo=0.0, hi=1.0)
    w = _number(obj, "w", lo=0.0, strict_lo=True)

    kappa_raw = obj.get("kappa")
    kappa: Union[float, SweepSpec]
    if isinstance(kappa_raw, dict):
        lo = _number(kappa_raw, "lo")
        hi = _number(kappa_raw, "hi")
        steps = kappa_raw.get("steps")
        if type(steps) is not int or steps < 2:  # bool is an int subclass
            raise ConfigError(f"sweep 'steps' must be an integer >= 2, got {steps!r}")
        if lo < KAPPA_SEARCH_LO or hi > KAPPA_SEARCH_HI or lo > hi:
            raise ConfigError(
                f"sweep range must satisfy {KAPPA_SEARCH_LO} <= lo <= hi <= "
                f"{KAPPA_SEARCH_HI}, got [{lo}, {hi}]")
        kappa = SweepSpec(lo=lo, hi=hi, steps=steps)
    elif _is_number(kappa_raw):
        kappa = float(kappa_raw)
        if not 0.0 < kappa < 1.0:
            raise ConfigError(f"scalar kappa must lie in (0,1), got {kappa}")
    else:
        raise ConfigError("scenario needs 'kappa': a number or {lo, hi, steps}")

    p_actual = None
    if obj.get("p_actual") is not None:
        p_actual = _number(obj, "p_actual", lo=0.0, hi=1.0)

    metrics_raw = obj.get("metrics", [])
    if not isinstance(metrics_raw, list):
        raise ConfigError("'metrics' must be an array of metric names")
    names = tuple(METRICS)  # a tuple: an unhashable entry is unknown, not a TypeError
    for i, m in enumerate(metrics_raw):
        if m not in names:
            raise ConfigError(f"unknown metric {m!r}; choose from {names}")
        if m in metrics_raw[:i]:
            raise ConfigError(f"metric {m!r} is listed more than once")
    if "diffuse_actual_profit" in metrics_raw and p_actual is None:
        raise ConfigError("metric 'diffuse_actual_profit' requires 'p_actual'")

    return Scenario(name=name, measure=obj["measure"], q=q, w=w, kappa=kappa,
                    p_actual=p_actual, metrics=tuple(metrics_raw),
                    belief_measure=belief_measure)


def dump_scenario(sc: Scenario) -> str:
    """The scenario as JSON text that parses back to an equal Scenario."""
    out: dict[str, Any] = {
        "name": sc.name,
        "measure": sc.measure,
        "q": sc.q,
        "w": sc.w,
        "kappa": asdict(sc.kappa) if sc.is_sweep else sc.kappa,
    }
    if sc.p_actual is not None:
        out["p_actual"] = sc.p_actual
    out["metrics"] = list(sc.metrics)
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def loads_scenario(text: str, origin: str = "<string>") -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{origin}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer too long to convert, among others
        raise ConfigError(f"{origin}: {exc}") from exc
    except RecursionError as exc:  # input nested past the recursion limit
        raise ConfigError(f"{origin}: nested too deeply: {exc}") from exc
    return parse_scenario(obj)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")  # JSON's encoding
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return loads_scenario(text, origin=str(path))


def bundled_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenarios() -> dict[str, Path]:
    """Name -> path of the scenario files shipped with the package."""
    return {p.stem: p for p in sorted(bundled_scenario_dir().glob("*.cfg"))}
