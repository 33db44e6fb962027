"""Digests of the benchmark's outputs that no platform's libm can move.

A change that claims to move no bytes keeps these digests; a change that
moves bytes re-pins them and lists the cells that moved. They cover every
seed-0 op of the four benchmark workloads whose measure uses only
+ - * / and sqrt (the wedge families, uniform and tabulated), so that no
digest depends on the platform's erf or exp, and the six bundled sweep CSVs.
Floats are hashed by their .hex(), arrays by the sha256 of their bytes. The
oracle's totals d1 and d2 and the stakes computed from them are left out:
they are numpy sums, whose bits depend on its reduction kernel.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from parieq.cli import sweep_csv
from parieq.equilibrium import FP_TOL
from parieq.oracle import OracleResult
from parieq.scenario import bundled_scenarios, load_scenario

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

DIGESTS = {
    "closed_form_sweep": "e34c7b6a9884641c04f5262afbc6d3c17baa0bf5eec97f77583910a1c03770d2",
    "quadrature_solve": "e98bc5fd72f9afeb3bb1f801122eebdb5b9ba318fbcdb1bfb2b44ab4f63c4477",
    "take_search": "e30daaa608243011cc0099024e46cec4d414789d4fb32b32c4218adb2d7bf978",
    "oracle_crosscheck": "fc97a771e0b9993bc4353eef95d28fde01840f50236cc606355deb264efa3d9b",
    "sweep_csv": "0a23064f4c960d2122e26ad2621df257ffb39a209ef693b7c7baeb57a5e3ad04",
}
_LEFT_OUT = {OracleResult: ("d1", "d2", "atomic")}


def _lines(prefix, value):
    # one "path=hex" line per float, int, bool and array inside value
    if isinstance(value, np.ndarray):
        yield f"{prefix}=sha256:{hashlib.sha256(value.tobytes()).hexdigest()}"
    elif dataclasses.is_dataclass(value):
        skip = _LEFT_OUT.get(type(value), ())
        for f in dataclasses.fields(value):
            if f.name not in skip:
                yield from _lines(f"{prefix}.{f.name}", getattr(value, f.name))
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from _lines(f"{prefix}.{k}", value[k])
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _lines(f"{prefix}[{i}]", v)
    elif isinstance(value, float):
        yield f"{prefix}={value.hex()}"
    else:  # bool or int
        yield f"{prefix}={value!r}"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _workload_lines(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    ops = getattr(workloads, f"setup_{name}")(workloads.DEFAULT_SEED)
    if name == "quadrature_solve":
        # its mixtures and its from_density measure ("smooth") call erf or
        # exp, so only its tabulated measures' ops are hashed
        kinds = {f"quad{i}": record["kind"] for i, record in
                 enumerate(workloads._quadrature_records(np.random.default_rng(0)))}
        ops = [op for op in ops if kinds.get(op.key.split("|")[0]) == "tabulated"]
        assert len(ops) == 9
    for op in ops:
        yield from _lines(op.key, op.run())


@pytest.mark.parametrize("name", ["closed_form_sweep", "quadrature_solve",
                                  "take_search", "oracle_crosscheck"])
def test_workload_outputs_keep_their_digest(monkeypatch, name):
    assert _digest(_workload_lines(monkeypatch, name)) == DIGESTS[name]


def test_bundled_sweeps_keep_their_digest():
    csvs = (sweep_csv(load_scenario(path), FP_TOL, True)
            for _, path in sorted(bundled_scenarios().items()))
    assert _digest(csvs) == DIGESTS["sweep_csv"]
