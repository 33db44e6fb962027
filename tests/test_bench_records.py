"""Every committed BENCH_*.json record matches the benchmark it records.

A record holds, per workload of BENCHMARK.json, the parent's and the
change's runs of every end-to-end metric with their median and quartiles,
and the provenance of both sides.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
PROVENANCE = {"parent_commit", "change_commit", "cpu_model", "python", "numpy",
              "seed", "seconds"}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for workload in record["workloads"].values():
        for side in ("parent", "change"):
            assert set(workload[side]["end_to_end"]) >= metrics
    assert PROVENANCE <= set(record["provenance"])


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_medians_and_quartiles_are_those_of_the_runs(path):
    record = json.loads(path.read_text())
    for name, workload in record["workloads"].items():
        for side in ("parent", "change"):
            for metric, stats in workload[side]["end_to_end"].items():
                want = np.percentile(stats["runs"], [25, 50, 75]).tolist()
                got = [stats["q1"], stats["median"], stats["q3"]]
                assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want)), (
                    name, side, metric, got, want)
