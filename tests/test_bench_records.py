"""Layout of the committed benchmark records, BENCH_<n>.json at the repository root.

Each record compares a change with its parent on the workloads and end-to-end
metrics that BENCHMARK.json declares. The parent commit is not looked up in
git: a shallow checkout may not hold it.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))
TOP_KEYS = {"change", "parent_commit", "command", "method", "environment", "claim", "workloads"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert TOP_KEYS <= set(record)
    assert record["claim"]["workload"] in WORKLOADS
    assert record["claim"]["metric"] in METRICS
    assert set(record["workloads"]) == WORKLOADS
    for name, runs in record["workloads"].items():
        assert runs, name
        for run in runs:
            assert {"seed", "alternated_pairs", "failed"} <= set(run), name
            assert run["failed"] == {"parent": 0, "change": 0}, (name, run["seed"])
            assert set(run["metrics"]) == METRICS, (name, run["seed"])
            for metric, sides in run["metrics"].items():
                for side in ("parent", "change"):
                    assert {"median", "q1", "q3", "iqr"} <= set(sides[side]), (name, metric)
