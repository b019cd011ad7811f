"""The BENCH files at the repository root: one per benchmark workload, each
naming every end-to-end metric of BENCHMARK.json with its unit
(``scripts/save_bench.py`` writes them)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_file_names_every_end_to_end_metric(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert record["workload"] == workload
    assert len(record["commit"]) == 40
    assert record["correct"] and record["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert record["metrics"][metric["name"]]["value"] > 0, metric["name"]
