"""The committed benchmark trajectory (BENCH_*.json) reads back against BENCHMARK.json."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_exists():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_declared_metrics(path):
    record = json.loads(path.read_text())
    assert len(record["commit"]) == 40 and isinstance(record["dirty"], bool)
    assert set(record["workloads"]) <= {w["name"] for w in DECLARED["workloads"]}
    for entry in record["workloads"].values():
        assert set(entry["units"]) <= END_TO_END
        assert set(entry["median"]) == set(entry["units"])
        assert set(entry["trace"]["metrics"]) <= PER_LAYER
        for run in entry["runs"] + [entry["trace"]]:
            assert isinstance(run["correct"], bool)
            assert 0 <= run["failed"] <= run["attempted"]
        for run in entry["runs"]:
            assert set(run["metrics"]) == set(entry["units"])
