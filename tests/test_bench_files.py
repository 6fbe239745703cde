"""The committed benchmark trajectory (BENCH_*.json) reads back against BENCHMARK.json."""
import importlib.util
import json
import runpy
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
            # files recorded before the raw values were kept have none
            assert set(run.get("raw", run["metrics"])) == set(run["metrics"])
        for run in entry["runs"]:
            assert set(run["metrics"]) == set(entry["units"])
            assert run["reference_ms"] > 0
        # files recorded before traced runs had the reference timed hold null
        assert entry["trace"]["reference_ms"] is None or entry["trace"]["reference_ms"] > 0


def test_recorder_reads_the_raw_values_run_prints(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    result = run.Result()
    result.metrics = {"setup_s": (2.5, "s"), "op_geomean_ms": (400.0, "ms"),
                      "io.bytes_read": (4794650.0, "bytes")}
    result.scaled = {"op_geomean_ms"}
    result.raw = {"op_geomean_ms": 512.5}
    result.emit([run.REFERENCE_S * 1.25])
    recorder = runpy.run_path(str(ROOT / "scripts" / "bench_record.py"))
    assert recorder["raw_values"](capsys.readouterr().out) == {
        "setup_s": 2.5, "op_geomean_ms": 512.5, "io.bytes_read": 4794650.0}
