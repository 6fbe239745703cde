"""The demonstration-experiment runners produce artifacts and sane metrics."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasekit.io as pkio
from phasekit.repro import midpoint_times, run_example

HEADER = {"tool": "phasekit test", "command": "repro"}


def test_midpoint_grid_offsets_samples_by_half():
    t = midpoint_times(4, 2.0)
    assert np.allclose(t, [0.25, 0.75, 1.25, 1.75])


def test_example_1_sweep_agrees_across_bases(tmp_path):
    metrics = run_example(1, tmp_path, HEADER)
    assert metrics["max_abs_closure_2pi"] <= 1e-9
    assert metrics["max_abs_negation_pi"] <= 1e-9
    assert metrics["max_abs_dft_dct_gap"] <= 1e-8
    for basis in ("dft", "dct"):
        header, names, cols = pkio.read_columns_csv(
            tmp_path / "example1" / f"phase_sweep_{basis}.csv")
        assert len(names) == 1 + 41
        assert header["basis"] == basis
        assert header["grid"] == "midpoint"
        # the time column carries the midpoint grid
        assert cols[0][0] == pytest.approx(0.0005)
    stored = json.loads((tmp_path / "example1" / "summary.json").read_text())
    assert stored == metrics


def test_example_4_order_sweep(tmp_path):
    metrics = run_example(4, tmp_path, HEADER)
    assert metrics["order1_interior_rel_l2"] <= 1e-6
    assert metrics["order05_interior_rel_l2"] <= 1e-3
    _, names, cols = pkio.read_columns_csv(tmp_path / "example4" / "derivative_orders.csv")
    assert names == ["t", "order_0", "order_0.25", "order_0.5", "order_0.75", "order_1"]
    # order 0 column reproduces the input sine
    t = cols[0]
    assert np.max(np.abs(cols[1] - np.sin(2 * np.pi * t))) < 1e-9
    _, names_i, cols_i = pkio.read_columns_csv(tmp_path / "example4" / "integral_orders.csv")
    assert names_i == names
    # order-1 integral of sin is -cos/(2 pi) up to the constant of integration
    slope = np.diff(cols_i[5])[:100] * 1000.0
    assert np.max(np.abs(slope - np.sin(2 * np.pi * t[:100]))) < 1e-2


def test_example_5_wavelet_sweep(tmp_path):
    metrics = run_example(5, tmp_path, HEADER)
    assert metrics["reconstruction_rel_l2"] <= 0.02
    assert metrics["wqt_vs_hilbert_interior_rel_l2"] <= 0.05
    _, names, cols = pkio.read_columns_csv(tmp_path / "example5" / "wpt_sweep.csv")
    assert len(names) == 1 + 21
    # first sweep column is the (reconstructed) input, last is the 2 pi turn
    assert np.max(np.abs(cols[1] - cols[21])) < 1e-10


def test_rejects_unknown_example(tmp_path):
    with pytest.raises(ValueError):
        run_example(6, tmp_path, HEADER)


def test_phase_sweep_demo_script_agrees_across_routes(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "phase_sweep_demo.py"
    out = tmp_path / "demo.csv"
    proc = subprocess.run([sys.executable, str(script), "-o", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    errors = {line.split()[0]: float(line.split()[-1])
              for line in proc.stdout.splitlines() if "interior rel L2" in line}
    # a run of the defaults printed 2.6e-15, 9.4e-4 and 7.2e-4
    assert errors["dft"] < 1e-14
    assert errors["dct"] < 2e-3
    assert errors["wavelet"] < 1.5e-3
    _, names, cols = pkio.read_columns_csv(out)
    assert names == ["t", "original", "via_dft", "via_dct", "via_wavelet", "shifted_tone"]
    assert len(cols) == 6
