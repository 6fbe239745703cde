"""Reference experiments: signal builders, error metrics, and artifact writers.

Each ``run_example_*`` regenerates one of the five demonstration experiments
with fixed parameters, writes plot-ready CSV data into its directory and
returns the error metrics the acceptance suite asserts on; :func:`run_example`
gives it ``outdir/exampleN`` and writes the metrics there, last, as
``summary.json``.  Each file goes through :func:`phasekit.io.output_file`.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import io as pkio
from .fractional import frac_delay_dft, frac_differintegrate
from .phase import hilbert, pt_sweep
from .spectral import Signal
from .wavelet import wavelet_analytic_signal


def midpoint_times(n: int, sample_rate: float) -> np.ndarray:
    """Cell-midpoint sample instants (n + 1/2) / rate.

    On this grid a function symmetric about the record center is symmetric
    about the DCT-2 mirror point, so its symmetric 2N-extension coincides
    with the DFT's N-periodic extension; the DFT/DCT phase-transform
    comparison is only meaningful under that alignment.
    """
    return (np.arange(n) + 0.5) / sample_rate


def example1_signal() -> Signal:
    """Gaussian exp(-(t-2.5)^2) on [0, 5) at 1 kHz, midpoint-sampled."""
    t = midpoint_times(5000, 1000.0)
    return Signal(np.exp(-(t - 2.5) ** 2), 1000.0)


def example2_signal() -> Signal:
    """sin(2 pi t) on [0, 1) at 1 kHz, midpoint-sampled."""
    t = midpoint_times(1000, 1000.0)
    return Signal(np.sin(2.0 * np.pi * t), 1000.0)


def example3_gaussian() -> tuple[Signal, float]:
    """Gaussian exp(-(t-5)^2) on [0, 10) at 10 Hz and its 0.9-sample delay."""
    t = np.arange(100) / 10.0
    return Signal(np.exp(-(t - 5.0) ** 2), 10.0), 0.9


def example3_cosine() -> tuple[Signal, float]:
    """cos(pi t) on [0, 100) at 1 Hz and its 0.7-sample delay."""
    t = np.arange(100) / 1.0
    return Signal(np.cos(np.pi * t), 1.0), 0.7


def example4_signal() -> Signal:
    """sin(2 pi t) on [0, 10) at 1 kHz."""
    t = np.arange(10000) / 1000.0
    return Signal(np.sin(2.0 * np.pi * t), 1000.0)


def example5_signal() -> Signal:
    """cos(2 pi t) on [0, 5) at 1 kHz."""
    t = np.arange(5000) / 1000.0
    return Signal(np.cos(2.0 * np.pi * t), 1000.0)


def interior(n: int) -> slice:
    """Central 90 % of an n-sample record."""
    margin = int(round(n * (1.0 - 0.9) / 2.0))
    return slice(margin, n - margin)


def rel_l2(estimate: np.ndarray, truth: np.ndarray, window: slice | None = None) -> float:
    """Relative L2 error over an optional window."""
    if window is not None:
        estimate = estimate[window]
        truth = truth[window]
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _dft_dct_sweep(directory: Path, sig: Signal, alphas, meta: dict) -> tuple[np.ndarray, float]:
    """Write the DFT and DCT phase sweeps of ``sig`` on its midpoint grid;
    returns the DFT sweep and the largest DFT-vs-DCT gap."""
    t = midpoint_times(len(sig), sig.sample_rate)
    names = ["t"] + [f"alpha_{a:.6f}" for a in alphas]
    sweeps = {basis: pt_sweep(sig, alphas, basis) for basis in ("dft", "dct")}
    for basis, columns in sweeps.items():
        pkio.write_columns_csv(directory / f"phase_sweep_{basis}.csv",
                               dict(meta, grid="midpoint", basis=basis), names, [t, *columns])
    return sweeps["dft"], float(np.max(np.abs(sweeps["dft"] - sweeps["dct"])))


def run_example_1(directory: Path, header: dict) -> dict:
    sig = example1_signal()
    dft_cols, gap = _dft_dct_sweep(directory, sig, np.arange(41) * np.pi / 20.0,
                                   dict(header, signal="exp(-(t-2.5)^2)", sample_rate=1000,
                                        alpha_step="pi/20"))
    return {
        "max_abs_closure_2pi": float(np.max(np.abs(dft_cols[-1] - sig.samples))),
        "max_abs_negation_pi": float(np.max(np.abs(dft_cols[20] + sig.samples))),
        "max_abs_dft_dct_gap": gap,
    }


def run_example_2(directory: Path, header: dict) -> dict:
    _, gap = _dft_dct_sweep(directory, example2_signal(), np.arange(21) * np.pi / 10.0,
                            dict(header, signal="sin(2*pi*t)", sample_rate=1000,
                                 alpha_step="pi/10"))
    return {"max_abs_dft_dct_gap": gap}


def run_example_3(directory: Path, header: dict) -> dict:
    metrics = {}
    for name, (sig, n0), truth_fn in (
        ("gaussian", example3_gaussian(),
         lambda t, t0: np.exp(-(t - t0 - 5.0) ** 2)),
        ("cosine", example3_cosine(),
         lambda t, t0: np.cos(np.pi * (t - t0))),
    ):
        t = sig.times
        t0 = n0 / sig.sample_rate
        delayed = frac_delay_dft(sig, n0).samples
        truth = truth_fn(t, t0)
        error = delayed - truth
        pkio.write_columns_csv(
            directory / f"{name}_delay.csv",
            dict(header, signal=name, delay_samples=n0),
            ["t", "original", "delayed", "truth", "error"],
            [t, sig.samples, delayed, truth, error])
        metrics[f"{name}_max_abs_error"] = float(np.max(np.abs(error)))
    return metrics


def run_example_4(directory: Path, header: dict) -> dict:
    sig = example4_signal()
    t = sig.times
    orders = [0.0, 0.25, 0.5, 0.75, 1.0]
    derivative_cols = [frac_differintegrate(sig, mu).samples for mu in orders]
    integral_cols = [frac_differintegrate(sig, -mu).samples for mu in orders]
    names = ["t"] + [f"order_{mu:g}" for mu in orders]
    meta = dict(header, signal="sin(2*pi*t)", scaling="physical")
    for kind, columns in (("derivative", derivative_cols), ("integral", integral_cols)):
        pkio.write_columns_csv(directory / f"{kind}_orders.csv", meta, names, [t] + columns)
    win = interior(len(sig))
    truth1 = 2.0 * np.pi * np.cos(2.0 * np.pi * t)
    truth_half = np.sqrt(2.0 * np.pi) * np.sin(2.0 * np.pi * t + np.pi / 4.0)
    return {
        "order1_interior_rel_l2": rel_l2(derivative_cols[4], truth1, win),
        "order05_interior_rel_l2": rel_l2(derivative_cols[2], truth_half, win),
    }


def run_example_5(directory: Path, header: dict) -> dict:
    sig = example5_signal()
    z = wavelet_analytic_signal(sig)
    alphas = np.arange(21) * np.pi / 10.0
    columns = [(z * np.exp(-1j * a)).real for a in alphas]
    names = ["t"] + [f"alpha_{a:.6f}" for a in alphas]
    pkio.write_columns_csv(directory / "wpt_sweep.csv",
                           dict(header, signal="cos(2*pi*t)", alpha_step="pi/10",
                                wavelet="morse beta=20 gamma=3 voices=10"),
                           names, [sig.times] + columns)
    win = interior(len(sig))
    quadrature_truth = hilbert(sig).samples
    return {
        "reconstruction_rel_l2": rel_l2(z.real, sig.samples, win),
        "wqt_vs_hilbert_interior_rel_l2": rel_l2(z.imag, quadrature_truth, win),
    }


_RUNNERS = {1: run_example_1, 2: run_example_2, 3: run_example_3,
            4: run_example_4, 5: run_example_5}


def run_example(number: int, outdir, header: dict) -> dict:
    """Regenerate one demonstration experiment; returns its error metrics."""
    if number not in _RUNNERS:
        raise ValueError(f"example number must be 1..5, got {number}")
    directory = Path(outdir) / f"example{number}"
    pkio._make_dirs(directory)
    metrics = _RUNNERS[number](directory, header)
    with pkio.output_file(directory / "summary.json") as fh:
        fh.write((json.dumps(metrics, indent=2, sort_keys=True) + "\n").encode())
    return metrics
