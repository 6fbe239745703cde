"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all;
failures surface through the assertion as usual).
"""
import time

import numpy as np
import pytest
import scipy.signal

import phasekit as pk
from phasekit.repro import (
    example1_signal,
    example2_signal,
    example3_cosine,
    example3_gaussian,
    example4_signal,
    example5_signal,
    interior,
    rel_l2,
)
from oracles import (
    bandlimited_signal,
    dct2_direct,
    dft_direct,
    fcqt_direct,
    pt2d_direct,
    circular_convolve_2d,
    zero_mean_zero_nyquist,
)


def _report(number: int, description: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:02d} [{status}] {description}: {detail}")
    assert ok, f"criterion {number}: {description}: {detail}"


def test_criterion_01_fractional_delay_gaussian():
    sig, n0 = example3_gaussian()
    start = time.perf_counter()
    delayed = pk.frac_delay_dft(sig, n0).samples
    elapsed = time.perf_counter() - start
    truth = np.exp(-(sig.times - n0 / sig.sample_rate - 5.0) ** 2)
    error = float(np.max(np.abs(delayed - truth)))
    _report(1, "fractional delay of the Gaussian", error <= 1e-9 and elapsed < 1.0,
            f"max abs error {error:.3e} (<= 1e-9), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_02_fractional_delay_cosine():
    sig, n0 = example3_cosine()
    delayed = pk.frac_delay_dft(sig, n0).samples
    truth = np.cos(np.pi * (sig.times - n0))
    error = float(np.max(np.abs(delayed - truth)))
    _report(2, "fractional delay of cos(pi t)", error <= 1e-12,
            f"max abs error {error:.3e} (<= 1e-12)")


def test_criterion_03_phase_sweep_closure():
    sig = example1_signal()
    full_turn = pk.pt_dft(sig, pk.PhaseProfile.constant(2 * np.pi)).samples
    half_turn = pk.pt_dft(sig, pk.PhaseProfile.constant(np.pi)).samples
    closure = float(np.max(np.abs(full_turn - sig.samples)))
    negation = float(np.max(np.abs(half_turn + sig.samples)))
    _report(3, "phase sweep closes at 2 pi and negates at pi",
            closure <= 1e-9 and negation <= 1e-9,
            f"closure {closure:.3e}, negation {negation:.3e} (<= 1e-9)")


def test_criterion_04_dft_dct_agreement_and_difference():
    gauss = example1_signal()
    gap_gauss = 0.0
    for alpha in np.arange(41) * np.pi / 20:
        profile = pk.PhaseProfile.constant(alpha)
        a = pk.pt_dft(gauss, profile).samples
        b = pk.pt_dct(gauss, profile).samples
        gap_gauss = max(gap_gauss, float(np.max(np.abs(a - b))))
    sine = example2_signal()
    gap_sine = 0.0
    for alpha in np.arange(21) * np.pi / 10:
        profile = pk.PhaseProfile.constant(alpha)
        a = pk.pt_dft(sine, profile).samples
        b = pk.pt_dct(sine, profile).samples
        gap_sine = max(gap_sine, float(np.max(np.abs(a - b))))
    _report(4, "DFT and DCT phase transforms agree on the Gaussian, differ on the sine",
            gap_gauss <= 1e-8 and gap_sine > 0.1,
            f"Gaussian gap {gap_gauss:.3e} (<= 1e-8), sine gap {gap_sine:.3f} (> 0.1)")


def test_criterion_05_fractional_derivatives_of_sine():
    sig = example4_signal()
    t = sig.times
    win = interior(len(sig))
    first = pk.frac_differintegrate(sig, 1.0).samples
    err1 = rel_l2(first, 2 * np.pi * np.cos(2 * np.pi * t), win)
    half = pk.frac_differintegrate(sig, 0.5).samples
    err_half = rel_l2(half, np.sqrt(2 * np.pi) * np.sin(2 * np.pi * t + np.pi / 4), win)
    _report(5, "fractional derivatives of sin(2 pi t)",
            err1 <= 1e-6 and err_half <= 1e-3,
            f"order 1 rel L2 {err1:.3e} (<= 1e-6), order 0.5 {err_half:.3e} (<= 1e-3)")


def test_criterion_06_randomized_property_suite():
    rng = np.random.default_rng(2024)
    lengths = (64, 257, 1000)
    trials = 1000
    worst = {"composition": 0.0, "inversion": 0.0, "periodicity": 0.0,
             "linearity": 0.0, "energy": 0.0, "orthogonality": 0.0}
    for trial in range(trials):
        n = lengths[trial % len(lengths)]
        x = zero_mean_zero_nyquist(rng.standard_normal(n))
        x /= np.max(np.abs(x))
        a1, a2 = rng.uniform(0.0, 2 * np.pi, 2)
        p1, p2 = pk.PhaseProfile.constant(a1), pk.PhaseProfile.constant(a2)
        once = pk.pt_dft(x, p1).samples
        twice = pk.pt_dft(once, p2).samples
        direct = pk.pt_dft(x, pk.PhaseProfile.constant(a1 + a2)).samples
        worst["composition"] = max(worst["composition"],
                                   float(np.max(np.abs(twice - direct))))
        back = pk.pt_dft(once, pk.PhaseProfile.constant(-a1)).samples
        worst["inversion"] = max(worst["inversion"], float(np.max(np.abs(back - x))))
        wrapped = pk.pt_dft(x, pk.PhaseProfile.constant(a1 + 2 * np.pi)).samples
        worst["periodicity"] = max(worst["periodicity"],
                                   float(np.max(np.abs(wrapped - once))))
        y = zero_mean_zero_nyquist(rng.standard_normal(n))
        c1, c2 = rng.standard_normal(2)
        mixed = pk.pt_dft(c1 * x + c2 * y, p1).samples
        split = c1 * once + c2 * pk.pt_dft(y, p1).samples
        worst["linearity"] = max(worst["linearity"], float(np.max(np.abs(mixed - split))))
        worst["energy"] = max(worst["energy"],
                              abs(float(np.sum(once**2) - np.sum(x**2))))
        ratio = float(np.dot(x, once) / np.dot(x, x))
        worst["orthogonality"] = max(worst["orthogonality"], abs(ratio - np.cos(a1)))
    ok = (worst["composition"] <= 1e-9 and worst["inversion"] <= 1e-9
          and worst["periodicity"] <= 1e-9 and worst["linearity"] <= 1e-9
          and worst["energy"] <= 1e-9 and worst["orthogonality"] <= 1e-8)
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(6, f"{trials} randomized trials of PT identities", ok, detail)


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_1d = 0.0
    for n in (1, 2, 7, 64, 127, 256, 511, 512):
        x = rng.standard_normal(n)
        worst_1d = max(worst_1d, float(np.max(np.abs(pk.dft(x).bins - dft_direct(x)))))
        worst_1d = max(worst_1d, float(np.max(np.abs(
            pk.dct2_forward(pk.Signal(x)).bins - dct2_direct(x)))))
        worst_1d = max(worst_1d, float(np.max(np.abs(
            pk.fcqt(x).samples - fcqt_direct(x)))))
    worst_2d = 0.0
    for shape in ((8, 8), (16, 12), (33, 17), (64, 64)):
        img = rng.standard_normal(shape)
        for alpha in (0.0, 1.1, np.pi / 2):
            fast = pk.pt2d(img, alpha).pixels
            slow = pt2d_direct(img, alpha)
            worst_2d = max(worst_2d, float(np.max(np.abs(fast - slow))))
    _report(7, "direct-summation oracle equivalence",
            worst_1d <= 1e-9 and worst_2d <= 1e-8,
            f"1-D transforms {worst_1d:.3e} (<= 1e-9), 2-D PT {worst_2d:.3e} (<= 1e-8)")


def test_criterion_08_bedrosian_products():
    rng = np.random.default_rng(8)
    n = 1024
    worst = 0.0
    for _ in range(20):
        split_at = rng.integers(12, 40)
        low = bandlimited_signal(rng, n, range(1, split_at - 4))
        high = bandlimited_signal(rng, n, range(split_at, split_at + 60))
        alpha = rng.uniform(0.0, 2 * np.pi)
        profile = pk.PhaseProfile.constant(alpha)
        lhs = pk.pt_dft(low * high, profile).samples
        rhs = low * pk.pt_dft(high, profile).samples
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(8, "PT of 20 band-separated products splits over the factors",
            worst <= 1e-6, f"max abs deviation {worst:.3e} (<= 1e-6)")


def test_criterion_09_wavelet_quadrature():
    sig = example5_signal()
    win = interior(len(sig))
    z = pk.wavelet_analytic_signal(sig)
    recon_err = rel_l2(z.real, sig.samples, win)
    truth = scipy.signal.hilbert(sig.samples).imag
    wqt_err = rel_l2(z.imag, truth, win)
    worst_identity = 0.0
    for alpha in (0.4, np.pi / 2, 2.0, 5.5):
        direct = (z * np.exp(-1j * alpha)).real
        split = np.cos(alpha) * z.real + np.sin(alpha) * z.imag
        worst_identity = max(worst_identity, float(np.max(np.abs(direct - split))))
    _report(9, "wavelet quadrature against the FFT Hilbert oracle",
            wqt_err <= 0.05 and recon_err <= 0.02 and worst_identity <= 1e-10,
            f"WQT rel L2 {wqt_err:.3e} (<= 5e-2), reconstruction {recon_err:.3e} "
            f"(<= 2e-2), rotation identity {worst_identity:.2e} (<= 1e-10)")


def test_criterion_10_two_dimensional_suite():
    rows = cols = 64
    m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    theta = 2 * np.pi * (3 * m + 5 * n) / 64
    wave_err = 0.0
    for alpha in (0.3, np.pi / 2, 2.2):
        out = pk.pt2d(np.cos(theta), alpha).pixels
        wave_err = max(wave_err, float(np.max(np.abs(out - np.cos(theta - alpha)))))

    rng = np.random.default_rng(10)
    img = rng.standard_normal((8, 6))
    mask = pk.HalfPlaneMask.build(8, 6, 1.3).values
    conv = circular_convolve_2d(img, np.fft.ifft2(mask).real)
    conv_err = float(np.max(np.abs(conv - pk.pt2d(img, 1.3).pixels)))

    w1 = 2 * np.pi * 9 / rows
    w2 = 2 * np.pi * 4 / cols
    sep_err = 0.0
    for img2, want in (
        (np.cos(w1 * m) * np.cos(w2 * n), np.sin(w1 * m) * np.cos(w2 * n)),
        (np.sin(w1 * m) * np.sin(w2 * n),
         np.sin(w1 * m - np.pi / 2) * np.sin(w2 * n)),
        (np.sin(w1 * m) * np.cos(w2 * n),
         np.sin(w1 * m - np.pi / 2) * np.cos(w2 * n)),
    ):
        out = pk.pt2d(img2, np.pi / 2).pixels
        sep_err = max(sep_err, float(np.max(np.abs(out - want))))

    _report(10, "2-D suite: plane-wave shift, circular kernel, separable products",
            wave_err <= 1e-8 and conv_err <= 1e-10 and sep_err <= 1e-6,
            f"plane wave {wave_err:.3e} (<= 1e-8), kernel {conv_err:.3e} (<= 1e-10), "
            f"separable {sep_err:.3e} (<= 1e-6)")
