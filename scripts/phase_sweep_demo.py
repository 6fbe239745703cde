#!/usr/bin/env python3
"""Phase-shift a test tone by three routes and compare them.

Writes one CSV with the DFT-based, DCT-based, and wavelet-based phase
transforms of a pure test tone for one alpha, side by side with the
analytically shifted tone, and prints each route's interior relative L2
error, as a quick sanity check of their agreement in the interior.
"""
import argparse

import numpy as np

from phasekit import PhaseProfile, Signal, pt_dct, pt_dft, wpt
from phasekit.io import write_columns_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--freq", type=float, default=2.0, help="tone frequency (Hz)")
    parser.add_argument("--rate", type=float, default=500.0, help="sample rate (Hz)")
    parser.add_argument("--duration", type=float, default=4.0, help="seconds")
    parser.add_argument("--alpha", type=float, default=np.pi / 3)
    parser.add_argument("-o", "--output", default="phase_sweep_demo.csv")
    args = parser.parse_args()

    n = int(round(args.duration * args.rate))
    t = np.arange(n) / args.rate
    sig = Signal(np.cos(2 * np.pi * args.freq * t), args.rate)
    profile = PhaseProfile.constant(args.alpha)

    via_dft = pt_dft(sig, profile).samples
    via_dct = pt_dct(sig, profile).samples
    via_wavelet = wpt(sig, args.alpha).samples
    truth = np.cos(2 * np.pi * args.freq * t - args.alpha)

    write_columns_csv(
        args.output,
        {"tool": "phasekit scripts/phase_sweep_demo.py",
         "alpha": f"{args.alpha:.17g}", "freq": f"{args.freq:.17g}",
         "rate": f"{args.rate:.17g}"},
        ["t", "original", "via_dft", "via_dct", "via_wavelet", "shifted_tone"],
        [t, sig.samples, via_dft, via_dct, via_wavelet, truth])

    interior = slice(n // 10, n - n // 10)
    for name, col in (("dft", via_dft), ("dct", via_dct), ("wavelet", via_wavelet)):
        err = np.linalg.norm(col[interior] - truth[interior]) / np.linalg.norm(truth[interior])
        print(f"{name:8s} interior rel L2 vs shifted tone: {err:.3e}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
