"""api-compute worker: in-process library calls on arrays held in memory.

    python api_worker.py measure --seed N --seconds S --verified IN.json --out OUT.json
    python api_worker.py layers  --seed N --overhead-rounds K --spans SPANS.json --out OUT.json

``measure`` times rounds of the api-compute operations after its own set-up
(import, input generation, FFT-plan warm-up).  Right before each call it
times a fixed numpy.fft pair (``Reference``) and keeps the ratio of the two,
which follows the machine's speed (README.md, "Machine speed").  ``layers`` times each layer's
public functions one by one, with spans, for the traced run; with
``--overhead-rounds`` it also runs untraced and traced rounds in turn, whose
difference is the tracing overhead.

An output whose digest was already verified in this run is accepted; any
other output is checked in full against its closed form or numpy.fft
reference, so a result that differs in the last bit is still checked, not
refused.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import sys
import time
import tracemalloc
import warnings

import numpy as np

import checks
import inputs
from harness import API_REFERENCE_S, median, per_op_wall
from spans import Tracer, duration, instrument


class Data:
    """The seeded in-memory inputs and the parameters of every call."""

    def __init__(self, seed: int):
        spec = inputs.api_inputs(seed)
        self.tones, self.tones_prime = spec["tones"], spec["tones_prime"]
        self.tones_sweep, self.two_tone = spec["tones_sweep"], spec["two_tone"]
        self.x, self.x_prime = self.tones.samples(), self.tones_prime.samples()
        self.x_sweep, self.w = self.tones_sweep.samples(), self.two_tone.samples()
        self.image = spec["image"].astype(float)
        p = inputs.rng_for(seed, "api-params")
        self.alpha = float(p.uniform(0.3, 2.8))
        self.delay = float(p.uniform(0.1, 4.9))
        self.order = float(p.uniform(0.25, 0.75))
        self.sweep_alphas = np.arange(41) * math.pi / 20


def operations(pk, d: Data) -> dict:
    """name -> (call, check).  The check receives the call's output."""
    profile = pk.PhaseProfile.constant(d.alpha)
    ops = {}
    for tag, x, tones in (("", d.x, d.tones), ("_prime", d.x_prime, d.tones_prime)):
        ops.update({
            f"pt_dft{tag}": (lambda x=x: pk.pt_dft(x, profile).samples,
                             lambda y, t=tones: checks.close("pt_dft", y, t.shifted(d.alpha))),
            f"pt_dct{tag}": (lambda x=x: pk.pt_dct(x, profile).samples,
                             lambda y, t=tones: checks.close("pt_dct", y, t.shifted(d.alpha))),
            f"hilbert{tag}": (lambda x=x: pk.hilbert(x).samples,
                              lambda y, t=tones: checks.close("hilbert", y, t.shifted(math.pi / 2))),
            f"frac_delay_dft{tag}": (
                lambda x=x: pk.frac_delay_dft(x, d.delay).samples,
                lambda y, t=tones: checks.close("frac_delay_dft", y, t.shifted(delay=d.delay))),
            f"frac_delay_dct{tag}": (
                lambda x=x: pk.frac_delay_dct(x, d.delay).samples,
                lambda y, t=tones: checks.close("frac_delay_dct", y, t.shifted(delay=d.delay))),
            f"frac_differintegrate{tag}": (
                lambda x=x: pk.frac_differintegrate(x, d.order).samples,
                lambda y, t=tones: checks.close("frac_differintegrate", y, t.differintegrated(d.order, 1.0))),
        })
    ops["sweep41"] = (
        lambda: np.stack([pk.pt_dft(d.x_sweep, pk.PhaseProfile.constant(a)).samples
                          for a in d.sweep_alphas]),
        lambda y: sum((checks.close(f"sweep alpha {a:.6f}", row, d.tones_sweep.shifted(a))
                       for a, row in zip(d.sweep_alphas, y)), []))
    ops["pt2d"] = (lambda: pk.pt2d(d.image, d.alpha).pixels,
                   lambda y: checks.close("pt2d", y, checks.pt2d_ref(d.image, d.alpha)))
    ops["analytic2d"] = (lambda: pk.analytic2d(d.image),
                         lambda y: checks.close("analytic2d", y, checks.analytic2d_ref(d.image)))
    analytic = {}

    def wavelet_call():
        analytic["z"] = pk.wavelet_analytic_signal(d.w)
        return analytic["z"]

    ops["wavelet_analytic_signal"] = (
        wavelet_call, lambda z: checks.check_wavelet(z, d.two_tone, "wavelet_analytic_signal"))
    ops["wpt"] = (lambda: pk.wpt(d.w, d.alpha).samples,
                  lambda y: checks.check_wpt(y, analytic["z"], d.alpha, "wpt"))
    return ops


def warm_up(pk, d: Data) -> None:
    """Build the FFT plans of every length once, so no timed call pays for them."""
    for x in (d.x, d.x_prime):
        pk.idft(pk.dft(x))
        pk.dct2_inverse(pk.dct2_forward(x))
        pk.fcqt(x)
    pk.idft(pk.dft(d.x_sweep))
    pk.idft2d(pk.dft2d(d.image))
    pk.awt(d.w)


class Reference:
    """A numpy.fft forward and inverse pair on a fixed 2^20-point complex array.

    It owes nothing to phasekit and works on arrays of the size of the
    api-compute calls, so a slower or busier processor slows it as it slows
    them.  Calling it returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(2 ** 20) + 1j * rng.standard_normal(2 ** 20)
        self()

    def __call__(self) -> float:
        start = time.perf_counter()
        np.fft.ifft(np.fft.fft(self.x))
        return time.perf_counter() - start


def digest(y) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


class Runner:
    """Times each call and the reference before it, then accepts a verified
    digest or checks the output in full."""

    def __init__(self, ops: dict, verified: dict, reference: Reference):
        self.ops = ops
        self.reference = reference
        self.verified = {name: set(v) for name, v in verified.items()}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def round(self, latencies: dict, ratios: dict) -> float:
        """One call of each operation; `latencies` gets each call's seconds
        and `ratios` each call's time over the reference timed before it."""
        start = time.perf_counter()
        for name, (call, check) in self.ops.items():
            self.attempted += 1
            ref = self.reference()
            t0 = time.perf_counter()
            try:
                y = call()
            except Exception as exc:   # an operation that raises counts as failed
                self.failed += 1
                print(f"api-compute {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            latencies.setdefault(name, []).append(elapsed)
            ratios.setdefault(name, []).append(elapsed / ref)
            key = digest(y)
            if key in self.verified.get(name, ()):
                continue
            found = check(y)
            if found:
                self.problems += [f"{name}: {p}" for p in found]
            else:
                self.verified.setdefault(name, set()).add(key)
        return time.perf_counter() - start


def set_up(seed: int):
    start = time.perf_counter()
    import phasekit as pk
    d = Data(seed)
    warm_up(pk, d)
    return pk, d, time.perf_counter() - start


def measure(args) -> tuple[dict, Runner]:
    pk, d, setup_s = set_up(args.seed)
    reference = Reference()
    setup_refs = [reference() for _ in range(5)]
    with open(args.verified) as fh:
        runner = Runner(operations(pk, d), json.load(fh), reference)
    latencies: dict = {}
    ratios: dict = {}
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + median(walls) <= args.seconds:
        walls.append(runner.round(latencies, ratios))
    return {"setup_s": setup_s, "setup_ratio": setup_s / median(setup_refs),
            "latencies": latencies, "ratios": ratios, "round_walls": walls}, runner


def probe(tracer: Tracer, name: str, call, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        with tracer.span(f"probe.{name}") as record:
            call()
        times.append(duration(record))
    return median(times) * 1e3


def layers(args) -> tuple[dict, Runner]:
    pk, d, _ = set_up(args.seed)
    runner = Runner(operations(pk, d), {}, Reference())
    tracer = Tracer()
    result = {}
    if args.overhead_rounds:
        # compared at the reference speed, like the end-to-end wall_s
        plain, traced = {}, {}
        for _ in range(args.overhead_rounds):
            runner.round({}, plain)
            undo = instrument(tracer, op="api-compute")
            runner.round({}, traced)
            undo()
        result["trace.overhead_s"] = (per_op_wall(traced) - per_op_wall(plain)) * API_REFERENCE_S
    instrument(tracer, op="layer-probes")
    timed = functools.partial(probe, tracer)
    x, xp = d.x, d.x_prime
    profile = pk.PhaseProfile.constant(d.alpha)
    m = {
        "spectral.fft_pair_ms": timed("fft_pair", lambda: pk.idft(pk.dft(x))),
        "spectral.fft_pair_prime_ms": timed("fft_pair_prime", lambda: pk.idft(pk.dft(xp))),
        "spectral.dct_pair_ms": timed("dct_pair", lambda: pk.dct2_inverse(pk.dct2_forward(x))),
        "spectral.analytic_signal_ms": timed("analytic_signal", lambda: pk.analytic_signal(x)),
        "phase.pt_dft_ms": timed("pt_dft", lambda: pk.pt_dft(x, profile)),
        "phase.pt_dft_prime_ms": timed("pt_dft_prime", lambda: pk.pt_dft(xp, profile)),
        "phase.pt_dct_ms": timed("pt_dct", lambda: pk.pt_dct(x, profile)),
        "phase.hilbert_ms": timed("hilbert", lambda: pk.hilbert(x)),
        "phase.sweep41_ms": timed("sweep41", runner.ops["sweep41"][0]),
        "fractional.frac_delay_dft_ms": timed("frac_delay_dft", lambda: pk.frac_delay_dft(x, d.delay)),
        "fractional.frac_delay_dct_ms": timed("frac_delay_dct", lambda: pk.frac_delay_dct(x, d.delay)),
        "fractional.frac_differintegrate_ms": timed("frac_differintegrate",
                                                    lambda: pk.frac_differintegrate(x, d.order)),
        "image.mask_build_ms": timed("mask_build",
                                     lambda: pk.HalfPlaneMask.build(*d.image.shape, d.alpha)),
        "image.pt2d_ms": timed("pt2d", lambda: pk.pt2d(d.image, d.alpha)),
        "image.analytic2d_ms": timed("analytic2d", lambda: pk.analytic2d(d.image)),
        "wavelet.awt_ms": timed("awt", lambda: pk.awt(d.w)),
        "wavelet.cpsi_delta_ms": timed("cpsi_delta", lambda: pk.cpsi_delta(pk.MorseWavelet())),
        "wavelet.analytic_signal_ms": timed("wavelet_analytic_signal",
                                            lambda: pk.wavelet_analytic_signal(d.w)),
    }
    m["phase.pt_dft_overhead_ms"] = m["phase.pt_dft_ms"] - m["spectral.fft_pair_ms"]
    tracemalloc.start()
    pk.wavelet_analytic_signal(d.w)
    m["wavelet.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    m["wavelet.scales"] = int(pk.ScaleGrid.default(d.w.size, pk.MorseWavelet()).scales.size)
    result.update(m)
    tracer.dump(args.spans)
    return result, runner


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("measure", "layers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--verified", help="digests already verified in this run")
    parser.add_argument("--overhead-rounds", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    warnings.simplefilter("ignore", RuntimeWarning)   # the mean-term warning of mu > 0
    result, runner = (measure if args.mode == "measure" else layers)(args)
    result.update(problems=runner.problems, attempted=runner.attempted, failed=runner.failed,
                  verified={k: sorted(v) for k, v in runner.verified.items()},
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
