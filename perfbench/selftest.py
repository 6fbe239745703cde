"""Show that every checker accepts the program's real output and rejects a
slightly perturbed one (a parameter off by 1e-6, or one sample changed).

    python3 perfbench/selftest.py

Runs phasekit in this process on small seeded inputs; exits 1 if any
checker accepts a perturbed output or rejects a correct one.
"""
from __future__ import annotations

import sys
import warnings

import numpy as np

import checks
import inputs
from harness import ROOT, WORK

sys.path.insert(0, str(ROOT / "src"))
import phasekit as pk                      # noqa: E402
from phasekit.cli import main as cli_main  # noqa: E402

DIR = WORK / "selftest"
N = 4096
RATE = float(inputs.SAMPLE_RATE)


def cli(*args) -> None:
    if cli_main([str(a) for a in args]) != 0:
        raise RuntimeError(f"phasekit {' '.join(map(str, args))} failed")


def change_one_sample(path, column: int, row: int = 7, delta: float = 1e-6) -> None:
    """Rewrite one data value of a column CSV."""
    lines = path.read_text().splitlines(keepends=True)
    data_rows = [i for i, ln in enumerate(lines) if ln[:1] not in "#t"]
    i = data_rows[row]
    fields = lines[i].rstrip("\n").split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[i] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def signal_cases(rec: inputs.Tones, p: inputs.CliParams):
    x = rec.samples()
    x32 = x.astype(np.float32).astype(float)
    csv, wav = DIR / "rec.csv", DIR / "rec.wav"
    inputs.write_signal_csv(csv, x, RATE)
    inputs.write_wav_float32(wav, x, inputs.SAMPLE_RATE)
    rate = inputs.CSV_RATE
    t_csv, t_wav = np.arange(N) / rate, np.arange(N) / RATE
    d = 1e-6
    specs = [   # name, command, perturbed value, column, times, original, reference
        ("pt", ["pt", csv, "--alpha"], p.alpha, "transformed", t_csv, x, rec.shifted(p.alpha)),
        ("pt-dct", ["pt", csv, "--basis", "dct", "--alpha"], p.alpha, "transformed", t_csv, x,
         rec.shifted(p.alpha)),
        ("delay", ["delay", csv, "--samples"], p.delay, "delayed", t_csv, x, rec.shifted(delay=p.delay)),
        ("differint", ["differint", csv, "--order"], p.order, "transformed", t_csv, x,
         rec.differintegrated(p.order, rate)),
        ("pt-wav", ["pt", wav, "--alpha"], p.alpha, "transformed", t_wav, x32,
         checks.pt_dft_ref(x32, p.alpha)),
        ("delay-wav", ["delay", wav, "--samples"], p.delay, "delayed", t_wav, x32,
         checks.delay_dft_ref(x32, p.delay)),
    ]
    for name, cmd, value, column, times, original, want in specs:
        out = DIR / f"{name}.csv"
        check = lambda: checks.check_signal_csv(out, column, times, original, want)  # noqa: E731
        cli(*cmd, repr(value), "-o", out)
        yield name, check()
        cli(*cmd, repr(value + d), "-o", out)
        yield f"{name}: parameter off by 1e-6", None if check() else "accepted"
        cli(*cmd, repr(value), "-o", out)
        change_one_sample(out, 2)
        yield f"{name}: one sample changed", None if check() else "accepted"


def wide_cases(sweep: inputs.Tones, image: np.ndarray, p: inputs.CliParams):
    xs = sweep.samples()
    src = DIR / "sweep.csv"
    inputs.write_signal_csv(src, xs, RATE)
    alphas = inputs.sweep_alphas()
    out = DIR / "sweep_out.csv"
    check = lambda: checks.check_sweep_csv(out, np.arange(N) / inputs.CSV_RATE, xs, alphas,  # noqa: E731
                                           [sweep.shifted(a) for a in alphas])
    cli("pt", src, "--alpha-sweep", inputs.SWEEP_SPEC, "-o", out)
    yield "sweep", check()
    change_one_sample(out, 30)
    yield "sweep: one sample changed", None if check() else "accepted"

    pgm, grid, preview = DIR / "image.pgm", DIR / "grid.csv", DIR / "preview.pgm"
    inputs.write_pgm(pgm, image)
    check = lambda: checks.check_image_outputs(grid, preview, image, p.image_alpha)  # noqa: E731
    cli("image-pt", pgm, "--alpha", repr(p.image_alpha), "--preview", preview, "-o", grid)
    yield "image-pt", check()
    cli("image-pt", pgm, "--alpha", repr(p.image_alpha + 1e-6), "--preview", preview, "-o", grid)
    yield "image-pt: alpha off by 1e-6", None if check() else "accepted"
    cli("image-pt", pgm, "--alpha", repr(p.image_alpha), "--preview", preview, "-o", grid)
    raw = bytearray(preview.read_bytes())
    raw[-100] = (raw[-100] + 3) % 256
    preview.write_bytes(bytes(raw))
    yield "image-pt: one preview pixel changed", None if check() else "accepted"

    for number, checker, column in ((1, checks.check_repro1, 5), (5, checks.check_repro5, 6)):
        outdir = DIR / f"repro{number}"
        cli("repro", number, "--outdir", outdir)
        yield f"repro {number}", checker(outdir)
        csv = next((outdir / f"example{number}").glob("*.csv"))
        change_one_sample(csv, column, delta=1e-6)
        yield f"repro {number}: one sample changed", None if checker(outdir) else "accepted"


def api_cases(seed: int):
    tones = inputs.make_tones(inputs.rng_for(seed, "api"), N + 1)   # odd length too
    x = tones.samples()
    alpha = 1.1
    prof = pk.PhaseProfile.constant
    for name, y, want in (
        ("pt_dft", pk.pt_dft(x, prof(alpha)).samples, tones.shifted(alpha)),
        ("pt_dct", pk.pt_dct(x, prof(alpha)).samples, tones.shifted(alpha)),
        ("frac_delay_dct", pk.frac_delay_dct(x, 2.3).samples, tones.shifted(delay=2.3)),
        ("frac_differintegrate", pk.frac_differintegrate(x, 0.4).samples,
         tones.differintegrated(0.4, 1.0)),
    ):
        yield f"api {name}", checks.close(name, y, want)
        bumped = y.copy()
        bumped[N // 3] += 1e-6
        yield f"api {name}: one sample changed", None if checks.close(name, bumped, want) else "accepted"
    y = pk.pt_dft(x, prof(alpha + 1e-6)).samples
    yield ("api pt_dft: alpha off by 1e-6",
           None if checks.close("pt_dft", y, tones.shifted(alpha)) else "accepted")

    img = inputs.make_image(inputs.rng_for(seed, "api-image"), (64, 48)).astype(float)
    got = pk.analytic2d(img)
    yield "api analytic2d", checks.close("analytic2d", got, checks.analytic2d_ref(img))
    yield ("api pt2d: alpha off by 1e-6",
           None if checks.close("pt2d", pk.pt2d(img, alpha + 1e-6).pixels, checks.pt2d_ref(img, alpha))
           else "accepted")

    signal = inputs.make_two_tone(inputs.rng_for(seed, "api-wavelet"))
    z = pk.wavelet_analytic_signal(signal.samples())
    yield "api wavelet_analytic_signal", checks.check_wavelet(z, signal, "wavelet")
    yield ("api wavelet: quadrature scaled by 0.9",
           None if checks.check_wavelet(z.real + 0.9j * z.imag, signal, "wavelet") else "accepted")
    y = pk.wpt(signal.samples(), alpha).samples
    yield "api wpt", checks.check_wpt(y, z, alpha, "wpt")
    y = pk.wpt(signal.samples(), alpha + 1e-6).samples
    yield "api wpt: alpha off by 1e-6", None if checks.check_wpt(y, z, alpha, "wpt") else "accepted"


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    DIR.mkdir(parents=True, exist_ok=True)
    seed = 7
    p = inputs.cli_params(inputs.rng_for(seed, "params"))
    cases = [
        *signal_cases(inputs.make_tones(inputs.rng_for(seed, "record"), N), p),
        *wide_cases(inputs.make_tones(inputs.rng_for(seed, "sweep"), N),
                    inputs.make_image(inputs.rng_for(seed, "image"), (96, 80)), p),
        *api_cases(seed),
    ]
    bad = 0
    for name, problems in cases:
        ok = not problems
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {problems}"))
    print(f"{len(cases) - bad}/{len(cases)} checker cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
