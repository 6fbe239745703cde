"""Command-line front end.

Subcommands map one-to-one onto the library operations; every output file
starts with a '#'-comment header recording the tool version, subcommand and
all effective parameters, and repeated runs with identical inputs produce
byte-identical outputs.

Exit codes: 0 success, 2 unreadable/unwritable file, 3 invalid argument,
4 numeric failure.  Warnings go to standard error; data only to files.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as pkio
from . import repro
from .fractional import KernelScaling, DifferintegrationOrder, frac_delay_dct, frac_delay_dft, frac_differintegrate
from .image import pt2d
from .phase import PhaseProfile, pt_dct, pt_dft, pt_sweep
from .spectral import ModulationSpec, FourierSeriesCoeffs, gfr_synthesize
from .wavelet import MorseWavelet, ScaleGrid, wavelet_analytic_signal

IO_ERROR, ARG_ERROR, NUMERIC_ERROR = 2, 3, 4
MAX_SWEEP_STEPS = 4096  # --alpha-sweep columns; ~100x the 41-step sweeps in use


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the CLI contract
    # reserves 2 for I/O problems and uses 3 for argument problems
    def error(self, message):
        self.exit(ARG_ERROR, f"{self.prog}: error: {message}\n")


def _read(read, path, what: str):
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CliError(IO_ERROR, f"cannot read {what} from {path}: {exc}")


def _out_path(args, suffix: str) -> Path:
    if args.output:
        return Path(args.output)
    outdir = Path(os.environ.get("PHASEKIT_OUTDIR", "."))
    stem = Path(args.input).stem if getattr(args, "input", None) else "phasekit"
    return outdir / f"{stem}_{suffix}.csv"


def _check_finite(*arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise CliError(NUMERIC_ERROR, "computation produced non-finite values")


def _header(args, **params) -> dict:
    head = {"tool": f"phasekit {__version__}", "command": args.command}
    head.update({k: v for k, v in params.items() if v is not None})
    return head


def _write(path, write, *args):
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write(path, *args)
    except OSError as exc:
        raise CliError(IO_ERROR, f"cannot write {path}: {exc}")


def _parse_sweep(text: str) -> np.ndarray:
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError:
        raise CliError(ARG_ERROR, f"sweep must be start:step:stop, got {text!r}")
    if not np.all(np.isfinite([start, step, stop])):
        raise CliError(ARG_ERROR, f"sweep bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise CliError(ARG_ERROR, "sweep needs step > 0 and stop >= start")
    steps = np.floor((stop - start) / step + 1e-12)
    if not steps < MAX_SWEEP_STEPS:  # also an infinite quotient
        raise CliError(ARG_ERROR, f"sweep {text!r} has more than {MAX_SWEEP_STEPS} steps")
    return start + step * np.arange(int(steps) + 1)


def cmd_pt(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    header = _header(args, input=args.input, basis=args.basis,
                     sample_rate=pkio.format_float(sig.sample_rate))
    transform = pt_dct if args.basis == "dct" else pt_dft
    names = ["t", "original", "transformed"]
    if args.alpha_sweep:
        alphas = _parse_sweep(args.alpha_sweep)
        header["alpha_sweep"] = args.alpha_sweep
        names[2:] = [f"alpha_{a:.6f}" for a in alphas]
        columns = pt_sweep(sig, alphas, args.basis)
    elif args.alpha_per_bin:
        _, _, cols = _read(pkio.read_columns_csv, args.alpha_per_bin, "per-bin phases")
        header["alpha_per_bin"] = args.alpha_per_bin
        columns = [transform(sig, PhaseProfile.per_bin(cols[-1])).samples]
    elif args.alpha is not None:
        header["alpha"] = pkio.format_float(args.alpha)
        columns = [transform(sig, PhaseProfile.constant(args.alpha)).samples]
    else:
        raise CliError(ARG_ERROR, "one of --alpha, --alpha-per-bin, --alpha-sweep is required")
    _check_finite(columns)
    _write(_out_path(args, "pt_sweep" if args.alpha_sweep else "pt"), pkio.write_columns_csv,
           header, names, [sig.times, sig.samples, *columns])
    return 0


def cmd_delay(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    if args.basis == "dct":
        out = frac_delay_dct(sig, args.samples)
    else:
        out = frac_delay_dft(sig, args.samples)
    _check_finite(out.samples)
    header = _header(args, input=args.input, basis=args.basis,
                     samples=pkio.format_float(args.samples),
                     sample_rate=pkio.format_float(sig.sample_rate))
    _write(_out_path(args, "delay"), pkio.write_columns_csv, header,
           ["t", "original", "delayed"], [sig.times, sig.samples, out.samples])
    return 0


def cmd_differint(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    scaling = KernelScaling.NORMALIZED if args.scaling == "normalized" else KernelScaling.PHYSICAL
    order = DifferintegrationOrder(args.order, scaling)
    out = frac_differintegrate(sig, order, include_dc_term=not args.no_dc_term)
    _check_finite(out.samples)
    header = _header(args, input=args.input, order=pkio.format_float(args.order),
                     scaling=args.scaling, dc_term=str(not args.no_dc_term).lower(),
                     sample_rate=pkio.format_float(sig.sample_rate))
    _write(_out_path(args, "differint"), pkio.write_columns_csv, header,
           ["t", "original", "transformed"], [sig.times, sig.samples, out.samples])
    return 0


def cmd_wpt(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    spec = MorseWavelet(args.beta, args.gamma)
    grid = ScaleGrid.default(len(sig), spec, voices_per_octave=args.voices)
    z = wavelet_analytic_signal(sig, grid, spec)
    out = (z * np.exp(-1j * args.alpha)).real
    _check_finite(out)
    header = _header(args, input=args.input, alpha=pkio.format_float(args.alpha),
                     beta=pkio.format_float(args.beta), gamma=pkio.format_float(args.gamma),
                     voices=str(args.voices),
                     sample_rate=pkio.format_float(sig.sample_rate))
    _write(_out_path(args, "wpt"), pkio.write_columns_csv, header,
           ["t", "original", "transformed"], [sig.times, sig.samples, out])
    return 0


def cmd_image_pt(args) -> int:
    img = _read(pkio.read_image, args.input, "image")
    out = pt2d(img, args.alpha)
    _check_finite(out.pixels)
    header = _header(args, input=args.input, alpha=pkio.format_float(args.alpha),
                     rows=str(img.rows), cols=str(img.cols))
    _write(_out_path(args, "pt2d"), pkio.write_grid_csv, header, out.pixels)
    if args.preview:
        _write(args.preview, pkio.write_pgm, pkio.pgm_preview(out.pixels))
    return 0


def cmd_synth(args) -> int:
    if args.rate <= 0 or args.duration <= 0:
        raise CliError(ARG_ERROR, "rate and duration must be positive")
    t = np.arange(int(round(args.duration * args.rate))) / args.rate
    coeffs = FourierSeriesCoeffs(
        a0=args.mean, amplitudes=np.array([args.amplitude]),
        phases=np.array([args.phase]), omega0=2.0 * np.pi * args.carrier_freq)
    message = lambda tt: args.message_amp * np.cos(2.0 * np.pi * args.message_freq * tt)
    if args.case == "fourier":
        mods = ModulationSpec.identity()
    elif args.case == "am":
        mods = ModulationSpec.amplitude_modulation(message, bias=args.bias)
    else:
        mods = ModulationSpec.angle_modulation(message)
    out = gfr_synthesize(coeffs, mods, 1, t)
    _check_finite(out.samples)
    header = _header(args, case=args.case,
                     carrier_freq=pkio.format_float(args.carrier_freq),
                     amplitude=pkio.format_float(args.amplitude),
                     phase=pkio.format_float(args.phase),
                     mean=pkio.format_float(args.mean),
                     message_freq=pkio.format_float(args.message_freq),
                     message_amp=pkio.format_float(args.message_amp),
                     bias=pkio.format_float(args.bias),
                     rate=pkio.format_float(args.rate),
                     duration=pkio.format_float(args.duration))
    _write(_out_path(args, f"synth_{args.case}"), pkio.write_columns_csv, header,
           ["t", "value"], [t, out.samples])
    return 0


def cmd_repro(args) -> int:
    outdir = Path(args.outdir or os.environ.get("PHASEKIT_OUTDIR", "."))
    header = {"tool": f"phasekit {__version__}", "command": f"repro {args.example}"}
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        metrics = repro.run_example(args.example, outdir, header)
    except OSError as exc:
        raise CliError(IO_ERROR, f"cannot write artifacts: {exc}")
    for key, value in metrics.items():
        print(f"example {args.example}: {key} = {value:.6e}")
    return 0


def _add_common_io(sub):
    sub.add_argument("input", help="input CSV (t,value columns) or mono WAV")
    sub.add_argument("-o", "--output", help="output file (default: derived name "
                     "in $PHASEKIT_OUTDIR or the working directory)")
    sub.add_argument("--config", help="key=value file supplying flag defaults")


def build_parser() -> _Parser:
    parser = _Parser(prog="phasekit",
                     description="Phase transforms, fractional delay/differintegration, "
                                 "wavelet phase transforms, and the 2-D phase transform.")
    parser.add_argument("--version", action="version", version=f"phasekit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    pt = commands.add_parser("pt", help="phase-shift a signal", parents=[])
    _add_common_io(pt)
    pt.add_argument("--alpha", type=float, help="constant phase shift (radians)")
    pt.add_argument("--alpha-per-bin", help="CSV file of per-bin phases")
    pt.add_argument("--alpha-sweep", help="start:step:stop phase sweep (radians)")
    pt.add_argument("--basis", choices=("dft", "dct"), default="dft")
    pt.set_defaults(func=cmd_pt)

    delay = commands.add_parser("delay", help="fractionally delay a signal")
    _add_common_io(delay)
    delay.add_argument("--samples", type=float, required=True,
                       help="delay in samples (fractional allowed)")
    delay.add_argument("--basis", choices=("dft", "dct"), default="dft")
    delay.set_defaults(func=cmd_delay)

    differint = commands.add_parser("differint",
                                    help="fractional derivative (order > 0) or integral (< 0)")
    _add_common_io(differint)
    differint.add_argument("--order", type=float, required=True)
    differint.add_argument("--scaling", choices=("physical", "normalized"),
                           default="physical")
    differint.add_argument("--no-dc-term", action="store_true",
                           help="omit the mean's power-law term")
    differint.set_defaults(func=cmd_differint)

    wpt_cmd = commands.add_parser("wpt", help="wavelet phase transform")
    _add_common_io(wpt_cmd)
    wpt_cmd.add_argument("--alpha", type=float, required=True)
    wpt_cmd.add_argument("--beta", type=float, default=20.0)
    wpt_cmd.add_argument("--gamma", type=float, default=3.0)
    wpt_cmd.add_argument("--voices", type=int, default=10)
    wpt_cmd.set_defaults(func=cmd_wpt)

    image_pt = commands.add_parser("image-pt", help="2-D phase transform of an image")
    image_pt.add_argument("input", help="input PGM (binary P5) or CSV grid")
    image_pt.add_argument("-o", "--output", help="output CSV grid")
    image_pt.add_argument("--config", help="key=value file supplying flag defaults")
    image_pt.add_argument("--alpha", type=float, required=True)
    image_pt.add_argument("--preview", help="also write a rescaled PGM preview here")
    image_pt.set_defaults(func=cmd_image_pt)

    synth = commands.add_parser("synth", help="synthesize a test signal "
                                "(plain series, AM, or PM)")
    synth.add_argument("-o", "--output")
    synth.add_argument("--config", help="key=value file supplying flag defaults")
    synth.add_argument("--case", choices=("fourier", "am", "pm"), default="fourier")
    synth.add_argument("--carrier-freq", type=float, default=10.0)
    synth.add_argument("--amplitude", type=float, default=1.0)
    synth.add_argument("--phase", type=float, default=0.0)
    synth.add_argument("--mean", type=float, default=0.0)
    synth.add_argument("--message-freq", type=float, default=1.0)
    synth.add_argument("--message-amp", type=float, default=0.5)
    synth.add_argument("--bias", type=float, default=1.0)
    synth.add_argument("--rate", type=float, default=1000.0)
    synth.add_argument("--duration", type=float, default=1.0)
    synth.set_defaults(func=cmd_synth)

    rep = commands.add_parser("repro", help="regenerate a demonstration experiment")
    rep.add_argument("example", type=int, choices=(1, 2, 3, 4, 5))
    rep.add_argument("--outdir", help="artifact directory (default: "
                     "$PHASEKIT_OUTDIR or the working directory)")
    rep.add_argument("--config", help="key=value file supplying flag defaults")
    rep.set_defaults(func=cmd_repro)
    for command in commands.choices.values():
        command.set_defaults(parser=command)  # whose flags --config may set
    return parser


_BOOLEAN = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def _config_value(action, key: str, raw: str):
    """Type one config value like argparse types the flag it sets."""
    if action.nargs == 0:  # store_true
        if raw.lower() not in _BOOLEAN:
            raise CliError(ARG_ERROR, f"config key {key}: expected true or false, got {raw!r}")
        return action.const if _BOOLEAN[raw.lower()] else action.default
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:
        raise CliError(ARG_ERROR, f"config key {key}: invalid value {raw!r}")
    if action.choices is not None and value not in action.choices:
        raise CliError(ARG_ERROR, f"config key {key}: {raw!r} is not one of "
                                  f"{', '.join(map(str, action.choices))}")
    return value


def _config_defaults(args) -> dict:
    """Flag defaults from a key=value config file, typed like the flags.

    Only the subcommand's own flags can be set; each value goes through
    that flag's type, choices or store_true, so it is checked like the flag.
    Keys that name no flag of the subcommand are ignored.
    """
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(IO_ERROR, f"cannot read config {path}: {exc}")
    flags = {action.dest: action for action in args.parser._actions
             if action.option_strings and action.dest not in ("config", "help")}
    defaults = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in flags:
            defaults[key] = _config_value(flags[key], key, raw.strip())
    return defaults


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        defaults = _config_defaults(args)
        if defaults:  # parse again so every flag given on the command line wins
            args.parser.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"phasekit: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"phasekit: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except ValueError as exc:
        print(f"phasekit: invalid parameter: {exc}", file=sys.stderr)
        return ARG_ERROR
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"phasekit: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
