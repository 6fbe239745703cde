"""Command-line front end.

Each subcommand is one library call between a reader (``_read``) and one
writer; every output file starts with a '#'-comment header recording the
tool version, subcommand and all effective parameters as raw values (the
io writer renders them), and repeated runs with identical inputs produce
byte-identical outputs.

Exit codes: 0 success, 2 unreadable/unwritable file, 3 invalid argument
(also a non-finite one, or one that would make more than MAX_SWEEP_STEPS
sweep columns, MAX_SYNTH_SAMPLES samples or ``wavelet.MAX_SCALES`` scales,
checked before anything is allocated), 4 numeric failure (a non-finite
result on either basis, or memory exhausted; a failed write leaves no
partial file).  Warnings go to standard error as one line each,
'phasekit: RuntimeWarning: ...'; data only to files.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import io as pkio
from . import repro
from .fractional import KernelScaling, DifferintegrationOrder, frac_delay_dct, frac_delay_dft, frac_differintegrate
from .image import pt2d
from .phase import PhaseProfile, pt_dct, pt_dft, pt_sweep
from .spectral import ModulationSpec, FourierSeriesCoeffs, gfr_synthesize
from .wavelet import MorseWavelet, ScaleGrid, wpt

IO_ERROR, ARG_ERROR, NUMERIC_ERROR = 2, 3, 4
MAX_SWEEP_STEPS = 4096  # --alpha-sweep columns; ~100x the 41-step sweeps in use
MAX_SYNTH_SAMPLES = 1 << 24  # synth --rate x --duration; a CSV of about 0.8 GB


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


def _header(args, **params) -> dict:
    return {"tool": f"phasekit {__version__}", "command": args.command, **params}


def _write(path, write, *args):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path, *args)
    except OSError as exc:
        raise CliError(IO_ERROR, f"cannot write {path}: {exc}")


def _write_signal(args, sig, suffix: str, names: list[str], columns, **params) -> int:
    """Write a signal command's result after the t and original columns."""
    _write(_out_path(args, suffix), pkio.write_columns_csv,
           _header(args, input=args.input, **params),
           ["t", "original", *names], [sig.times, sig.samples, *columns])
    return 0


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
    if args.alpha_sweep:
        alphas = _parse_sweep(args.alpha_sweep)
        mode, names = "alpha_sweep", [f"alpha_{a:.6f}" for a in alphas]
        columns = pt_sweep(sig, alphas, args.basis)
    else:
        if args.alpha_per_bin:
            _, _, cols = _read(pkio.read_columns_csv, args.alpha_per_bin, "per-bin phases")
            mode, profile = "alpha_per_bin", PhaseProfile.per_bin(cols[-1])
        elif args.alpha is not None:
            mode, profile = "alpha", PhaseProfile.constant(args.alpha)
        else:
            raise CliError(ARG_ERROR, "one of --alpha, --alpha-per-bin, --alpha-sweep is required")
        transform = pt_dct if args.basis == "dct" else pt_dft
        names, columns = ["transformed"], [transform(sig, profile).samples]
    return _write_signal(args, sig, "pt_sweep" if args.alpha_sweep else "pt", names, columns,
                         basis=args.basis, sample_rate=sig.sample_rate,
                         **{mode: getattr(args, mode)})


def cmd_delay(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    delay = frac_delay_dct if args.basis == "dct" else frac_delay_dft
    return _write_signal(args, sig, "delay", ["delayed"], [delay(sig, args.samples).samples],
                         basis=args.basis, samples=args.samples, sample_rate=sig.sample_rate)


def cmd_differint(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    order = DifferintegrationOrder(args.order, KernelScaling(args.scaling))
    out = frac_differintegrate(sig, order, include_dc_term=not args.no_dc_term)
    return _write_signal(args, sig, "differint", ["transformed"], [out.samples],
                         order=args.order, scaling=args.scaling,
                         dc_term=not args.no_dc_term, sample_rate=sig.sample_rate)


def cmd_wpt(args) -> int:
    sig = _read(pkio.read_any_signal, args.input, "signal")
    spec = MorseWavelet(args.beta, args.gamma)
    grid = ScaleGrid.default(len(sig), spec, voices_per_octave=args.voices)
    out = wpt(sig, args.alpha, grid, spec)
    return _write_signal(args, sig, "wpt", ["transformed"], [out.samples],
                         alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                         voices=args.voices, sample_rate=sig.sample_rate)


def cmd_image_pt(args) -> int:
    img = _read(pkio.read_image, args.input, "image")
    out = pt2d(img, args.alpha)
    header = _header(args, input=args.input, alpha=args.alpha, rows=img.rows, cols=img.cols)
    _write(_out_path(args, "pt2d"), pkio.write_grid_csv, header, out.pixels)
    if args.preview:
        _write(args.preview, pkio.write_pgm, pkio.pgm_preview(out.pixels))
    return 0


def cmd_synth(args) -> int:
    if not (args.rate > 0 and args.duration > 0):
        raise CliError(ARG_ERROR, "rate and duration must be positive")
    if not args.duration * args.rate <= MAX_SYNTH_SAMPLES:  # also an infinite product
        raise CliError(ARG_ERROR, f"rate x duration exceeds {MAX_SYNTH_SAMPLES} samples")
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
    params = ("case", "carrier_freq", "amplitude", "phase", "mean", "message_freq",
              "message_amp", "bias", "rate", "duration")
    header = _header(args, **{key: getattr(args, key) for key in params})
    _write(_out_path(args, f"synth_{args.case}"), pkio.write_columns_csv, header,
           ["t", "value"], [t, out.samples])
    return 0


def cmd_repro(args) -> int:
    outdir = Path(args.outdir or os.environ.get("PHASEKIT_OUTDIR", "."))
    header = {"tool": f"phasekit {__version__}", "command": f"repro {args.example}"}
    try:
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
    Keys that name no flag of the subcommand are ignored.  The file is read
    as UTF-8 with surrogateescape, whatever the locale, like a CSV.
    """
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        lines = Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()
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


def _format_warning(message, category, *_) -> str:
    return f"phasekit: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
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
    except (ArithmeticError, MemoryError) as exc:
        print(f"phasekit: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
