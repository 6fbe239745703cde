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
partial file), 128 + N stopped by signal N (SIGINT, SIGTERM or SIGHUP;
the file being written is removed).  Warnings go to standard error as one
line each, 'phasekit: RuntimeWarning: ...'; data only to files.

``run`` is the console entry point (also ``python -m phasekit``) and ends
the process through ``os._exit``; in-process callers use ``main``, which
returns the exit code.
"""
from __future__ import annotations

import argparse
import atexit
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from . import io as pkio
from .fractional import frac_delay_dct, frac_delay_dft, frac_differintegrate
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

    def _print_message(self, message, file=None):
        # argparse ignores a failed write, which would lose --version or
        # --help output and still exit 0; main() reports it as exit 2
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)  # stderr, or stdout closed
        if message:
            file.write(message)
            file.flush()


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
    pkio._make_dirs(Path(path).parent)
    write(path, *args)


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
    out = frac_differintegrate(sig, args.order, physical=args.scaling == "physical",
                               include_dc_term=not args.no_dc_term)
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
    header = _header(args, input=args.input, alpha=args.alpha, rows=img.rows, cols=img.cols)
    out = pt2d(img, args.alpha)
    del img  # the preview's rescaled copy reuses the input's pages
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
    from . import repro  # only this command needs it (and its json)

    outdir = Path(args.outdir or os.environ.get("PHASEKIT_OUTDIR", "."))
    header = {"tool": f"phasekit {__version__}", "command": f"repro {args.example}"}
    metrics = repro.run_example(args.example, outdir, header)
    for key, value in metrics.items():
        print(f"example {args.example}: {key} = {value:.6e}")
    return 0


def _add_common_io(sub):
    sub.add_argument("input", help="input CSV (t,value columns) or mono WAV")
    sub.add_argument("-o", "--output", help="output file (default: derived name "
                     "in $PHASEKIT_OUTDIR or the working directory)")


def build_parser() -> _Parser:
    parser = _Parser(prog="phasekit",
                     description="Phase transforms, fractional delay/differintegration, "
                                 "wavelet phase transforms, and the 2-D phase transform.")
    parser.add_argument("--version", action="version", version=f"phasekit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    pt = commands.add_parser("pt", help="phase-shift a signal")
    _add_common_io(pt)
    phase = pt.add_mutually_exclusive_group()  # not required: --config may supply it
    phase.add_argument("--alpha", type=float, help="constant phase shift (radians)")
    phase.add_argument("--alpha-per-bin", help="CSV file of per-bin phases")
    phase.add_argument("--alpha-sweep", help="start:step:stop phase sweep (radians)")
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
    image_pt.add_argument("--alpha", type=float, required=True)
    image_pt.add_argument("--preview", help="also write a rescaled PGM preview here")
    image_pt.set_defaults(func=cmd_image_pt)

    synth = commands.add_parser("synth", help="synthesize a test signal "
                                "(plain series, AM, or PM)")
    synth.add_argument("-o", "--output")
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
    rep.set_defaults(func=cmd_repro)
    for command in commands.choices.values():
        command.add_argument("--config", help="key=value file supplying flag defaults")
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

    Only the subcommand's own flags can be set.  Keys that name no flag of
    the subcommand are ignored, and so are the keys of a mutually exclusive
    group one of whose flags was given on the command line (given as
    argparse decides it: a value that is not the flag's default), so an
    explicit flag wins over its whole group; else two keys of one group are
    an argument error, as two of its flags are.  Only then does each kept
    value go through its flag's type, choices or store_true, like the flag.
    The file is read as UTF-8 with surrogateescape, whatever the locale,
    like a CSV.
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
    raws = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in flags:
            raws[key] = raw.strip()
    for group in args.parser._mutually_exclusive_groups:
        if any(getattr(args, action.dest) is not action.default for action in group._group_actions):
            for action in group._group_actions:
                raws.pop(action.dest, None)
        else:
            keys = [action.dest for action in group._group_actions if action.dest in raws]
            if len(keys) > 1:
                raise CliError(ARG_ERROR, f"config keys {' and '.join(keys)} are mutually "
                                          "exclusive: set one of them")
    return {key: _config_value(flags[key], key, raw) for key, raw in raws.items()}


class _Stopped(BaseException):
    """A SIGTERM or SIGHUP, raised like KeyboardInterrupt so that no
    ``except Exception`` catches it and the writer's cleanup runs."""


def _stop(signum, frame):
    raise _Stopped(signum)


def _format_warning(message, category, *_) -> str:
    return f"phasekit: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except OSError as exc:  # --version or --help output
        print(f"phasekit: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    import signal  # not needed by --version
    import threading

    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    handlers = {}
    if threading.current_thread() is threading.main_thread():  # the one that may set them
        for signum in (getattr(signal, name, None) for name in ("SIGTERM", "SIGHUP")):
            # a signal the command was started with ignored (nohup) stays ignored
            if signum is not None and signal.getsignal(signum) == signal.SIG_DFL:
                handlers[signum] = signal.signal(signum, _stop)
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
    except (KeyboardInterrupt, _Stopped) as exc:
        signum = exc.args[0] if isinstance(exc, _Stopped) else signal.SIGINT
        print(f"phasekit: stopped by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        warnings.formatwarning = saved
        for signum, handler in handlers.items():
            signal.signal(signum, handler)


def run() -> NoReturn:
    """Run ``main`` as a whole process and leave through ``os._exit``.

    Every file is closed when ``main`` returns, so after the registered
    atexit handlers (coverage, site hooks) and a flush of both streams no
    output byte is left, and the interpreter's teardown (its final
    collections and the freeing of every module) is skipped, as the forked
    children in ``io._forked`` skip it.  A failed stdout flush after a
    successful command prints one line and exits 2; after a failed command,
    that command's message and exit code stand.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            print(f"phasekit: i/o error: {exc}", file=sys.stderr)
            code = IO_ERROR
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
