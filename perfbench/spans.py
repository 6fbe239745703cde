"""Spans recorded around calls into phasekit, from the benchmark's own code.

A span has a name, start, end, parent and operation id.  Spans are kept in
memory and written out once, when the process is done.  ``instrument``
replaces the public layer functions listed in ``LAYERS`` by timing wrappers
in every loaded ``phasekit`` module, so calls between modules (cli -> io,
phase -> spectral) are recorded without changing the program.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

# layer module -> public functions timed at their boundary
LAYERS = {
    "io": ("read_signal_csv", "read_wav", "read_pgm", "write_columns_csv", "write_grid_csv",
           "write_pgm", "pgm_preview"),
    "spectral": ("dft", "idft", "dct2_forward", "dct2_inverse", "dft2d", "idft2d",
                 "analytic_signal"),
    "phase": ("pt_dft", "pt_dct", "hilbert"),
    "fractional": ("frac_delay_dft", "frac_delay_dct", "frac_differintegrate"),
    "wavelet": ("awt", "cpsi_delta", "wavelet_analytic_signal", "wpt"),
    "image": ("pt2d", "analytic2d"),
    "repro": ("run_example",),
}
# io functions whose first argument is the file they read or write
FILE_IO = {"io.read_signal_csv", "io.read_wav", "io.read_pgm",
           "io.write_columns_csv", "io.write_grid_csv", "io.write_pgm"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name in FILE_IO and isinstance(args[0], (str, os.PathLike)):
                    record["bytes"] = os.path.getsize(args[0])
                return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def instrument(tracer: Tracer, op: str | None = None):
    """Wrap every function of LAYERS wherever a phasekit module binds it.

    Returns a function that puts the original functions back."""
    if op is not None:
        tracer.op = op
    replaced = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "phasekit" or name.startswith("phasekit.")]
    for layer, names in LAYERS.items():
        owner = sys.modules.get(f"phasekit.{layer}")
        for fname in names:
            original = getattr(owner, fname, None)
            if original is None:
                continue
            traced = tracer.wrap(original, f"{layer}.{fname}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, value))
                        setattr(module, attr, traced)
    mask = getattr(sys.modules.get("phasekit.image"), "HalfPlaneMask", None)
    if mask is not None and "build" in vars(mask):
        build = vars(mask)["build"]
        replaced.append((mask, "build", build))
        mask.build = classmethod(tracer.wrap(build.__func__, "image.HalfPlaneMask.build"))

    def undo():
        for obj, attr, value in reversed(replaced):
            setattr(obj, attr, value)
    return undo


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)
    return [duration(s) - c for s, c in zip(spans, child_time)]
