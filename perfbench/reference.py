"""Fixed reference task that owes nothing to phasekit.

    python reference.py

A fresh interpreter imports numpy, writes and parses 20,000 floats as
``%.17g`` text and runs one 2^16-point FFT: the same kinds of work as a
``phasekit`` command (interpreter start, imports, text formatting and
parsing, numpy), in fixed amounts.  The benchmark times it next to the
operations and reports times at a fixed speed of this task (README.md,
"Machine speed").
"""
import numpy as np

values = np.arange(20_000) * 0.1
text = "\n".join(f"{v:.17g}" for v in values.tolist())
parsed = np.array([float(line) for line in text.splitlines()])
spectrum = np.fft.fft(parsed[:1] + np.ones(2 ** 16))
if parsed.size != values.size or not np.isfinite(spectrum).all():
    raise SystemExit(1)
