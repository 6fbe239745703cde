"""Shared plumbing: paths, the child environment, the launcher client, statistics."""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable
THREADS = "1"   # BLAS/OpenMP pool size: one process, one thread, closed loop
OP_TIMEOUT_S = 150
REFERENCE = [PYTHON, str(BENCH_DIR / "reference.py")]
# Fresh-process times are reported at the machine speed where reference.py
# takes this long (its median on the 2-core machine the figures come from).
REFERENCE_S = 0.185
# In-process api-compute times are reported at the machine speed where
# api_worker.Reference (a 2^20-point numpy.fft pair) takes this long.
API_REFERENCE_S = 0.095


def child_env() -> dict:
    """Environment of every program process: in-repo source, pinned threads,
    bytecode cached under the work directory (as an installed package would
    have it), and no inherited PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, NUMEXPR_NUM_THREADS=THREADS)
    return env


class Launcher:
    """Client of launcher.py, which starts each child and reports its rusage."""

    def __init__(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([PYTHON, str(BENCH_DIR / "launcher.py")], cwd=WORK,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.refs: list[float] = []

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def reference(self) -> float:
        """Time one run of reference.py (see README.md, "Machine speed")."""
        logs = WORK / "logs"
        logs.mkdir(exist_ok=True)
        reply = self.run(REFERENCE, logs / "reference.out", logs / "reference.err")
        if reply["rc"] != 0:
            raise RuntimeError(f"reference task exited {reply['rc']}")
        self.refs.append(reply["wall_s"])
        return reply["wall_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def median(values) -> float:
    return statistics.median(values)


def percentile_line(values_s: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ms = sorted(v * 1e3 for v in values_s)
    text = f"median {median(ms):.1f} ms, n = {len(ms)}"
    for pct in (99, 90):
        if len(ms) * (100 - pct) / 100 >= 10:
            return text + f", p{pct} {statistics.quantiles(ms, n=100)[pct - 1]:.1f} ms"
    return text


def op_geomean_ms(latencies: dict[str, list[float]]) -> float:
    """Geometric mean over operations of each one's median latency, in ms.

    Every operation weighs the same, whatever its size; a median across
    operations would instead follow whichever one sits in the middle."""
    return statistics.geometric_mean([median(v) for v in latencies.values() if v]) * 1e3


def per_op_wall(latencies: dict[str, list[float]]) -> float:
    """One pass of the operation sequence: the sum of each operation's median."""
    return sum(median(v) for v in latencies.values() if v)
