"""Lean child launcher: one JSON request per stdin line, one JSON reply per line.

A child's ru_maxrss counts the memory of the process it was started from, so
children started by a benchmark process that holds large arrays all report
that process's size.  This launcher imports nothing heavy and holds no data;
each child it starts reports its own peak RSS.

Request: {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
Reply:   {"rc": exit code, "wall_s": seconds, "maxrss_kb": peak RSS}
"""
import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)

    def expire(signum, frame):
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(int(request["timeout"]))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
