"""Runs CLI commands for the benchmark: one JSON request per stdin line,
one JSON reply per stdout line.

Request ``{"argv": [...], "timeout": s}`` runs ``python -m treewalks.cli
argv`` and replies ``{"wall_s", "rss_mb", "code", "stdout"}``: its wall
time, its peak RSS in MiB from ``os.wait4``, its exit code and its output.
A child's ``ru_maxrss`` includes its parent's high-water RSS at exec time,
so the commands start from this small process, whose own high-water mark
stays below that of any CLI process, and not from the benchmark itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], timeout: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "treewalks.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode, "stdout": out.decode()}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["timeout"])), flush=True)


if __name__ == "__main__":
    main()
