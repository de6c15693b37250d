#!/usr/bin/env python3
"""Starts the benchmark's child processes and reports each one's resource use.

run.py starts this helper first, while its own memory is still small, and
has it start every measured child. Linux counts the memory map a child
replaces at exec in the child's peak RSS, so a child started directly by a
parent that has read large corpora would report the parent's peak instead
of its own.

Protocol: one JSON request per stdin line,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``, answered by one
JSON line ``{"code", "wall_s", "cpu_s", "rss_mb"}``. The helper exits at the
end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
