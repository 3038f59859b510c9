"""Launcher for CLI children, run as ``python3 -I -S bench/spawn.py``.

Linux carries the exec-ing process's peak RSS into the child's
``ru_maxrss``, and Python's subprocess shares the parent's address space up
to exec. A child started straight from the benchmark process would report
at least the benchmark's own peak. This helper is small, so the children it
starts report their own peak.

Protocol: one JSON request per stdin line, ``{"argv", "env", "cwd", "out",
"err", "timeout"}``; one JSON reply per line, ``{"wall", "code",
"maxrss_kb"}``. The helper exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time

running = []


def _kill_running(signum, frame):
    for proc in running:
        proc.kill()


def main() -> None:
    signal.signal(signal.SIGALRM, _kill_running)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            running.append(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            running.clear()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall": wall, "code": proc.returncode,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
