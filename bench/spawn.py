"""Run one command and record its own wall time, CPU time and peak RSS.

Usage: python3 -S bench/spawn.py RESULT.json PROGRAM [ARGS...]

The command is started with fork and exec from this small process, so the
peak RSS that os.wait4 reports is the command's own.  Started directly from
the benchmark runner, a child would also report the runner's high-water
mark: the child shares the runner's memory map until exec, and Linux keeps
that map's peak in the child's ru_maxrss.
"""

import json
import os
import sys
import time

result_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(result_path, "w") as f:
    json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0,
               "returncode": os.waitstatus_to_exitcode(status)}, f)
