"""Start one command, wait for it, and record what it cost.

    python3 -S benchmark/launch.py COST.json COMMAND...

The command inherits this process's environment and standard streams.  When
it ends, COST.json gets its wall time, its user+system CPU time and its peak
resident set (from the command's own rusage), and this process exits with
the command's exit code.

Jobs are started through this small launcher rather than straight from the
benchmark because Linux counts, in a child's peak resident set, the memory
of the process that started it (the old address space's high-water mark is
kept at exec).  Started from the benchmark, which holds numpy, scipy and the
reference arrays, every job would report the benchmark's memory.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    cost_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    rc = os.waitstatus_to_exitcode(status)
    with open(cost_path, "w") as fh:
        json.dump({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
