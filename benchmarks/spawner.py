"""Starts the benchmark's child processes from a small, clean process.

On Linux a child's ``ru_maxrss`` is at least the resident high-water mark of
the process that launched it, because ``exec`` records the memory image it
replaces.  The benchmark's own process grows large once it has run the
in-process pass, so it launches children through this script instead, which
imports nothing heavy and stays near 10 MB.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "cwd": ...,
"env": {...}, "log": path}``; one JSON reply per line on stdout, ``{"code":
exit code, "rss_mb": peak RSS of the child, "elapsed_s": wall time}``.  The
script exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                 "elapsed_s": elapsed}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
