"""Small helper process that runs the CLI children and times them.

A child's peak RSS (ru_maxrss) includes the memory of the process it was
forked from, so children of the benchmark process itself, which holds a
20,000-rule KB, would report that KB as theirs. This helper stays small and
starts every child instead. It reads one JSON request per stdin line:

    {"argv": [...], "stdout": PATH, "stderr": PATH}

runs the command, streams its stdout into PATH, and answers with one line:

    {"code": EXIT_CODE, "elapsed_ns": SPAWN_TO_EXIT, "maxrss_kib": PEAK_RSS}
"""

import json
import os
import subprocess
import sys
from time import perf_counter_ns

CHUNK = 1 << 16


def run(argv, stdout_path, stderr_path):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            while chunk := proc.stdout.read(CHUNK):
                out.write(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "elapsed_ns": elapsed, "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
