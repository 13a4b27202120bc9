"""Spawn one command at a time; report its wall time, exit code and peak RSS.

Reads one JSON request per line on stdin::

    {"argv": [...], "stdout": "path", "stderr": "path"}

and answers each with one JSON line ``{"wall_s", "maxrss_kb", "exit"}``.
Peak RSS comes from ``os.wait4`` on the child's own pid.  This process is
kept small on purpose: Linux carries the spawning process's RSS high-water
mark across ``exec`` into the child's ``ru_maxrss``, so a child spawned by the
benchmark process itself (which holds the fixtures) would report at least
that process's peak.
"""

import json
import os
import sys
import time


def main() -> None:
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        request = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
