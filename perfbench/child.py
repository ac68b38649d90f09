"""Run one child process and account for it alone.

`resource.getrusage(RUSAGE_CHILDREN)` is the maximum over every child reaped
so far, so after one big command every later one would report its peak.
`os.wait4` returns the rusage of the one child it reaps.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildResult:
    code: int          # exit code; minus the signal number if killed
    wall_s: float      # spawn to reap
    cpu_s: float       # user + system time of this child
    peak_rss_mb: float
    stdout: str


def cli_env(src_dir):
    """Environment for `commlab` children: the checkout's sources only, and
    COMMLAB_THREADS unset so the program runs one thread."""
    env = dict(os.environ)
    env.pop("COMMLAB_THREADS", None)
    env["PYTHONPATH"] = src_dir
    return env


def run(argv, env, out_path, err_path, timeout_s):
    """Spawn argv with stdout and stderr sent to files, wait for it, and
    kill it if it outlives timeout_s. Returns a ChildResult."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)

    def on_alarm(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - started
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return ChildResult(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout,
    )
