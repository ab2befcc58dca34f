"""Run one child process under a wall budget and a memory cap.

The budget and the cap act on the child alone: `RLIMIT_AS` is set in the
child before exec, and the parent waits on a pidfd with a timeout, then
kills the child's process group.  Resource usage comes from `wait4`, so
CPU time and peak RSS belong to this child only.  Linux only.
"""

from __future__ import annotations

import contextlib
import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

MIB = 1 << 20


@dataclass
class ChildRun:
    returncode: int  # negative: killed by that signal
    timed_out: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str

    def failure_kind(self) -> str | None:
        """How the child failed, before its answer is looked at."""
        if self.timed_out:
            return "timeout"
        if "MemoryError" in self.stderr:
            return "oom"
        if "Traceback" in self.stderr:
            return "traceback"
        if self.returncode != 0:
            return "exit-code"
        return None


def run_child(
    argv: list[str],
    *,
    env: dict[str, str],
    cwd: Path,
    budget_s: float,
    memory_mb: int,
) -> ChildRun:
    cap = memory_mb * MIB

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    out_path = cwd / "child.stdout"
    err_path = cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=cwd,
            preexec_fn=limit,
            start_new_session=True,
        )
        exited = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], budget_s)[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        timed_out=not exited,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
