"""Starts the benchmark's child processes from a small process of its own.

A child's ``ru_maxrss`` counts the memory of the process that started it:
Linux runs the new program in the starter's address space (vfork) or a copy
of it (fork) until ``exec``, and keeps that space's high-water mark in the
child's figure. The benchmark's own process holds numpy, the generated
inputs and the calibration loop's graph, so a command started from it would
report at least that much memory. This launcher imports only the standard
library. The benchmark starts it once and sends it one command at a time:

    python3 launcher.py     # one JSON request a line on stdin, one reply a line on stdout

A request names ``argv``, ``stdout``, ``stderr``, ``cwd``, ``env`` and
``timeout``; the reply gives the child's ``returncode``, ``wall_s``,
``maxrss_mb``, ``cpu_s`` (user + sys) and whether it ``timed_out``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def run(request: dict) -> dict:
    """Run one child to completion and read its own resource usage."""
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "timed_out": timed_out.is_set()}


class Launcher:
    """A running launcher process; use it as a context manager."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], stdout: Path, stderr: Path, env: dict,
            cwd: Path, timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "env": env, "cwd": str(cwd), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        """Let the launcher finish and wait for it; kill it if it hangs."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=120)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
