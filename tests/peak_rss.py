"""Run a command line in a child process and measure its peak RSS."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A child's ru_maxrss counts the resident size of the process that spawned
# it, so a bare interpreter, not the test process, spawns the command and
# reports its exit code and peak RSS (KiB) from os.wait4. Its first
# argument, "devnull", sends the command's stdout to os.devnull.
_SPAWNER = """\
import os, sys
to_devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
actions = to_devnull if sys.argv[1] == "devnull" else []
argv = [sys.executable, *sys.argv[2:]]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_cli(argv, stdin: str | None = None, stdout=True) -> tuple[int, str, float]:
    """Run `python -m primeperm.cli *argv` with stdin; its exit code, its
    stdout (empty when stdout is False: it then goes to os.devnull) and its
    peak RSS in MB. A run past 120 s raises subprocess.TimeoutExpired, so a
    slow command fails its test."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _SPAWNER, "stdout" if stdout else "devnull",
         "-m", "primeperm.cli", *argv],
        input=stdin,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    stdout, _, last = out[:-1].rpartition("\n")
    code, rss_kb = map(int, last.split())
    return code, stdout + "\n" if stdout else "", rss_kb / 1024
