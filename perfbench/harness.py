"""Runs workload passes against the primeperm CLI and tallies the outcome.

The process runner starts `python -m primeperm.cli` with the checkout's
`src` first on PYTHONPATH, one invocation at a time (a closed loop with
one client). A piped step runs two processes at once, never more.
"""

import hashlib
import json
import math
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import Step, Unit, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "primeperm.cli"]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
STEP_TIMEOUT_S = 60.0
# launch.reference() takes about this long on the machine the benchmark
# was written on (2-core Xeon VM, Python 3.11.7) when nothing else loads it.
REFERENCE_NOMINAL_S = 0.05


def program_present() -> bool:
    return (SRC / "primeperm" / "cli.py").is_file()


@dataclass
class Run:
    """What one step produced. `exits` lists the upstream process first."""

    out: bytes
    err: bytes
    exits: tuple[int, ...]
    wall: float
    first_line: float | None = None
    rss_mb: float | None = None


def _feed(fd: int, data: bytes) -> None:
    with open(fd, "wb") as pipe:
        try:
            pipe.write(data)
        except BrokenPipeError:
            pass  # the reader exited early; its exit code tells the story


class Launcher:
    """Runs CLI invocations through launch.py, which spawns and reaps them
    so that ru_maxrss is the CLI's own (see launch.py)."""

    def __init__(self):
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], env=ENV, cwd=ROOT)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()
        self._proc.wait(timeout=STEP_TIMEOUT_S)

    def _ask(self, message: bytes, fds=()) -> bytes:
        if fds:
            socket.send_fds(self._sock, [message], list(fds))
        else:
            self._sock.send(message)
        reply = self._sock.recv(256)
        if not reply:
            raise RuntimeError("the launcher exited")
        return reply

    def _start(self, args, stdin: int, stdout: int, stderr: int) -> int:
        return int(self._ask(json.dumps(CLI + args).encode(), (stdin, stdout, stderr)))

    def reference(self) -> float:
        """Seconds the launcher takes for its fixed calibration work."""
        return float(self._ask(b"reference"))

    def _reap(self, pid: int) -> tuple[int, int]:
        code, rss_kb = json.loads(self._ask(str(pid).encode()))
        return code, rss_kb

    def run(self, args, upstream=None, data: bytes | None = None) -> Run:
        """Run one CLI invocation (piped from `upstream` if given) to the end.

        Wall time runs from the first start until every process is reaped;
        first_line is when the first newline reached our end of stdout.
        """
        t0 = perf_counter()
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        in_r, in_w = os.pipe() if data is not None else (os.open(os.devnull, os.O_RDONLY), None)
        child_ends = [out_w, err_w, in_r]
        pids = []
        if upstream is not None:
            mid_r, mid_w = os.pipe()
            child_ends += [mid_r, mid_w]
            pids.append(self._start(upstream, in_r, mid_w, err_w))
            pids.append(self._start(args, mid_r, out_w, err_w))
        else:
            pids.append(self._start(args, in_r, out_w, err_w))
        for fd in child_ends:
            os.close(fd)
        writer = None
        if in_w is not None:
            writer = threading.Thread(target=_feed, args=(in_w, data))
            writer.start()

        out, err, first_line = [], [], None
        with selectors.DefaultSelector() as sel:
            sel.register(out_r, selectors.EVENT_READ, out)
            sel.register(err_r, selectors.EVENT_READ, err)
            deadline = t0 + STEP_TIMEOUT_S
            while sel.get_map():
                ready = sel.select(deadline - perf_counter())
                if not ready:
                    for pid in pids:
                        os.kill(pid, signal.SIGKILL)
                    err.append(b"benchmark: step timed out\n")
                    break
                for key, _ in ready:
                    block = os.read(key.fd, 1 << 16)
                    if not block:
                        sel.unregister(key.fd)
                        continue
                    if key.data is out and first_line is None and b"\n" in block:
                        first_line = perf_counter() - t0
                    key.data.append(block)
        os.close(out_r)
        os.close(err_r)

        exits, rss_kb = [], 0
        for pid in pids:
            code, rss = self._reap(pid)
            exits.append(code)
            rss_kb = max(rss_kb, rss)
        wall = perf_counter() - t0
        if writer is not None:
            writer.join()
        return Run(b"".join(out), b"".join(err), tuple(exits), wall,
                   first_line if first_line is not None else wall, rss_kb / 1024)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # (step, input digest, exit codes, output digest) of outputs that passed
    _passed: set = field(default_factory=set, repr=False)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def judge(self, step: Step, data: bytes | None, run: Run) -> str | None:
        """None if the step exited as expected and its output checks out.
        An output byte-identical to one that passed for the same step and
        input passes without being parsed again."""
        key = (id(step), _digest(data or b""), run.exits, _digest(run.out))
        if key in self._passed:
            return None
        problem = judge(step, run)
        if problem is None:
            self._passed.add(key)
        return problem


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def judge(step: Step, run: Run) -> str | None:
    """None if the step exited as expected and its output checks out."""
    want = (0,) * (len(run.exits) - 1) + (step.expect,)
    if run.exits != want:
        tail = run.err.decode(errors="replace").strip()[-300:]
        return f"exit codes {run.exits}, expected {want}; stderr: {tail!r}"
    try:
        step.check(run.out)
    except Exception as exc:  # any failure to parse or match is a wrong output
        return f"{type(exc).__name__}: {exc}"
    return None


@dataclass
class PassSample:
    """One pass: per unit its wall time and the summed first-line times of
    its streaming steps; the set-up probe times; and `scale`, the factor
    REFERENCE_NOMINAL_S / median reference time over the pass (1.0 when
    the pass was not calibrated)."""

    walls: dict[str, float] = field(default_factory=dict)  # set-up probes excluded
    first_lines: dict[str, float] = field(default_factory=dict)
    setups: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    order: list[str] = field(default_factory=list)  # unit names as run
    references: list[float] = field(default_factory=list)  # before, then after each unit
    scale: float = 1.0


def run_unit(unit: Unit, runner, tally: Tally, sample: PassSample) -> tuple[float, float]:
    """Run the unit's steps in order; returns its wall and first-line time."""
    previous = None
    wall = first = 0.0
    for step in unit.steps:
        label = f"{unit.name}: {' '.join(step.args)}"
        try:
            data = step.stdin(previous) if step.stdin else None
        except ValueError as exc:
            tally.record(label, f"no input for this step: {exc}")
            break
        run = runner(step.args, step.upstream, data)
        tally.record(label, tally.judge(step, data, run))
        previous = run.out
        if step.stream and run.first_line is not None:
            first += run.first_line
        wall += run.wall
        if run.rss_mb is not None:
            sample.rss_mb = max(sample.rss_mb, run.rss_mb)
    return wall, first


def run_pass(workload: Workload, runner, tally: Tally, setup: Unit | None = None,
             setup_count: int = 0, reference=None) -> PassSample:
    """One pass over the workload's units in a seeded order, with
    `setup_count` set-up probes placed among them. A given `reference`
    (a callable returning seconds) runs before the first unit and after
    every unit, and calibrates the pass."""
    sample = PassSample()
    references = sample.references
    if reference:
        references.append(reference())
    for unit in workload.order([setup] * setup_count):
        wall, first = run_unit(unit, runner, tally, sample)
        sample.order.append(unit.name)
        if reference:
            references.append(reference())
        if unit is setup:
            sample.setups.append(wall)
            continue
        sample.walls[unit.name] = wall
        if first:
            sample.first_lines[unit.name] = first
    if reference:
        sample.scale = REFERENCE_NOMINAL_S / statistics.median(references)
    return sample


def summarize(samples: list[float], raw: list[float] | None = None) -> dict:
    """The median (the gated value), the highest percentile with at least
    ten samples beyond it (nearest rank), the sample count, and the median
    of the uncalibrated samples when given."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"value": statistics.median(ordered), "tail": None, "samples": n,
               "raw_median": statistics.median(raw if raw is not None else ordered)}
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            summary["tail"] = {"p": p, "value": ordered[rank - 1]}
            break
    return summary
