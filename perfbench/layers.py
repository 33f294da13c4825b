"""Traced run: per-layer times and counts, measured in-process.

Spans are recorded from the benchmark's side only, around calls into the
public functions of each primeperm module: the module attributes the CLI
looks up are wrapped for the length of a traced pass and restored after.
The codecs and `is_valid_solution`, which the CLI does not reach through
a wrappable public name, are timed by direct calls at the witness sizes.
"""

import functools
import io
import json
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from math import comb
from time import perf_counter

from harness import ENV, SRC, Run, Tally, run_pass
from workloads import (
    SIEVE_LIMIT,
    WITNESS_JSON_N,
    WITNESS_TEXT_N,
    WORKLOADS,
    rounds_table,
)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import primeperm.cli; "
    "print(time.perf_counter() - t)"
)


class Tracer:
    """Spans (name, parent index, start, end) kept in memory, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, parent, perf_counter(), None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._open.pop()

    def seconds(self) -> dict[str, float]:
        """Inclusive time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            totals[name] += end - start
        return totals


def _timed(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            key, value = count(args, result)
            tracer.counts[key] += value
        return result

    return wrapper


def _timed_enumerate(tracer: Tracer, fn):
    """Times each step of the solution stream: the first solution apart
    from the rest, without the consumer's work in between."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stream = iter(fn(*args, **kwargs))
        tracer.counts["count.enumerate_calls"] += 1
        name = "count.enumerate_first_s"
        while True:
            with tracer.span(name):
                perm = next(stream, None)
            if perm is None:
                return
            tracer.counts["count.enumerate_solutions"] += 1
            name = "count.enumerate_next"
            yield perm

    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    from primeperm import cli, construct, count

    def t(name, fn, counter=None):
        return _timed(tracer, name, fn, counter)

    return [
        (cli, "build_sieve", t("primes.build_sieve_s", cli.build_sieve)),
        (count, "build_sieve", t("primes.build_sieve_s", count.build_sieve)),
        (construct, "decompose_blocks", t(
            "construct.decompose_blocks_s", construct.decompose_blocks,
            lambda args, blocks: ("construct.blocks", len(blocks)))),
        (cli, "construct_prime_sum_permutation", t(
            "construct.construct_s", cli.construct_prime_sum_permutation)),
        (construct.Permutation, "__post_init__", t(
            "construct.permutation_init_s", construct.Permutation.__post_init__)),
        (count, "build_adjacency", t(
            "count.build_adjacency_s", count.build_adjacency,
            lambda args, adj: ("count.adjacency_ones", sum(r.bit_count() for r in adj.rows)))),
        (count, "count_solutions_dp", t(
            "count.dp_s", count.count_solutions_dp,
            lambda args, _: ("count.dp_states_bound", comb(args[0], args[0] // 2)))),
        (count, "count_solutions_ryser", t(
            "count.ryser_s", count.count_solutions_ryser,
            lambda args, _: ("count.ryser_subsets", 2 ** args[0] - 1))),
        (cli, "sequence_table", t("count.sequence_table_s", cli.sequence_table)),
        (cli, "enumerate_solutions", _timed_enumerate(tracer, cli.enumerate_solutions)),
    ]


@contextmanager
def _installed(patches):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, fn in patches:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _call_main(tracer: Tracer | None, args, data: bytes) -> tuple[bytes, int]:
    from primeperm import cli

    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(data.decode()), io.StringIO()
    try:
        with tracer.span(f"cli.main_{args[0]}_s") if tracer else nullcontext():
            code = cli.main(list(args))
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return out.encode(), code


def in_process(tracer: Tracer | None):
    """A runner that calls `cli.main` in this process; a pipe becomes the
    upstream's captured stdout fed to the downstream as stdin."""

    def run(args, upstream=None, data=None) -> Run:
        t0 = perf_counter()
        exits = []
        if upstream is not None:
            data, code = _call_main(tracer, upstream, b"")
            exits.append(code)
        out, code = _call_main(tracer, args, data or b"")
        exits.append(code)
        return Run(out, b"", tuple(exits), perf_counter() - t0)

    return run


def _probe_codecs(tracer: Tracer, tally: Tally) -> None:
    """Direct calls at the witness sizes: codecs and is_valid_solution."""
    from primeperm import Permutation, build_sieve, cli, is_valid_solution
    from primeperm import construct_prime_sum_permutation as construct

    sieve = build_sieve(SIEVE_LIMIT)
    perm = construct(WITNESS_JSON_N, sieve)
    with tracer.span("construct.is_valid_solution_s"):
        valid = is_valid_solution(perm, sieve)
    tally.record("probe is_valid_solution", None if valid else "witness rejected")
    with tracer.span("cli.to_json_s"):
        text = json.dumps(perm.as_json_dict(), separators=(",", ":"))
    with tracer.span("cli.from_json_s"):
        back = Permutation.from_json(json.loads(text))
    tally.record("probe json round trip", None if back == perm else "differs")

    small = construct(WITNESS_TEXT_N, sieve)
    with tracer.span("cli.to_text_s"):
        csv = small.to_text()
    with tracer.span("cli.from_text_s"):
        again = Permutation.from_text(csv)
    tally.record("probe text round trip", None if again == small else "differs")
    with tracer.span("cli.rounds_table_s"):
        table = cli._rounds_table(small)
    try:
        rounds_table(WITNESS_TEXT_N)((table + "\n").encode())
        tally.record("probe rounds table", None)
    except ValueError as exc:
        tally.record("probe rounds table", str(exc))


def _probe_setup(values: dict, tally: Tally) -> None:
    """Import cost in a fresh interpreter, and parser build cost here."""
    from primeperm import cli

    imports = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=ENV,
                              capture_output=True, text=True, timeout=60)
        ok = done.returncode == 0
        tally.record("probe import primeperm.cli", None if ok else done.stderr[-300:])
        if ok:
            imports.append(float(done.stdout))
    values["cli.import_s"] = statistics.median(imports or [0.0])
    builds = []
    for _ in range(20):
        t0 = perf_counter()
        cli.build_parser()
        builds.append(perf_counter() - t0)
    values["cli.build_parser_s"] = statistics.median(builds)


def _round(workload: str, seed: int, tally: Tally) -> dict[str, float]:
    """One traced round: the other workloads traced (so every layer is
    reached), then the workload in-process three times: untraced to warm
    this process's allocator, untraced, and traced. Then the probes."""
    tracer = Tracer()

    def traced_pass(name: str) -> dict[str, float]:
        with _installed(_patches(tracer)):
            return run_pass(WORKLOADS[name](seed), in_process(tracer), tally).walls

    for other in WORKLOADS:
        if other != workload:
            traced_pass(other)
    run_pass(WORKLOADS[workload](seed), in_process(None), tally)
    untraced = run_pass(WORKLOADS[workload](seed), in_process(None), tally).walls
    traced = traced_pass(workload)
    _probe_codecs(tracer, tally)
    values = dict(tracer.seconds())
    values.update(tracer.counts)
    _probe_setup(values, tally)
    after_first = values["count.enumerate_solutions"] - values["count.enumerate_calls"]
    values["count.enumerate_us_per_solution"] = 1e6 * values["count.enumerate_next"] / after_first
    values["bench.trace_overhead_s"] = sum(traced.values()) - sum(untraced.values())
    return values


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, list]:
    """Traced rounds until `seconds` would be exceeded (at least one).
    Returns every recorded value's samples, one per round."""
    sys.path.insert(0, str(SRC))
    import primeperm

    if not primeperm.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported primeperm from {primeperm.__file__}, not {SRC}")
    start = perf_counter()
    durations, samples = [], defaultdict(list)
    while not durations or perf_counter() + max(durations) <= start + seconds:
        t0 = perf_counter()
        for name, value in _round(workload, seed, tally).items():
            samples[name].append(value)
        durations.append(perf_counter() - t0)
    return samples
