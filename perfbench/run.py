#!/usr/bin/env python3
"""Benchmark of `hoarun run`, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every input is generated from ``--seed``. Runs start the real `hoarun run`
entry point as a child process, one at a time: the system is a closed-loop
batch consumer whose trace file is read as fast as the monitor consumes
it. Each run's output is checked against a reference that does not use
the monitor. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end, medians over runs with
quartiles and counts printed above the JSON line:

- ``setup_s``: the child's start until `run_loop` starts;
- ``run_s``: the whole child process;
- ``event_us``: (run_s - setup_s) per trace event;
- ``step_p50_us``, ``step_p99_us``: percentiles, per run, of the time
  between consecutive `StepEvent`s on the callback the CLI passes to
  `run_loop`;
- ``peak_rss_mb``: the child's peak resident set (``VmHWM``).

These come from runs with a small probe (``child.py probe``); every fifth
run has no probe (``child.py plain``), and the probe's cost is printed as
the run_s difference.
Failed runs count in ``failed`` and ``failed_frac`` and their timings are
dropped.

The times are reference CPU seconds, not wall seconds. The child runs
no threads and waits on nothing but reads of small files, so its CPU time
is its work; time the host takes the vCPU away does not count. The shared
host also runs pure Python at two speeds, about 1.8 times apart, and
switches between them within milliseconds. So every child runs a tiny
fixed calibration job every half millisecond, and `ReferenceClock`
weights each moment of the child's run by the host's speed then, with
the jobs' own time left out. A change to the program moves these times
as it moves wall times; a change in the host's speed moves them far less.
The table gives the median speed and the median wall time.

With ``--trace 1`` one run has every layer boundary wrapped
(``child.py trace``) and the metrics are per layer; self times have the
tracer's measured cost per wrapped child call taken off. Span times are
wall seconds; the traced run's run_s is in reference seconds, against the
median run_s of the probed runs made in the same invocation, which gives
the tracing overhead. The full span dump goes to ``perfbench/results/``.

Runs repeat until ``--seconds``, counted from the start of the invocation
(input generation and the traced run included), would be overrun.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PLAIN_EVERY = 5  # every fifth timed run goes without the probe
MIN_RUNS = 3  # probed runs made even when they overrun --seconds
HARD_LIMIT_S = 150.0  # no new run starts after this, whatever --seconds says
TIME_LIMIT_S = 170  # the whole invocation, a running child included

# Times are reported in reference seconds: seconds on a host that runs
# `child.calibration_job` in this time. It is about what the job takes on a
# 2-vCPU x86-64 guest in its fast phase (see README.md).
CALIBRATION_REF_S = 8.5e-6

RESET_CONFIG = "[hooks.reset]\ntrigger = verdict: conclusive\naction = reset\n"


class BenchmarkError(Exception):
    """The benchmark cannot run here, or its own reference is inconsistent."""


@dataclass
class Inputs:
    """Files and expectations for one workload instance."""

    args: list[str]  # `hoarun` arguments
    events: int
    hoa_bytes: int
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> mismatch or None
    problems: list[str] = field(default_factory=list)  # reference self-check failures


MakeInputs = Callable[[int, Path], Inputs]  # (seed, work directory) -> inputs


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def lock_workload(n: int, length: int, faults: int):
    def make(seed: int, work: Path) -> Inputs:
        from hoarun.hoa import serialize
        from hoarun.locks import LockScenario, emit_monitors, generate_trace, replay_check

        trace = generate_trace(LockScenario(n=n, length=length, violations=faults, seed=seed))
        replayed = replay_check(trace, n).total
        if replayed != faults:
            raise BenchmarkError(f"replay_check counts {replayed} faults, {faults} were injected")
        monitors = serialize(emit_monitors(n))
        args = [
            "run",
            _write(work / "monitors.hoa", monitors),
            "--trace", _write(work / "trace.txt", trace),
            "--config", _write(work / "reset.ini", RESET_CONFIG),
            "--monitor",
            "--negated",
        ]

        def check(code: int, out: str) -> str | None:
            lines = out.splitlines()
            violations = sum(line.startswith("VIOLATION ") for line in lines)
            if code != 0:
                return f"exit code {code}, expected 0"
            if violations != replayed:
                return f"{violations} VIOLATION lines, replay_check counts {replayed}"
            if violations != len(lines):
                return f"{len(lines) - violations} unexpected output lines"
            return None

        return Inputs(args, length, len(monitors.encode()), check)

    return make


def layered_workload(states: int, length: int):
    def make(seed: int, work: Path) -> Inputs:
        import layered

        automaton = layered.generate(states, seed)
        letters = layered.random_letters(length, seed)
        expected = layered.expected_verdicts(automaton, letters)
        expected_code = 10 if any(line.split()[2] == "bad" for line in expected) else 0
        hoa = automaton.hoa_text()
        args = [
            "run",
            _write(work / "layered.hoa", hoa),
            "--trace", _write(work / "trace.txt", layered.trace_text(letters)),
            "--config", _write(work / "reset.ini", RESET_CONFIG),
            "--monitor",
        ]

        def check(code: int, out: str) -> str | None:
            if code != expected_code:
                return f"exit code {code}, expected {expected_code}"
            got = out.splitlines()
            if got != expected:
                first = next(
                    (i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
                    min(len(got), len(expected)),
                )
                return (
                    f"{len(got)} output lines against {len(expected)} expected "
                    f"VERDICT lines; first difference at line {first + 1}"
                )
            return None

        return Inputs(args, length, len(hoa.encode()), check, layered.self_check(seed))

    return make


# Why each workload exists is recorded in BENCHMARK.json and README.md. Sizes
# keep one child run between 1 and 3 s on a 2-core x86-64 machine, so that a
# 42 s invocation makes 15 or more runs and a run has 2,000 or more step samples.
WORKLOADS = {
    "locks-n2": lock_workload(2, 30_000, 20),
    "locks-n8": lock_workload(8, 2_000, 10),
    "layered": layered_workload(3_000, 30_000),
}


# ---------------------------------------------------------------------------
# Child runs


@dataclass
class Run:
    run_s: float  # wall time
    cpu_s: float  # user and system CPU time
    code: int
    stdout: str
    stderr: str
    out_file: Path | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute, so any working directory works
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(kind: str, inputs: Inputs, work: Path) -> Run:
    """Start one child and wait for it."""
    out_file = work / f"{kind}.out"
    argv = [sys.executable, str(HERE / "child.py"), kind, str(out_file), *inputs.args]
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the time limit or an interrupt: leave no child behind
            proc.kill()
            proc.wait()
            raise
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(
        ended - launched,
        usage.ru_utime + usage.ru_stime,
        proc.returncode,
        stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr_path.read_text(encoding="utf-8", errors="replace"),
        out_file,
    )
    return run


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


class ReferenceClock:
    """Turns spans of a calibrated child's timeline into reference seconds.

    The child ran `child.calibration_job` every half millisecond and noted
    when each job started and ended on its CPU clock. A job that took d
    seconds says the host ran at ``CALIBRATION_REF_S / d`` of reference
    speed around then. A span's reference seconds are its seconds, less
    the jobs' own time, each weighted by the speed at that moment: from a
    job's end to halfway to the next job's start the speed is that job's,
    then the next one's. The speed before the first job is the first's,
    after the last the last's.

    ``at(t)`` is the reference seconds from the first job's start to t;
    the reference time of a span is the difference of its ends.

    Now and then a job's readings are out of order: it ends before it
    starts, or starts before the previous job ended, as if the CPU clock
    had stepped back. Such a job is dropped and counted in ``dropped``;
    its neighbours give the speed.
    """

    def __init__(self, readings: list[tuple[float, float]]) -> None:
        samples = []
        for start, end in readings:
            if start < end and (not samples or samples[-1][1] <= start):
                samples.append((start, end))
        if not samples:
            raise ValueError("no calibration job has its readings in order")
        self.dropped = len(readings) - len(samples)
        self.speeds = [CALIBRATION_REF_S / (end - start) for start, end in samples]
        # piecewise linear: from knot i on, reference time grows at slopes[i]
        self.knots: list[float] = []
        self.values: list[float] = []
        self.slopes: list[float] = []
        for i, (start, end) in enumerate(samples):
            self._add(start, 0.0)  # the job's own time does not count
            self._add(end, self.speeds[i])
            if i + 1 < len(samples):
                self._add((end + samples[i + 1][0]) / 2, self.speeds[i + 1])

    def _add(self, t: float, slope: float) -> None:
        """Start a piece of the given slope at t."""
        value = self.values[-1] + self.slopes[-1] * (t - self.knots[-1]) if self.knots else 0.0
        self.knots.append(t)
        self.values.append(value)
        self.slopes.append(slope)

    def at(self, t: float) -> float:
        i = bisect.bisect_right(self.knots, t) - 1
        if i < 0:
            return (t - self.knots[0]) * self.speeds[0]
        return self.values[i] + self.slopes[i] * (t - self.knots[i])

    def median_speed(self) -> float:
        return statistics.median(self.speeds)


def read_calibrated(run: Run) -> tuple[ReferenceClock, array, float, float]:
    """A calibrated child's clock, step readings, calibration seconds and peak RSS in MB.

    Raises ValueError when the child's output file is not as `child.py` writes it.
    """
    data = array("d")
    with open(run.out_file, "rb") as handle:
        data.frombytes(handle.read())
    if len(data) < 4 or not data[-1].is_integer() or not 0 <= data[-1] <= len(data) - 4:
        raise ValueError(f"no valid trailer in {len(data)} values")
    count, rss_kb = int(data[-1]), data[-2]
    jobs, stamps = data[: -2 - count], data[-2 - count : -2]
    if len(jobs) % 2:
        raise ValueError("an odd number of calibration readings")
    clock = ReferenceClock(list(zip(jobs[0::2], jobs[1::2])))
    return clock, stamps, sum(jobs[1::2]) - sum(jobs[0::2]), rss_kb / 1024


def reference_run_s(run: Run, clock: ReferenceClock) -> float:
    """The whole child in reference seconds; its CPU clock starts with the process."""
    return clock.at(run.cpu_s) - clock.at(0.0)


def read_probe(run: Run, events: int) -> dict[str, float] | str:
    """End-to-end metrics of one probed run, or why it failed."""
    clock, stamps, calibration_s, rss_mb = read_calibrated(run)
    steps = len(stamps) - 1
    if steps != events:
        return f"{steps} StepEvents for {events} trace events"
    ref = [clock.at(t) for t in stamps]
    gaps = sorted(ref[i + 1] - ref[i] for i in range(steps))
    setup = ref[0] - clock.at(0.0)
    run_s = reference_run_s(run, clock)
    return {
        "setup_s": setup,
        "run_s": run_s,
        "event_us": (run_s - setup) / events * 1e6,
        "step_p50_us": percentile(gaps, 0.50) * 1e6,
        "step_p99_us": percentile(gaps, 0.99) * 1e6,
        "peak_rss_mb": rss_mb,
        "wall_run_s": run.run_s,
        "calibration_s": calibration_s,
        "speed": clock.median_speed(),
        "dropped_jobs": clock.dropped,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "event_us": "us",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run


PER_LAYER_UNITS = {
    "hoa.parse_s": "s",
    "hoa.parse_s_per_mb": "s/MB",
    "automata.is_deterministic_s": "s",
    "automata.is_complete_s": "s",
    "traps.build_index_s": "s",
    "traps.min_trap_set_of_s": "s",
    "traps.min_trap_set_of_calls": "count",
    "traps.is_transient_s": "s",
    "monitoring.attach_s": "s",
    "monitoring.observe_self_s": "s",
    "monitoring.observe_calls": "count",
    "monitoring.condition_verdict_s": "s",
    "monitoring.verdict_misses": "count",
    "monitoring.verdict_hit_ratio": "ratio",
    "runtime.prepare_runners_s": "s",
    "runtime.resolve_bindings_s": "s",
    "runtime.collect_valuation_s": "s",
    "runtime.collect_valuation_calls": "count",
    "runtime.collect_valuation_us_per_call": "us",
    "runtime.step_self_s": "s",
    "runtime.step_calls": "count",
    "runtime.loop_self_s": "s",
    "cli.on_event_s": "s",
    "cli.lines_out": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.wrap_cost_us": "us",
}


def layer_metrics(
    dump: dict, inputs: Inputs, traced: Run, traced_run_s: float, untraced_run_s: float
) -> dict:
    agg = dump["aggregates"]

    def busy(name):
        return agg[name]["busy_s"]

    def own(name):  # self time less the tracer's own work around wrapped children
        return agg[name]["self_s"] - agg[name]["child_calls"] * dump["wrap_cost_s"]

    def calls(name):
        return agg[name]["calls"]

    observe_calls = calls("monitoring.observe")
    misses = calls("monitoring.condition_verdict")
    valuations = calls("runtime.collect_valuation")
    return {
        "hoa.parse_s": busy("hoa.parse"),
        "hoa.parse_s_per_mb": busy("hoa.parse") / (inputs.hoa_bytes / 1e6),
        "automata.is_deterministic_s": busy("automata.is_deterministic"),
        "automata.is_complete_s": busy("automata.is_complete"),
        "traps.build_index_s": busy("traps.build_index"),
        "traps.min_trap_set_of_s": busy("traps.min_trap_set_of"),
        "traps.min_trap_set_of_calls": calls("traps.min_trap_set_of"),
        "traps.is_transient_s": busy("traps.is_transient"),
        "monitoring.attach_s": busy("monitoring.attach"),
        "monitoring.observe_self_s": own("monitoring.observe"),
        "monitoring.observe_calls": observe_calls,
        "monitoring.condition_verdict_s": busy("monitoring.condition_verdict"),
        "monitoring.verdict_misses": misses,
        "monitoring.verdict_hit_ratio": 1 - misses / observe_calls if observe_calls else 0.0,
        "runtime.prepare_runners_s": busy("runtime.prepare_runners"),
        "runtime.resolve_bindings_s": busy("runtime.resolve_bindings"),
        "runtime.collect_valuation_s": busy("runtime.collect_valuation"),
        "runtime.collect_valuation_calls": valuations,
        "runtime.collect_valuation_us_per_call": (
            busy("runtime.collect_valuation") / valuations * 1e6 if valuations else 0.0
        ),
        "runtime.step_self_s": own("runtime.step"),
        "runtime.step_calls": calls("runtime.step"),
        "runtime.loop_self_s": own("runtime.run_loop"),
        "cli.on_event_s": busy("cli.on_event"),
        "cli.lines_out": len(traced.stdout.splitlines()),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.wrap_cost_us": dump["wrap_cost_s"] * 1e6,
    }


# ---------------------------------------------------------------------------
# Measuring and reporting


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Measurement:
    inputs: Inputs
    attempted: int = 0
    failed: int = 0
    per_run: list[dict[str, float]] = field(default_factory=list)  # probed runs
    plain_run_s: list[float] = field(default_factory=list)  # calibrated, without the probe
    traced: Run | None = None

    def attempt(self, kind: str, work: Path) -> None:
        """Make one child run, check its output and keep its timings if it passed."""
        run = run_child(kind, self.inputs, work)
        self.attempted += 1
        mismatch = self.inputs.check(run.code, run.stdout)
        try:
            if mismatch is None and kind == "probe":
                probed = read_probe(run, self.inputs.events)
                if isinstance(probed, str):
                    mismatch = probed
                else:
                    self.per_run.append(probed)
            elif mismatch is None and kind == "plain":
                self.plain_run_s.append(reference_run_s(run, read_calibrated(run)[0]))
            elif mismatch is None and len(read_calibrated(run)[1]) != 2:
                mismatch = "the traced run did not bracket the tracer's work"
        except ValueError as exc:
            mismatch = f"malformed {run.out_file.name}: {exc}"
        if mismatch is not None:
            self.failed += 1
            stderr = run.stderr.strip().splitlines()
            print(f"failed {kind} run: {mismatch}" + (f" ({stderr[-1]})" if stderr else ""))
        elif kind == "trace":
            self.traced = run


def measure(make: MakeInputs, seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    started = time.perf_counter()
    m = Measurement(make(seed, work))
    for problem in m.inputs.problems:
        print(f"reference self-check: {problem}")
    # compile and cache the program's bytecode before anything is timed
    subprocess.run(
        [sys.executable, "-c", "import hoarun.cli"], env=child_env(), cwd=work, check=True
    )
    if trace:
        m.attempt("trace", work)
    deadline = started + seconds
    timed = 0
    while True:
        before = time.perf_counter()
        m.attempt("plain" if timed % PLAIN_EVERY == PLAIN_EVERY - 1 else "probe", work)
        timed += 1
        now = time.perf_counter()
        if now - started > HARD_LIMIT_S:
            break
        if len(m.per_run) >= MIN_RUNS and deadline - now < now - before:
            break  # the next run would end after the deadline
        if now >= deadline and m.failed > len(m.per_run):
            break
    return m


def untraced_wall_s(m: Measurement) -> float:
    """Median wall time of the probed runs, less their calibration jobs."""
    return statistics.median(run["wall_run_s"] - run["calibration_s"] for run in m.per_run)


def report_end_to_end(name: str, m: Measurement) -> dict:
    print(f"workload {name}: {m.attempted} runs, {m.failed} failed, "
          f"{len(m.per_run)} probed, {len(m.plain_run_s)} without probe, "
          f"{m.inputs.events} events per run")
    speeds = [run["speed"] for run in m.per_run]
    q1, median, q3 = quartiles(speeds)
    print(f"  host speed against the calibration reference: median {median:.3f}, "
          f"quartiles {q1:.3f} and {q3:.3f}; times below are reference seconds")
    dropped = sum(run["dropped_jobs"] for run in m.per_run)
    print(f"  calibration jobs dropped for out-of-order readings: {dropped:g} "
          f"in {len(m.per_run)} runs")
    print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'runs':>5}  unit")
    metrics = {}
    for metric, unit in END_TO_END_UNITS.items():
        values = [run[metric] for run in m.per_run]
        q1, median, q3 = quartiles(values)
        print(f"  {metric:<12} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>5}  {unit}")
        metrics[metric] = {"value": median, "unit": unit}
    print(f"  {'failed_frac':<12} {m.failed / m.attempted:>12.6g}{'':>26} "
          f"{m.attempted:>5}  ratio")
    print(f"  wall run_s median {untraced_wall_s(m):.4f} s, calibration jobs left out")
    if m.plain_run_s:
        probed = metrics["run_s"]["value"]
        without = statistics.median(m.plain_run_s)
        print(f"  probe overhead: run_s {probed:.4f} s with probe, {without:.4f} s without "
              f"({(probed / without - 1) * 100:+.2f}%, {len(m.plain_run_s)} runs without)")
    return metrics


def report_per_layer(name: str, seed: int, m: Measurement) -> dict:
    untraced = statistics.median(run["run_s"] for run in m.per_run)
    with open(f"{m.traced.out_file}.json", encoding="utf-8") as handle:
        dump = json.load(handle)
    clock, (after_run, after_dump), _, _ = read_calibrated(m.traced)
    traced = reference_run_s(m.traced, clock) - (clock.at(after_dump) - clock.at(after_run))
    values = layer_metrics(dump, m.inputs, m.traced, traced, untraced)
    print(f"workload {name}: traced run {traced:.4f} s, untraced median "
          f"{untraced:.4f} s over {len(m.per_run)} runs, tracing overhead "
          f"{traced - untraced:+.4f} s ({(traced / untraced - 1) * 100:+.1f}%), "
          f"{values['trace.wrap_cost_us']:.3f} us of tracer time per wrapped call")
    for metric, unit in PER_LAYER_UNITS.items():
        print(f"  {metric:<40} {values[metric]:>14.6g}  {unit}")
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{name}-seed{seed}-trace.json"
    dump["metrics"] = values
    dump["untraced_run_s"] = untraced
    out.write_text(json.dumps(dump, indent=1), encoding="utf-8")
    print(f"  spans and aggregates written to {out.relative_to(ROOT)}")
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hoarun" / "cli.py").is_file():
        print(f"error: no hoarun sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    def out_of_time(signum, frame):
        raise BenchmarkError(f"no result within {TIME_LIMIT_S} s")

    def terminated(signum, frame):
        raise BenchmarkError("terminated")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.signal(signal.SIGTERM, terminated)
    signal.alarm(TIME_LIMIT_S)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        m = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        if not m.per_run or (args.trace and m.traced is None):
            print("error: no run passed its check", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": m.attempted,
                              "failed": m.failed, "metrics": {}}))
            return 1
        if args.trace:
            metrics = report_per_layer(args.workload, args.seed, m)
        else:
            metrics = report_end_to_end(args.workload, m)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = m.failed == 0 and not m.inputs.problems
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
