"""Run `hoarun` in this process with a probe or a layer tracer installed.

Usage: python3 child.py probe|plain|trace OUT_FILE hoarun-arguments...

The instruments replace names that `hoarun.cli`, `hoarun.runtime` and
`hoarun.monitoring` look up at call time, then call `hoarun.cli.main`, so
the program under test runs unchanged. The exit code is the program's.

- `probe` times only the loop, on the main thread's CPU clock (the
  program starts no threads): it stores the clock reading when
  `run_loop` starts, then one reading per `StepEvent` passed to the
  callback the CLI gives `run_loop`. From the
  child's first line to its end, an interval timer also runs a tiny
  fixed calibration job every `CALIBRATION_EVERY_S` seconds and notes
  when each one starts and ends on the same clock, so that the parent
  can tell how fast the host ran at each moment and leave the jobs' own
  time out. OUT_FILE holds native doubles: (start, end) per job, the
  step readings, the peak resident set in KiB, then the number of step
  readings.
- `plain` runs the calibration as `probe` does, without the probe, and
  writes OUT_FILE alike with no step readings.
- `trace` runs the calibration too, wraps each layer's public calls in
  spans and writes OUT_FILE.json: per-name aggregates (outermost calls,
  busy and self seconds, wrapped child calls) for every call, the
  individual spans of calls made outside the loop, and the tracer's own
  cost per wrapped call. Span times are wall seconds and include the
  calibration jobs that ran inside them. In OUT_FILE the two readings in
  place of step readings bracket the tracer's work after the run.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
from array import array
from itertools import count
from time import perf_counter, thread_time
from typing import Callable

WRAP_COST_BATCHES = 5
WRAP_COST_CALLS = 20_000  # per batch
CALIBRATION_EVERY_S = 0.0005
CALIBRATION_ROUNDS = 15  # about 8 to 16 us on a 2-vCPU x86-64 guest
CALIBRATION_BUFFER = 2048  # readings kept in memory before they are written


def calibration_job() -> int:
    """A fixed piece of pure-Python work; its duration gauges the host's speed.

    It uses no `hoarun` code, so a change to the program does not change
    its cost: dict updates, tuple and frozenset building, integer
    arithmetic, as the monitor's per-event work has.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + 1
        total += len(frozenset((key, key + 1, key & 3)))
    return total


def start_calibration(out: int) -> Callable[[], None]:
    """Run `calibration_job` now and then on a timer; returns the stop function.

    Each job writes its start and end readings of the thread's CPU clock
    to the file descriptor ``out``, through a buffer of fixed size, so
    that the child's peak memory does not depend on how long it runs. The
    timer's handler runs in the main thread between bytecodes, so no
    thread is started. A shared host can change speed within a few
    milliseconds, so the jobs are short and frequent. The timer counts
    wall time: a CPU-time timer fires only at scheduler ticks, which are
    4 ms apart on a kernel built with HZ=250.
    """

    samples = array("d")
    busy = [False]

    def calibrate(signum=None, frame=None) -> None:
        # A signal that arrives while the handler runs (the host took the
        # vCPU away for longer than the interval) runs it again inside
        # itself; that call is skipped.
        if busy[0]:
            return
        busy[0] = True
        start = thread_time()
        calibration_job()
        samples.extend((start, thread_time()))
        if len(samples) >= CALIBRATION_BUFFER:
            os.write(out, samples.tobytes())
            del samples[:]
        busy[0] = False

    def stop() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        calibrate()
        busy[0] = True  # a signal still pending must not write any more
        os.write(out, samples.tobytes())

    calibrate()
    signal.signal(signal.SIGALRM, calibrate)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
    return stop


def peak_rss_kb() -> float:
    """This process's peak resident set since it started the program.

    Not `ru_maxrss`: Linux folds the parent's peak into it at `exec`,
    which would make the figure depend on the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def install_probe(stamps: array) -> None:
    from hoarun import cli
    from hoarun.runtime import StepEvent

    real_run_loop = cli.run_loop

    def probed_run_loop(*args, on_event, **kwargs):
        stamps.append(thread_time())
        record = stamps.append

        def on_event_probed(event, _clock=thread_time, _step=StepEvent):
            if type(event) is _step:
                record(_clock())
            on_event(event)

        return real_run_loop(*args, on_event=on_event_probed, **kwargs)

    cli.run_loop = probed_run_loop


class Tracer:
    """Spans at layer boundaries, kept in memory until the run ends.

    A frame on ``stack`` is ``[child_seconds, span_id, child_calls]``.
    Self time is a call's duration minus its wrapped children's; it still
    holds the tracer work each wrapped child does outside its own clock
    readings, which `wrap_cost` measures. A name that recurses
    into itself counts its busy time and calls once, at the outermost
    level. Inside the loop spans are only aggregated, because one per
    event would cost more memory and time than the work measured.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, busy_s, self_s, child_calls]
        self.spans: list[dict] = []
        self.recording = True
        self._ids = count()

    def wrap(self, name: str, fn):
        stack = self.stack
        totals = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])
        depth = [0]
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = next(self._ids) if self.recording else None
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id, 0]
            stack.append(frame)
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[0] -= 1
                stack.pop()
                elapsed = end - start
                totals[2] += elapsed - frame[0]
                totals[3] += frame[2]
                if not depth[0]:
                    totals[0] += 1
                    totals[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][2] += 1
                if span_id is not None:
                    spans.append(
                        {"id": span_id, "name": name, "parent": parent,
                         "start": start, "end": end}
                    )

        return traced

    def install(self) -> None:
        from hoarun import cli, monitoring, runtime

        for module, attr, name in (
            (cli, "parse", "hoa.parse"),
            (cli, "attach_monitor", "monitoring.attach"),
            (cli, "prepare_runners", "runtime.prepare_runners"),
            (cli, "resolve_bindings", "runtime.resolve_bindings"),
            (monitoring, "is_deterministic", "automata.is_deterministic"),
            (monitoring, "is_complete", "automata.is_complete"),
            (monitoring, "build_index", "traps.build_index"),
            (monitoring, "min_trap_set_of", "traps.min_trap_set_of"),
            (monitoring, "is_transient", "traps.is_transient"),
            (monitoring, "condition_verdict", "monitoring.condition_verdict"),
            (runtime, "collect_valuation", "runtime.collect_valuation"),
            (runtime, "step", "runtime.step"),
        ):
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        monitoring.Monitor.observe = self.wrap("monitoring.observe", monitoring.Monitor.observe)

        real_run_loop = cli.run_loop

        def loop(*args, on_event, **kwargs):
            self.recording = False
            try:
                return real_run_loop(
                    *args, on_event=self.wrap("cli.on_event", on_event), **kwargs
                )
            finally:
                self.recording = True

        cli.run_loop = self.wrap("runtime.run_loop", loop)

    def dump(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": calls, "busy_s": busy, "self_s": self_s,
                       "child_calls": child_calls}
                for name, (calls, busy, self_s, child_calls) in self.aggregates.items()
            },
            "spans": self.spans,
        }


def wrap_cost() -> float:
    """Tracer seconds per wrapped call that land in the caller's self time.

    Times a loop of wrapped calls to an empty function under a caller's
    frame, takes away what the wrapper charged to the callee and what the
    same loop costs unwrapped; the median over batches is returned. Spans
    are not recorded, as inside the loop, where nearly all calls are.
    """
    tracer = Tracer()
    tracer.recording = False

    def noop():
        pass

    wrapped = tracer.wrap("noop", noop)
    caller = [0.0, None, 0]
    tracer.stack.append(caller)
    costs = []
    for _ in range(WRAP_COST_BATCHES):
        caller[0] = 0.0
        start = perf_counter()
        for _ in range(WRAP_COST_CALLS):
            wrapped()
        traced = perf_counter() - start
        start = perf_counter()
        for _ in range(WRAP_COST_CALLS):
            noop()
        plain = perf_counter() - start
        costs.append((traced - caller[0] - plain) / WRAP_COST_CALLS)
    return statistics.median(costs)


def main(argv: list[str]) -> int:
    mode, out_path, args = argv[0], argv[1], argv[2:]
    if mode not in ("probe", "plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    stop_calibration = start_calibration(out)
    from hoarun import cli

    stamps = array("d")
    if mode == "probe":
        install_probe(stamps)
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    code = cli.main(args)
    stop_calibration()
    if mode == "trace":
        # the readings bracket the tracer's own work after the run
        stamps.append(thread_time())
        dump = tracer.dump()
        dump["wrap_cost_s"] = wrap_cost()
        with open(out_path + ".json", "w", encoding="utf-8") as handle:
            json.dump(dump, handle)
        stamps.append(thread_time())
    stamps.extend((peak_rss_kb(), len(stamps)))
    os.write(out, stamps.tobytes())
    os.close(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
