"""Command-line interface: run automata, check files, generate lock benches.

Exit codes: 0 clean end, 1 usage/parse/config error, 2 monitor attach
refused, 3 unhandled nondeterminism, 4 unhandled deadlock, 10 a bad
verdict occurred, 11 an ugly verdict is latched (and no bad), 12
monitoring ended unknown under --strict.
"""

from __future__ import annotations

import argparse
import sys

from .automata import Automaton, Compiled, is_complete, is_deterministic, state_graph
from .hoa import HoaParseError, format_acceptance, parse, serialize
from .labels import CapacityError, Diagrams
from .monitoring import MonitorAttachError, Verdict, attach_monitor
from .records import replace
from .runtime import (
    Config,
    ConfigError,
    FileSpec,
    InputClosedError,
    InteractiveSpec,
    LogEvent,
    PromptAction,
    StepEvent,
    TraceError,
    VerdictEvent,
    build_universe,
    load_config,
    prepare_runners,
    resolve_bindings,
    run_loop,
)
from .traps import bsccs, build_index

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ATTACH_REFUSED = 2
EXIT_NONDETERMINISM = 3
EXIT_DEADLOCK = 4
EXIT_BAD = 10
EXIT_UGLY = 11
EXIT_UNKNOWN_STRICT = 12


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoarun",
        description="Execute and monitor omega-automata in the HOA format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute automata against input drivers")
    run.add_argument("hoa", nargs="+", help="HOA files ('-' for standard input)")
    run.add_argument("--config", help="INI run configuration")
    run.add_argument(
        "--trace", help="bind every proposition to this trace file ('-' for standard input)"
    )
    run.add_argument("--steps", type=int, help="stop after N steps")
    run.add_argument("--seed", type=int, help="global seed (overrides config)")
    run.add_argument("--monitor", action="store_true", help="attach acceptance monitors")
    run.add_argument(
        "--complete",
        action="store_true",
        help="with --monitor: complete incomplete automata with stuttering self-loops",
    )
    run.add_argument("--verbose", action="store_true", help="print one STEP line per step")
    run.add_argument(
        "--strict",
        action="store_true",
        help="with --monitor: exit 12 when monitoring ends without a conclusive verdict",
    )
    run.add_argument(
        "--negated",
        action="store_true",
        help="with --monitor: report good verdicts as VIOLATION lines (for monitors that "
        "accept the violating runs, like those from gen-locks)",
    )
    run.add_argument(
        "--allow-empty-accsets",
        action="store_true",
        help="accept conditions over empty acceptance sets (Fin: holds, Inf: fails)",
    )

    check = sub.add_parser("check", help="parse automata and report their properties")
    check.add_argument("hoa", nargs="+", help="HOA files ('-' for standard input)")
    check.add_argument("--allow-empty-accsets", action="store_true")

    locks = sub.add_parser("gen-locks", help="generate a lock-scenario trace and monitors")
    locks.add_argument("--n", type=int, required=True, help="thread/lock count (power of two)")
    locks.add_argument("--len", type=int, required=True, dest="length", help="trace length")
    locks.add_argument("--violations", type=int, default=0, help="faults to inject")
    locks.add_argument(
        "--fault",
        choices=("double-acquire", "unreleased-at-end"),
        default="double-acquire",
        help="kind of fault to inject",
    )
    locks.add_argument("--seed", type=int, default=0)
    locks.add_argument("--out-trace", required=True, help="trace output path")
    locks.add_argument("--out-monitors", required=True, help="HOA output path")
    return parser


def _read_documents(paths, allow_empty_acc_sets):
    automata: list[Automaton] = []
    for path in paths:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8", errors="replace")
        try:
            doc = parse(text, allow_empty_acc_sets=allow_empty_acc_sets)
        except HoaParseError as exc:
            for diagnostic in exc.diagnostics:
                print(f"{path}:{diagnostic}", file=sys.stderr)
            raise
        for diagnostic in doc.warnings:
            print(f"{path}:{diagnostic}", file=sys.stderr)
        automata.extend(doc.automata)
    return automata


def _cmd_run(args) -> int:
    config = Config()
    if args.config:
        try:
            config = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    if args.steps is not None and args.steps < 0:
        print(f"error: --steps must not be negative, got {args.steps}", file=sys.stderr)
        return EXIT_ERROR
    for flag in ("complete", "strict", "negated"):
        if getattr(args, flag) and not args.monitor:
            print(f"error: --{flag} applies only with --monitor", file=sys.stderr)
            return EXIT_ERROR
    if args.trace is not None:
        config = replace(config, drivers=(), default_driver=FileSpec(args.trace))
    # an automaton or a trace reads standard input to its end, so nothing
    # else can read it; interactive drivers and prompt hooks take turns
    specs = [spec for _, spec in config.drivers] + [config.default_driver]
    asks = InteractiveSpec() in specs or any(
        isinstance(hook.action, PromptAction) for hook in config.hooks
    )
    if ("-" in args.hoa) + (FileSpec("-") in specs) + asks > 1:
        print(
            "error: standard input can feed only one of the automata, the trace, "
            "and interactive drivers or prompt hooks",
            file=sys.stderr,
        )
        return EXIT_ERROR
    try:
        automata = _read_documents(args.hoa, args.allow_empty_accsets)
    except (HoaParseError, OSError) as exc:
        if isinstance(exc, OSError):
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    seed = args.seed if args.seed is not None else (config.seed or 0)
    max_steps = args.steps if args.steps is not None else config.max_steps
    # only a trace or a step bound ends a run whose automata read nothing
    if max_steps is None and not isinstance(config.default_driver, FileSpec) and not any(
        automaton.aps for automaton in automata
    ):
        print(
            "error: nothing ends the run: the automata read no proposition, "
            "and no trace or step bound is given",
            file=sys.stderr,
        )
        return EXIT_ERROR

    store = Diagrams()  # the run's one decision-diagram store, which the runners read
    compiled, monitors = [], []
    for automaton in automata:
        if not args.monitor:
            compiled.append(Compiled(automaton, store))
            continue
        try:
            item, monitor = attach_monitor(automaton, complete=args.complete, store=store)
        except MonitorAttachError as exc:
            label = automaton.name or str(len(monitors))
            print(f"error: cannot monitor {label}: {exc}", file=sys.stderr)
            return EXIT_ATTACH_REFUSED
        except CapacityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        compiled.append(item)
        monitors.append(monitor)

    universe = build_universe(item.automaton for item in compiled)
    try:
        runners = prepare_runners(compiled, universe, config.hooks)
        for runner, monitor in zip(runners, monitors):
            runner.monitor = monitor
        sources = resolve_bindings(universe, config, seed=seed)
    except (ConfigError, CapacityError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    good_word = "VIOLATION" if args.negated else None
    verbose = args.verbose

    def on_event(event) -> None:
        # one StepEvent per step; the other events are rare
        if isinstance(event, StepEvent):
            if verbose:
                states = " ".join(f"{label}:{state}" for label, state in event.states)
                print(f"STEP {event.step} {event.bits} | {states}")
        elif isinstance(event, VerdictEvent):
            if good_word and event.verdict is Verdict.GOOD:
                print(f"VIOLATION {event.runner} @{event.step}")
            else:
                print(f"VERDICT {event.runner} {event.verdict.value} @{event.step}")
        elif isinstance(event, LogEvent):
            print(f"LOG {event.message}")

    try:
        report = run_loop(runners, sources, seed=seed, max_steps=max_steps, on_event=on_event)
    except (TraceError, ConfigError, InputClosedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if report.reason == "nondeterminism":
        print(
            f"error: unhandled nondeterminism in {report.fatal_runner} "
            f"at step {report.steps}",
            file=sys.stderr,
        )
        return EXIT_NONDETERMINISM
    if report.reason == "deadlock":
        print(
            f"error: deadlock in {report.fatal_runner} at step {report.steps}",
            file=sys.stderr,
        )
        return EXIT_DEADLOCK
    if report.reason == "halt":
        return report.halt_code or 0
    if report.bad_verdicts:
        return EXIT_BAD
    if any(summary.final_verdict is Verdict.UGLY for summary in report.runners):
        return EXIT_UGLY
    if args.strict and any(
        summary.final_verdict is Verdict.UNKNOWN for summary in report.runners
    ):
        return EXIT_UNKNOWN_STRICT
    return EXIT_OK


def _yes_no(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_check(args) -> int:
    failed = False
    store = Diagrams()  # one store for every automaton of the invocation
    for path in args.hoa:
        try:
            automata = _read_documents([path], args.allow_empty_accsets)
        except (HoaParseError, OSError) as exc:
            if isinstance(exc, OSError):
                print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        for idx, automaton in enumerate(automata):
            label = f"{path}[{idx}]"
            if automaton.name:
                label += f" {automaton.name!r}"
            compiled = Compiled(automaton, store)
            try:
                deterministic = _yes_no(is_deterministic(compiled))
                complete = _yes_no(is_complete(compiled))
            except CapacityError:
                deterministic = complete = "capacity-exceeded"
            index = build_index(state_graph(automaton), automaton.initial)
            print(
                f"{label}: states={automaton.num_states} "
                f"edges={len(automaton.transitions)} "
                f"deterministic={deterministic} complete={complete} "
                f"bsccs={len(bsccs(index))} "
                f"acceptance={format_acceptance(automaton.condition)}"
            )
    return EXIT_ERROR if failed else EXIT_OK


def _cmd_gen_locks(args) -> int:
    # imported here: only this command uses the lock scenario
    from .locks import LockScenario, ScenarioError, ap_layout, emit_monitors, generate_trace

    try:
        scenario = LockScenario(
            n=args.n,
            length=args.length,
            violations=args.violations,
            fault_kind=args.fault,
            seed=args.seed,
        )
        trace = generate_trace(scenario)
        monitors = emit_monitors(args.n)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(args.out_trace, "w", encoding="utf-8") as handle:
            handle.write(trace)
        with open(args.out_monitors, "w", encoding="utf-8") as handle:
            handle.write(serialize(monitors))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("APs: " + " ".join(ap_layout(args.n)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "gen-locks":
        return _cmd_gen_locks(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
