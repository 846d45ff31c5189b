"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The lock-scenario and fuzzing criteria dominate
the runtime (the fuzz runs for a pinned 60 seconds).
"""

import subprocess
import sys
import time
from itertools import product
from random import Random

from conftest import FIXTURES, load_fixture
from helpers import (
    atom_verdict,
    brute_least_trap_containing,
    brute_minimal_traps,
    compiled_in_one_store,
    random_det_complete_automaton,
    random_graph,
    reachable_from,
)
from hoarun.automata import Fin, Inf, state_graph
from hoarun.hoa import HoaParseError, parse, serialize
from hoarun.locks import (
    FAULT_DOUBLE_ACQUIRE,
    FAULT_UNRELEASED,
    LockScenario,
    ScenarioError,
    emit_monitors,
    generate_trace,
    replay_check,
)
from hoarun.monitoring import (
    Monitor,
    Verdict,
    VerdictOracle,
    combine_and,
    combine_or,
    condition_verdict,
    swap_good_bad,
)
from hoarun.runtime import (
    Config,
    FileSpec,
    HookSpec,
    ResetAction,
    VerdictEvent,
    VerdictTrigger,
    build_universe,
    prepare_runners,
    resolve_bindings,
    run_loop,
)
from hoarun.traps import bsccs, min_trap_set_of


def report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:10]


def test_criterion_1_bsccs_are_minimal_trap_sets():
    failures = []
    started = time.perf_counter()
    for seed in range(500):
        graph = random_graph(Random(seed), max_states=10)
        got = set(bsccs(graph))
        expected = brute_minimal_traps(graph)
        if got != expected:
            failures.append((seed, got, expected))
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report(1, "minimal trap sets are the bottom SCCs", failures)


def test_criterion_2_min_trap_set_exactness():
    failures = []
    for seed in range(500):
        graph = random_graph(Random(seed), max_states=8)
        for q in range(graph.num_states):
            got = min_trap_set_of(graph, q)
            expected = brute_least_trap_containing(graph, q)
            if got != expected:
                failures.append((seed, q, got, expected))
    report(2, "smallest trap set matches brute force", failures)


def _soundness_corpus(count: int = 1000):
    for seed in range(count):
        rng = Random(seed)
        automaton = random_det_complete_automaton(
            rng, max_states=8, max_aps=3, cond_depth=3
        )
        graph = state_graph(automaton)
        reachable = reachable_from(graph, next(iter(automaton.initial)))
        yield seed, automaton, graph, reachable


def test_criterion_3_one_step_monitor_sound_vs_oracle():
    failures = []
    for seed, automaton, graph, reachable in _soundness_corpus():
        oracle = VerdictOracle(automaton)
        for q in reachable:
            mine = condition_verdict(graph, automaton.condition, automaton.acc_sets, q)
            if mine.conclusive and oracle.verdict(q) is not mine:
                failures.append((seed, q, mine, oracle.verdict(q)))
    report(3, "conclusive verdicts agree with the oracle", failures)


def test_criterion_4_bscc_states_are_conclusive_for_elementary_conditions():
    failures = []
    for seed, automaton, graph, _ in _soundness_corpus():
        for comp in bsccs(graph):
            for q in comp:
                for members in automaton.acc_sets:
                    if not atom_verdict(Inf, graph, q, members).conclusive:
                        failures.append((seed, q, "inf", members))
                    if not atom_verdict(Fin, graph, q, members).conclusive:
                        failures.append((seed, q, "fin", members))
    report(4, "bottom-SCC states always get a verdict", failures)


def test_criterion_5_verdict_algebra():
    G, B, Y, K = Verdict.GOOD, Verdict.BAD, Verdict.UGLY, Verdict.UNKNOWN
    # the (ugly, ugly) cells deviate from ugly to unknown: two individually
    # undecidable operands can interact (one set visited both finitely and
    # infinitely often), making the compound conclusively bad/good, so an
    # ugly output would be unsound; see test_two_uglies_may_hide_a_contradiction
    and_table = {
        (G, G): G, (G, B): B, (G, Y): Y, (G, K): K,
        (B, G): B, (B, B): B, (B, Y): B, (B, K): B,
        (Y, G): Y, (Y, B): B, (Y, Y): K, (Y, K): K,
        (K, G): K, (K, B): B, (K, Y): K, (K, K): K,
    }
    or_table = {
        (G, G): G, (G, B): G, (G, Y): G, (G, K): G,
        (B, G): G, (B, B): B, (B, Y): Y, (B, K): K,
        (Y, G): G, (Y, B): Y, (Y, Y): K, (Y, K): K,
        (K, G): G, (K, B): K, (K, Y): K, (K, K): K,
    }
    failures = []
    for pair, expected in and_table.items():
        if combine_and(*pair) is not expected:
            failures.append(("and", pair, combine_and(*pair), expected))
    for pair, expected in or_table.items():
        if combine_or(*pair) is not expected:
            failures.append(("or", pair, combine_or(*pair), expected))
    for a, b in product((G, B, Y, K), repeat=2):
        if combine_or(a, b) is not swap_good_bad(
            combine_and(swap_good_bad(a), swap_good_bad(b))
        ):
            failures.append(("duality", (a, b)))
    # cells quoted from the compound-condition theorems
    if combine_and(B, Y) is not B or combine_and(Y, B) is not B:
        failures.append("a bad conjunct decides the conjunction")
    if combine_and(G, G) is not G:
        failures.append("two good conjuncts make a good conjunction")
    if combine_or(G, Y) is not G or combine_or(Y, G) is not G:
        failures.append("a good disjunct decides the disjunction")
    if combine_or(B, B) is not B:
        failures.append("two bad disjuncts make a bad disjunction")
    if combine_or(Y, B) is not Y or combine_or(B, Y) is not Y:
        failures.append("ugly with bad stays ugly for the disjunction")
    report(5, "verdict algebra tables and duality", failures)


ROUND_TRIP_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.hoa"))


def test_criterion_6_parser_round_trip_and_fuzz():
    failures = []
    corpus = [load_fixture(name) for name in ROUND_TRIP_FIXTURES]
    corpus.append(serialize(emit_monitors(2)))
    corpus.append(serialize(emit_monitors(4)))
    documents = 0
    for text in corpus:
        first = parse(text)
        documents += len(first.automata)
        again = parse(serialize(first))
        if again.automata != first.automata:
            failures.append(("round-trip", text[:60]))
    if documents < 20:
        failures.append(("corpus too small", documents))
    if not any("fig1a" in name for name in ROUND_TRIP_FIXTURES):
        failures.append("missing fig1a-shaped fixture")
    if not any("fig1b" in name for name in ROUND_TRIP_FIXTURES):
        failures.append("missing fig1b-shaped fixture")

    # fuzz for a pinned 60 seconds: mutated fixtures and raw byte soup must
    # produce either a document or diagnostics, never another exception
    rng = Random(20240809)
    deadline = time.monotonic() + 60.0
    iterations = 0
    while time.monotonic() < deadline:
        iterations += 1
        roll = rng.random()
        if roll < 0.5:
            text = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 8)):
                pos = rng.randrange(len(text))
                text[pos] = chr(rng.randrange(1, 0x250))
            sample = "".join(text)
        elif roll < 0.8:
            base = rng.choice(corpus)
            cut = rng.randrange(len(base))
            sample = base[:cut] + rng.choice(corpus)[cut:]
        else:
            sample = "".join(
                chr(rng.randrange(1, 0x110000 if rng.random() < 0.05 else 128))
                for _ in range(rng.randrange(400))
            )
        try:
            parse(sample)
        except HoaParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - the fuzz target
            failures.append((repr(sample[:80]), repr(exc)))
            break
    if iterations < 100:
        failures.append(("fuzz iterations suspiciously low", iterations))
    report(6, "round-trip corpus and 60s fuzz", failures)


def _count_monitor_violations(trace_text: str, n: int) -> int:
    automata = list(emit_monitors(n).automata)
    universe = build_universe(automata)
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)
    runners = prepare_runners(compiled_in_one_store(automata), universe, hooks)
    for runner in runners:
        runner.monitor = Monitor(runner.automaton)
    sources = resolve_bindings(
        universe, Config(default_driver=FileSpec("inline")), seed=0, trace_text=trace_text
    )
    events = []
    run_loop(runners, sources, seed=0, on_event=events.append)
    verdict_events = [e for e in events if isinstance(e, VerdictEvent)]
    assert all(e.verdict is Verdict.GOOD for e in verdict_events)
    return len(verdict_events)


def test_criterion_7_lock_scenario_exact_fault_counting():
    failures = []
    length = 50_000
    # unreleased-at-end faults are capped at one per lock: a trace has one
    # end record and each lock has at most one holder there, so K=5 is
    # infeasible at N=2 (the generator refuses); the equality check runs
    # up to the boundary K=2 instead
    grids = {
        FAULT_DOUBLE_ACQUIRE: (0, 1, 5),
        FAULT_UNRELEASED: (0, 1, 2),
    }
    for kind, ks in grids.items():
        for k, seed in product(ks, range(10)):
            scenario = LockScenario(
                n=2, length=length, violations=k, fault_kind=kind, seed=seed
            )
            trace = generate_trace(scenario)
            counted = _count_monitor_violations(trace, 2)
            replay = replay_check(trace, 2)
            if counted != replay.total:
                failures.append((kind, k, seed, counted, replay))
            if replay.total != k:
                failures.append((kind, k, seed, "replay != injected", replay))
    for seed in range(10):
        try:
            generate_trace(
                LockScenario(
                    n=2,
                    length=length,
                    violations=5,
                    fault_kind=FAULT_UNRELEASED,
                    seed=seed,
                )
            )
            failures.append(("unreleased K=5 unexpectedly generated", seed))
        except ScenarioError:
            pass
    report(7, "monitor counts equal replay counts on lock traces", failures)


def _timed_lock_run(length: int) -> float:
    trace = generate_trace(LockScenario(n=2, length=length, violations=0, seed=1))
    automata = list(emit_monitors(2).automata)
    universe = build_universe(automata)
    runners = prepare_runners(compiled_in_one_store(automata), universe, ())
    for runner in runners:
        runner.monitor = Monitor(runner.automaton)
    sources = resolve_bindings(
        universe, Config(default_driver=FileSpec("inline")), seed=0, trace_text=trace
    )
    started = time.perf_counter()
    run_loop(runners, sources, seed=0)
    return time.perf_counter() - started


def test_criterion_8_throughput_and_linear_scaling():
    failures = []
    base = _timed_lock_run(50_000)
    if base >= 5.0:
        failures.append(("50k-step run too slow", base))
    per_event = {50_000: base / 50_000}
    for length in (100_000, 200_000):
        per_event[length] = _timed_lock_run(length) / length
    ratio = max(per_event.values()) / min(per_event.values())
    if ratio > 2.0:
        failures.append(("per-event cost not length-stable", per_event, ratio))
    report(8, "throughput bound and linear scaling", failures)


def test_criterion_9_byte_identical_output(tmp_path):
    failures = []
    trace_path = tmp_path / "locks.trace"
    monitors_path = tmp_path / "locks.hoa"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "[hooks.reset]\ntrigger = verdict:conclusive\naction = reset\n"
    )
    gen = subprocess.run(
        [
            sys.executable, "-m", "hoarun", "gen-locks",
            "--n", "2", "--len", "2000", "--violations", "3", "--seed", "17",
            "--out-trace", str(trace_path), "--out-monitors", str(monitors_path),
        ],
        capture_output=True,
    )
    if gen.returncode != 0:
        failures.append(("gen-locks failed", gen.stderr))
    args = [
        sys.executable, "-m", "hoarun", "run",
        "--trace", str(trace_path), "--config", str(config_path),
        "--monitor", "--negated", "--verbose", "--seed", "17",
        str(monitors_path),
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    if first.stdout != second.stdout or first.returncode != second.returncode:
        failures.append(("outputs differ", first.returncode, second.returncode))
    if not first.stdout:
        failures.append("no output produced")
    if first.stdout.count(b"VIOLATION") != 3:
        failures.append(("expected 3 VIOLATION lines", first.stdout[:200]))
    report(9, "seeded runs are byte-identical", failures)
