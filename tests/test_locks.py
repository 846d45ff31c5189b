import gc
import tracemalloc
from random import Random

import pytest

from conftest import load_fixture
from helpers import brute_successors
from hoarun.automata import is_complete, is_deterministic
from hoarun.hoa import parse, serialize
from hoarun.labels import Valuation
from hoarun.locks import (
    FAULT_DOUBLE_ACQUIRE,
    FAULT_UNRELEASED,
    LockScenario,
    ReplayCounts,
    ScenarioError,
    ap_layout,
    emit_monitors,
    generate_trace,
    replay_check,
)
from hoarun.monitoring import Monitor, Verdict
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


def monitored_runners(trace_text: str, n: int):
    """The emitted monitors with reset hooks, and the trace as their driver."""
    automata = list(emit_monitors(n).automata)
    universe = build_universe(automata)
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)
    runners = prepare_runners(automata, universe, hooks)
    for runner in runners:
        runner.monitor = Monitor(runner.automaton)
    sources = resolve_bindings(
        universe, Config(default_driver=FileSpec("inline")), seed=0, trace_text=trace_text
    )
    return runners, sources


def run_monitors_on_trace(trace_text: str, n: int):
    """Violation count seen by the emitted monitors with reset hooks."""
    runners, sources = monitored_runners(trace_text, n)
    events = []
    run_loop(runners, sources, seed=0, on_event=events.append)
    by_kind = {"double": 0, "unreleased": 0}
    for event in (e for e in events if isinstance(e, VerdictEvent)):
        assert event.verdict is Verdict.GOOD  # these monitors accept violations
        if event.runner.startswith("viol_double_acq"):
            by_kind["double"] += 1
        else:
            by_kind["unreleased"] += 1
    return by_kind


def test_run_loop_memory_does_not_grow_with_violations():
    # the loop reports each violation and keeps none of them: 2,000
    # violations take no more memory than 20 on a trace of the same length
    def peak_bytes(violations):
        trace = generate_trace(LockScenario(n=2, length=10_000, violations=violations, seed=1))
        runners, sources = monitored_runners(trace, 2)
        reported = 0

        def count(event):
            nonlocal reported
            reported += isinstance(event, VerdictEvent)

        gc.collect()  # empties the free lists, which tracemalloc counts as in use
        tracemalloc.start()
        try:
            run_loop(runners, sources, seed=0, on_event=count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reported == violations
        return peak

    few, many = peak_bytes(20), peak_bytes(2_000)
    assert many - few < 100_000


def test_ap_layout_matches_encoding_width():
    assert ap_layout(2) == ("end", "a", "i0", "l0")
    assert ap_layout(4) == ("end", "a", "i0", "i1", "l0", "l1")
    assert len(ap_layout(8)) == 2 + 2 * 3


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        LockScenario(n=3, length=10)
    with pytest.raises(ScenarioError):
        LockScenario(n=2, length=0)
    with pytest.raises(ScenarioError):
        LockScenario(n=2, length=8, violations=3)
    with pytest.raises(ScenarioError):
        LockScenario(n=2, length=8, fault_kind="gremlins")


def test_trace_shape_and_end_marker():
    trace = generate_trace(LockScenario(n=2, length=8, seed=1))
    lines = trace.strip().splitlines()
    assert lines[0] == "end a i0 l0"
    assert len(lines) == 9
    records = [line.split() for line in lines[1:]]
    assert all(len(r) == 4 for r in records)
    assert [r[0] for r in records] == ["0"] * 7 + ["1"]


def test_fault_free_trace_is_clean_by_replay():
    for seed in range(5):
        trace = generate_trace(LockScenario(n=2, length=400, seed=seed))
        assert replay_check(trace, 2) == ReplayCounts(0, 0)
    trace = generate_trace(LockScenario(n=4, length=400, seed=0))
    assert replay_check(trace, 4) == ReplayCounts(0, 0)


def test_double_acquire_counts_exactly():
    scenario = LockScenario(
        n=2, length=8, violations=1, fault_kind=FAULT_DOUBLE_ACQUIRE, seed=3
    )
    counts = replay_check(generate_trace(scenario), 2)
    assert counts == ReplayCounts(1, 0)
    for seed in range(5):
        scenario = LockScenario(
            n=2, length=300, violations=6, fault_kind=FAULT_DOUBLE_ACQUIRE, seed=seed
        )
        assert replay_check(generate_trace(scenario), 2) == ReplayCounts(6, 0)


def test_unreleased_counts_exactly():
    for seed in range(5):
        scenario = LockScenario(
            n=2, length=300, violations=2, fault_kind=FAULT_UNRELEASED, seed=seed
        )
        assert replay_check(generate_trace(scenario), 2) == ReplayCounts(0, 2)
    scenario = LockScenario(
        n=4, length=300, violations=4, fault_kind=FAULT_UNRELEASED, seed=9
    )
    assert replay_check(generate_trace(scenario), 4) == ReplayCounts(0, 4)


def test_unreleased_cap_is_lock_count():
    with pytest.raises(ScenarioError) as err:
        generate_trace(
            LockScenario(n=2, length=100, violations=3, fault_kind=FAULT_UNRELEASED)
        )
    assert "at most 2" in str(err.value)


def test_generation_is_deterministic():
    scenario = LockScenario(n=2, length=200, violations=4, seed=11)
    assert generate_trace(scenario) == generate_trace(scenario)
    other = LockScenario(n=2, length=200, violations=4, seed=12)
    assert generate_trace(other) != generate_trace(scenario)


def test_emit_monitor_counts_and_shape():
    doc = emit_monitors(2)
    assert len(doc.automata) == 8
    for automaton in doc.automata:
        assert automaton.num_states == 3
        assert len(automaton.transitions) == 6
        assert is_deterministic(automaton)
        assert is_complete(automaton)
    assert len(emit_monitors(4).automata) == 32


def test_emitted_document_round_trips():
    doc = emit_monitors(2)
    assert parse(serialize(doc)).automata == doc.automata


def test_monitors_match_replay_on_faulty_traces():
    for seed in range(3):
        trace = generate_trace(
            LockScenario(n=2, length=300, violations=4, fault_kind=FAULT_DOUBLE_ACQUIRE, seed=seed)
        )
        counts = run_monitors_on_trace(trace, 2)
        replay = replay_check(trace, 2)
        assert counts["double"] == replay.double_acquires == 4
        assert counts["unreleased"] == replay.unreleased == 0

        trace = generate_trace(
            LockScenario(n=2, length=300, violations=1, fault_kind=FAULT_UNRELEASED, seed=seed)
        )
        counts = run_monitors_on_trace(trace, 2)
        replay = replay_check(trace, 2)
        assert counts["unreleased"] == replay.unreleased == 1
        assert counts["double"] == replay.double_acquires == 0


def _language_equivalent(first, second) -> bool:
    """Both automata reach their accepting sink on exactly the same words.

    Holds for this monitor family because the sink is absorbing; a product
    walk over all valuations looks for a reachable disagreement.
    """
    ap_count = len(first.aps)
    sink_first = set(first.acc_sets[0])
    sink_second = set(second.acc_sets[0])
    start = (min(first.initial), min(second.initial))
    seen = {start}
    frontier = [start]
    while frontier:
        p, q = frontier.pop()
        if (p in sink_first) != (q in sink_second):
            return False
        for bits in range(1 << ap_count):
            valuation = Valuation(bits, ap_count)
            (pn,) = brute_successors(first, p, valuation)
            (qn,) = brute_successors(second, q, valuation)
            if (pn, qn) not in seen:
                seen.add((pn, qn))
                frontier.append((pn, qn))
    return True


def test_templates_agree_with_independent_references():
    references = {a.name: a for a in parse(load_fixture("locks_reference_n2.hoa")).automata}
    emitted = {a.name: a for a in emit_monitors(2).automata}
    pairs = [
        ("viol_double_acq_t0_l0", "ref_double_acq_t0_l0"),
        ("viol_unreleased_t0_l0", "ref_unreleased_t0_l0"),
    ]
    for emitted_name, ref_name in pairs:
        assert _language_equivalent(emitted[emitted_name], references[ref_name])


def test_templates_differ_when_pairs_differ():
    emitted = {a.name: a for a in emit_monitors(2).automata}
    assert not _language_equivalent(
        emitted["viol_double_acq_t0_l0"], emitted["viol_double_acq_t1_l0"]
    )


def test_replay_checker_sees_end_acquisitions_as_ignored():
    # a lock acquired on the very last record must not count as unreleased
    header = "end a i0 l0"
    rows = ["0 1 0 0", "0 0 0 0", "1 1 0 0"]
    trace = header + "\n" + "\n".join(rows) + "\n"
    assert replay_check(trace, 2) == ReplayCounts(0, 0)
    counts = run_monitors_on_trace(trace, 2)
    assert counts == {"double": 0, "unreleased": 0}


def test_release_at_end_counts_as_released():
    header = "end a i0 l0"
    rows = ["0 1 0 0", "1 0 0 0"]
    trace = header + "\n" + "\n".join(rows) + "\n"
    assert replay_check(trace, 2) == ReplayCounts(0, 0)
    assert run_monitors_on_trace(trace, 2) == {"double": 0, "unreleased": 0}


def test_adversarial_trace_monitor_replay_agreement():
    # random event soup (not lock-respecting): the two counting routes must
    # still agree with each other
    rng = Random(13)
    for n, rounds in ((2, 10), (4, 4)):
        header = ap_layout(n)
        width = len(header) - 1
        for _ in range(rounds):
            n_rows = rng.randint(1, 60)
            rows = []
            for i in range(n_rows):
                end = "1" if i == n_rows - 1 else "0"
                rows.append(
                    " ".join([end] + [str(rng.randint(0, 1)) for _ in range(width)])
                )
            trace = " ".join(header) + "\n" + "\n".join(rows) + "\n"
            counts = run_monitors_on_trace(trace, n)
            replay = replay_check(trace, n)
            assert counts["double"] == replay.double_acquires
            assert counts["unreleased"] == replay.unreleased
