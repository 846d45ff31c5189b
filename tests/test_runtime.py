import io

import pytest

from hoarun.automata import Automaton, Inf, Transition
from hoarun.labels import TRUE, Ap, Not, Valuation
from hoarun.monitoring import Monitor, Verdict
from hoarun.runtime import (
    Advanced,
    Config,
    ConfigError,
    CondTrigger,
    Deadlock,
    DeadlockTrigger,
    FileDriver,
    FileSpec,
    GotoAction,
    HaltAction,
    HookSpec,
    InteractiveDriver,
    InteractiveSpec,
    LogAction,
    LogEvent,
    NondetTrigger,
    Nondeterministic,
    PromptAction,
    RandomChoiceAction,
    RandomDriver,
    RandomSpec,
    ResetAction,
    StateTrigger,
    StepEvent,
    TraceError,
    TraceReader,
    VerdictEvent,
    VerdictTrigger,
    build_universe,
    collect_valuation,
    parse_condition,
    parse_config,
    parse_driver_spec,
    prepare_runners,
    resolve_bindings,
    run_loop,
    step,
)

TRACE = """\
# a small trace
a b
1 0
0 1
1 1
"""


def pq_automaton(name=None):
    # state 0 loops until p, then moves to sink 1
    return Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Not(Ap(0)), 0),
            Transition(0, Ap(0), 1),
            Transition(1, TRUE, 1),
        ),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
        name=name,
    )


def bad_monitor_automaton(name=None):
    # state 0 accepts while p holds; !p drops into a rejecting sink
    return Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Ap(0), 0),
            Transition(0, Not(Ap(0)), 1),
            Transition(1, TRUE, 1),
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
        name=name,
    )


# ---------------------------------------------------------------------------
# Trace reading and drivers


def test_trace_reader_rows(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(TRACE)
    reader = TraceReader(str(path))
    assert reader.header == ("a", "b")
    assert reader.row_for_step(0) == (True, False)
    assert reader.row_for_step(0) == (True, False)  # idempotent per step
    assert reader.row_for_step(1) == (False, True)
    assert reader.row_for_step(2) == (True, True)
    assert reader.row_for_step(3) is None


def test_trace_reader_crlf_and_comments():
    reader = TraceReader("inline", text="# c\r\na b\r\n0 1\r\n")
    assert reader.header == ("a", "b")
    assert reader.row_for_step(0) == (False, True)


def test_trace_reader_bad_rows():
    reader = TraceReader("inline", text="a b\n1\n")
    with pytest.raises(TraceError) as err:
        reader.row_for_step(0)
    assert err.value.line == 2
    reader = TraceReader("inline", text="a b\n1 x\n")
    with pytest.raises(TraceError):
        reader.row_for_step(0)
    with pytest.raises(TraceError):
        TraceReader("inline", text="")


def test_collect_valuation_from_shared_file():
    reader = TraceReader("inline", text=TRACE)
    bindings = [("a", FileDriver(reader)), ("b", FileDriver(reader))]
    valuation = collect_valuation(bindings, 0)
    assert valuation == Valuation(0b01, 2)
    assert collect_valuation(bindings, 1) == Valuation(0b10, 2)
    assert collect_valuation(bindings, 2) == Valuation(0b11, 2)
    assert collect_valuation(bindings, 3) is None


def test_random_driver_biases():
    from random import Random

    always = RandomDriver(RandomSpec(bias=1.0), Random(0))
    never = RandomDriver(RandomSpec(bias=0.0), Random(0))
    assert all(always.value("x", i) for i in range(50))
    assert not any(never.value("x", i) for i in range(50))


def test_interactive_driver_parses_tokens():
    fake_in = io.StringIO("1\nmaybe\nfalse\nt\n")
    fake_err = io.StringIO()
    driver = InteractiveDriver(fake_in, fake_err)
    assert driver.value("p", 0) is True
    assert driver.value("p", 1) is False  # skips the invalid answer
    assert driver.value("p", 2) is True
    assert "p (0/1/t/f/true/false)?" in fake_err.getvalue()


def test_interactive_driver_eof():
    from hoarun.runtime import InputClosedError

    driver = InteractiveDriver(io.StringIO(""), io.StringIO())
    with pytest.raises(InputClosedError):
        driver.value("p", 0)


def test_random_streams_differ_per_binding_position():
    config = Config(default_driver=RandomSpec(bias=0.5))
    bindings = resolve_bindings(("x", "y"), config, seed=3)
    xs = [bindings[0][1].value("x", i) for i in range(64)]
    ys = [bindings[1][1].value("y", i) for i in range(64)]
    assert xs != ys
    again = resolve_bindings(("x", "y"), config, seed=3)
    assert [again[0][1].value("x", i) for i in range(64)] == xs


def test_random_stream_explicit_seed_wins():
    config = Config(default_driver=RandomSpec(bias=0.5, seed=99))
    first = resolve_bindings(("x",), config, seed=1)
    second = resolve_bindings(("x",), config, seed=2)
    assert [first[0][1].value("x", i) for i in range(64)] == [
        second[0][1].value("x", i) for i in range(64)
    ]


def test_driver_spec_parsing():
    assert parse_driver_spec("interactive") == InteractiveSpec()
    assert parse_driver_spec("file:trace.txt") == FileSpec("trace.txt")
    assert parse_driver_spec("random(bias=0.25,seed=9)") == RandomSpec(0.25, 9)
    assert parse_driver_spec("random(bias=1.0)") == RandomSpec(1.0, None)
    assert parse_driver_spec("random") == RandomSpec()
    with pytest.raises(ConfigError):
        parse_driver_spec("telepathy")
    with pytest.raises(ConfigError):
        parse_driver_spec("random(bias=2.0)")


# ---------------------------------------------------------------------------
# Config parsing


CONFIG = """\
# sample configuration
[drivers]
p = random(bias=0.75)
default = file:trace.txt

[hooks.on-nondet]
trigger = nondeterminism
action = random-choice

[hooks.on-bad]
trigger = verdict:bad
action = reset
scope = watchdog

[run]
seed = 42
max_steps = 100
"""


def test_parse_config():
    config = parse_config(CONFIG)
    assert config.drivers == (("p", RandomSpec(0.75, None)),)
    assert config.default_driver == FileSpec("trace.txt")
    assert config.seed == 42 and config.max_steps == 100
    assert config.hooks[0] == HookSpec("on-nondet", NondetTrigger(), RandomChoiceAction())
    assert config.hooks[1] == HookSpec(
        "on-bad", VerdictTrigger("bad"), ResetAction(), "watchdog"
    )


def test_config_rejects_unknown_bits():
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nspeed = 9\n")
    with pytest.raises(ConfigError):
        parse_config("[hooks.h]\ntrigger = nondeterminism\n")
    with pytest.raises(ConfigError):
        parse_config("[hooks.h]\ntrigger = verdict:odd\naction = reset\n")


def test_random_choice_only_for_nondeterminism():
    with pytest.raises(ConfigError):
        HookSpec("h", DeadlockTrigger(), RandomChoiceAction())
    with pytest.raises(ConfigError):
        HookSpec("h", VerdictTrigger("bad"), PromptAction())


def test_parse_condition_names():
    expr, names = parse_condition('p & !"odd name" | t')
    assert names == ("p", "odd name")
    from hoarun.labels import land, lor

    assert expr == lor(land(Ap(0), Not(Ap(1))), TRUE)
    with pytest.raises(ConfigError):
        parse_condition("p &")
    with pytest.raises(ConfigError):
        parse_condition("(p")


# ---------------------------------------------------------------------------
# Stepping and hooks


def test_step_outcomes():
    aut = pq_automaton()
    universe = build_universe([aut])
    (runner,) = prepare_runners([aut], universe)
    assert step(runner, Valuation(0, 1)) == Advanced(0)
    assert runner.step_count == 1
    assert step(runner, Valuation(1, 1)) == Advanced(1)
    assert runner.current_state == 1

    nd = Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, TRUE, 0), Transition(0, TRUE, 1), Transition(1, TRUE, 1)),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
    )
    (runner,) = prepare_runners([nd], build_universe([nd]))
    outcome = step(runner, Valuation(0, 1))
    assert outcome == Nondeterministic((0, 1))
    assert runner.current_state == 0 and runner.step_count == 0

    dead = Automaton(
        aps=("p",),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, Ap(0), 0),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    (runner,) = prepare_runners([dead], build_universe([dead]))
    assert step(runner, Valuation(0, 1)) == Deadlock()
    assert runner.current_state == 0


def _run_with_trace(automata, trace_text, hooks=(), seed=0, max_steps=None, monitors=None):
    universe = build_universe(automata)
    runners = prepare_runners(automata, universe, hooks)
    if monitors:
        for runner, monitor in zip(runners, monitors):
            runner.monitor = monitor
    reader = TraceReader("inline", text=trace_text)
    bindings = [(name, FileDriver(reader)) for name in universe]
    events = []
    report = run_loop(
        runners, bindings, seed=seed, max_steps=max_steps, on_event=events.append
    )
    return report, events, runners


def test_run_loop_zero_steps():
    report, events, _ = _run_with_trace([pq_automaton()], "p\n1\n", max_steps=0)
    assert report.steps == 0
    assert report.reason == "steps-exhausted"
    assert not events


def test_run_loop_lockstep_shared_ap():
    first, second = pq_automaton("first"), pq_automaton("second")
    trace = "p\n0\n0\n1\n"
    report, events, runners = _run_with_trace([first, second], trace)
    assert report.reason == "end-of-input"
    assert [r.step_count for r in runners] == [3, 3]
    assert [r.current_state for r in runners] == [1, 1]
    step_events = [e for e in events if isinstance(e, StepEvent)]
    assert [e.states for e in step_events] == [
        (("first", 0), ("second", 0)),
        (("first", 0), ("second", 0)),
        (("first", 1), ("second", 1)),
    ]


def test_run_loop_bad_verdict_at_engineered_step():
    aut = bad_monitor_automaton("watch")
    trace = "p\n1\n1\n0\n1\n"
    report, _, _ = _run_with_trace([aut], trace, monitors=[Monitor(aut)])
    assert report.verdict_events == (VerdictEvent(2, "watch", Verdict.BAD),)
    assert report.runners[0].final_verdict is Verdict.BAD


def test_reset_hook_clears_latch_and_keeps_counting():
    aut = bad_monitor_automaton("watch")
    hooks = (HookSpec("r", VerdictTrigger("bad"), ResetAction()),)
    trace = "p\n0\n1\n0\n1\n"
    report, _, runners = _run_with_trace([aut], trace, hooks=hooks, monitors=[Monitor(aut)])
    assert [(e.step, e.verdict) for e in report.verdict_events] == [
        (0, Verdict.BAD),
        (2, Verdict.BAD),
    ]
    # reset leaves the runner back at its start state afterwards
    assert runners[0].current_state in (0, 1)
    assert report.runners[0].final_verdict is Verdict.UNKNOWN


def test_unhandled_nondeterminism_and_deadlock_are_fatal():
    nd = Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, TRUE, 0), Transition(0, Ap(0), 1), Transition(1, TRUE, 1)),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    report, _, _ = _run_with_trace([nd], "p\n1\n")
    assert report.reason == "nondeterminism"

    dead = Automaton(
        aps=("p",),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, Ap(0), 0),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    report, _, _ = _run_with_trace([dead], "p\n0\n")
    assert report.reason == "deadlock"
    assert report.fatal_runner == "0"


def test_random_choice_hook_is_reproducible():
    nd = Automaton(
        aps=("p",),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, TRUE, 1),
            Transition(0, TRUE, 2),
            Transition(1, TRUE, 0),
            Transition(2, TRUE, 0),
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    hooks = (HookSpec("pick", NondetTrigger(), RandomChoiceAction()),)
    trace = "p\n" + "1\n" * 12
    first, _, _ = _run_with_trace([nd], trace, hooks=hooks, seed=5)
    second, _, _ = _run_with_trace([nd], trace, hooks=hooks, seed=5)
    assert first == second
    other, _, _ = _run_with_trace([nd], trace, hooks=hooks, seed=6)
    assert other.steps == first.steps


def test_deadlock_reset_hook():
    dead = Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, Ap(0), 1),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    hooks = (HookSpec("r", DeadlockTrigger(), ResetAction()),)
    report, _, runners = _run_with_trace([dead], "p\n1\n0\n1\n", hooks=hooks)
    assert report.reason == "end-of-input"
    assert runners[0].current_state == 1  # 1 -> deadlock reset to 0 -> 1


def test_goto_and_halt_and_log_hooks():
    aut = pq_automaton("m")
    hooks = (
        HookSpec("note", StateTrigger(1), LogAction("entered sink at {step}")),
        HookSpec("stop", CondTrigger(*parse_condition("p")), HaltAction(7)),
    )
    trace = "p\n0\n1\n1\n"
    report, events, _ = _run_with_trace([aut], trace, hooks=hooks)
    assert report.reason == "halt" and report.halt_code == 7
    logs = [e for e in events if isinstance(e, LogEvent)]
    assert logs and logs[0].message == "entered sink at 1"


def test_goto_hook_forces_state():
    aut = pq_automaton("m")
    hooks = (HookSpec("jump", StateTrigger(1), GotoAction(0)),)
    trace = "p\n1\n0\n0\n"
    report, _, runners = _run_with_trace([aut], trace, hooks=hooks)
    assert report.reason == "end-of-input"
    assert runners[0].current_state == 0


def test_hook_scope_filtering():
    first, second = pq_automaton("first"), pq_automaton("second")
    hooks = (HookSpec("only-first", StateTrigger(1), GotoAction(0), "first"),)
    trace = "p\n1\n"
    _, _, runners = _run_with_trace([first, second], trace, hooks=hooks)
    assert runners[0].current_state == 0
    assert runners[1].current_state == 1


def test_goto_validation_against_scope():
    aut = pq_automaton("m")
    hooks = (HookSpec("jump", StateTrigger(1), GotoAction(9)),)
    with pytest.raises(ConfigError):
        prepare_runners([aut], build_universe([aut]), hooks)


def test_cond_trigger_validation_against_universe():
    aut = pq_automaton("m")
    unbound = (HookSpec("watch", CondTrigger(Ap(0), ("q",)), LogAction("q seen")),)
    with pytest.raises(ConfigError, match="'q'"):
        prepare_runners([aut], build_universe([aut]), unbound)
    bound = (HookSpec("watch", CondTrigger(Ap(0), ("p",)), LogAction("p seen")),)
    (runner,) = prepare_runners([aut], build_universe([aut]), bound)
    assert runner.hooks == bound


def test_resolve_bindings_requires_default():
    aut = pq_automaton()
    with pytest.raises(ConfigError):
        resolve_bindings(build_universe([aut]), Config(), seed=0)


def test_resolve_bindings_checks_trace_columns(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("x\n1\n")
    aut = pq_automaton()
    with pytest.raises(ConfigError):
        resolve_bindings(
            build_universe([aut]), Config(), seed=0, trace_path=str(path)
        )


def test_resolve_bindings_rejects_unknown_ap():
    config = Config(drivers=(("zz", RandomSpec()),), default_driver=RandomSpec())
    with pytest.raises(ConfigError):
        resolve_bindings(("p",), config, seed=0)


def test_prompt_action_reads_choice():
    nd = Automaton(
        aps=("p",),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, TRUE, 1),
            Transition(0, TRUE, 2),
            Transition(1, TRUE, 1),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    universe = build_universe([nd])
    hooks = (HookSpec("ask", NondetTrigger(), PromptAction()),)
    runners = prepare_runners([nd], universe, hooks)
    reader = TraceReader("inline", text="p\n1\n")
    bindings = [("p", FileDriver(reader))]
    fake_in = io.StringIO("2\n")
    report = run_loop(
        runners,
        bindings,
        seed=0,
        interactive_in=fake_in,
        interactive_out=io.StringIO(),
    )
    assert report.runners[0].final_state == 2


def test_projection_matches_propositions_by_name():
    # same propositions, opposite declaration order: each automaton must
    # read its own view of the shared valuation
    takes_q = Automaton(
        aps=("p", "q"),
        num_states=2,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Ap(1), 1),
            Transition(0, Not(Ap(1)), 0),
            Transition(1, TRUE, 1),
        ),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
        name="watch-q",
    )
    takes_q_flipped = Automaton(
        aps=("q", "p"),
        num_states=2,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Ap(0), 1),
            Transition(0, Not(Ap(0)), 0),
            Transition(1, TRUE, 1),
        ),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
        name="watch-q-flipped",
    )
    trace = "p q\n1 0\n0 1\n"
    report, _, runners = _run_with_trace([takes_q, takes_q_flipped], trace)
    assert report.reason == "end-of-input"
    # both react to q only: still at 0 after (p=1,q=0), at 1 after (q=1)
    assert [r.current_state for r in runners] == [1, 1]
    report2, _, runners2 = _run_with_trace([takes_q, takes_q_flipped], "p q\n1 0\n")
    assert [r.current_state for r in runners2] == [0, 0]


def test_reports_are_reproducible_and_comparable():
    aut = bad_monitor_automaton("watch")
    trace = "p\n1\n0\n"
    first = _run_with_trace([aut], trace, monitors=[Monitor(aut)])[0]
    second = _run_with_trace([aut], trace, monitors=[Monitor(aut)])[0]
    assert first == second


def test_monitor_sees_exact_state_sequence():
    seen = []

    class Probe(Monitor):
        def observe(self, state):
            seen.append(state)
            return super().observe(state)

    aut = pq_automaton("m")
    report, _, _ = _run_with_trace([aut], "p\n0\n1\n0\n", monitors=[Probe(aut)])
    assert seen == [0, 1, 1]
    assert report.steps == 3
