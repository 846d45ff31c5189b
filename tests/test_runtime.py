import io
import itertools
import tracemalloc
from dataclasses import replace
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_successors, random_det_complete_automaton, random_labelled_automaton
from hoarun import runtime
from hoarun.automata import Automaton, Inf, Top, Transition
from hoarun.labels import TRUE, Ap, Not, Valuation, cover, evaluate, land, lor
from hoarun.monitoring import Monitor, Verdict
from hoarun.runtime import (
    MEMO_CAP,
    Config,
    ConfigError,
    CondTrigger,
    DeadlockTrigger,
    FileSpec,
    GotoAction,
    HaltAction,
    HookSpec,
    InputClosedError,
    InteractiveDriver,
    InteractiveSpec,
    LogAction,
    LogEvent,
    NondetTrigger,
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


def trace_sources(universe, text):
    """Every proposition of ``universe`` read from one trace, as ``--trace`` binds them."""
    return resolve_bindings(
        universe, Config(default_driver=FileSpec("inline")), seed=0, trace_text=text
    )


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
    assert reader.record_for_step(0) == 0b10
    assert reader.record_for_step(0) == 0b10  # idempotent per step
    assert reader.record_for_step(1) == 0b01
    assert reader.record_for_step(2) == 0b11
    assert reader.record_for_step(3) is None


def test_trace_reader_crlf_and_comments():
    reader = TraceReader("inline", text="# c\r\na b\r\n0 1\r\n")
    assert reader.header == ("a", "b")
    assert reader.record_for_step(0) == 0b01


def test_trace_reader_bad_rows(tmp_path):
    reader = TraceReader("inline", text="a b\n1\n")
    with pytest.raises(TraceError) as err:
        reader.record_for_step(0)
    assert err.value.line == 2
    reader = TraceReader("inline", text="a b\n1 x\n")
    with pytest.raises(TraceError):
        reader.record_for_step(0)
    with pytest.raises(TraceError):
        TraceReader("inline", text="")
    # line numbers count comments and blank lines; a column that no
    # proposition reads is checked all the same
    # from a file or from text, whichever of \n, \r\n and \r ends a line
    text = "# c\nx a\n\n1 0\n# c\n1 10\n0\n2 1\n"
    for newline, source, decoded in itertools.product(
        ("\n", "\r\n", "\r"), ("file", "text"), (False, True)
    ):
        if source == "file":
            path = tmp_path / "t.trace"
            path.write_bytes(text.replace("\n", newline).encode())
            path, trace_text = str(path), None
        else:
            path, trace_text = "inline", text.replace("\n", newline)
        if decoded:
            config = Config(default_driver=FileSpec(path))
            sources = resolve_bindings(("a",), config, seed=0, trace_text=trace_text)
            read = partial(collect_valuation, sources)
        else:
            read = TraceReader(path, text=trace_text).record_for_step
        read(0)
        for step, line, message in (
            (1, 6, "expected 0 or 1, found '10'"),
            (2, 7, "expected 2 columns, found 1"),
            (3, 8, "expected 0 or 1, found '2'"),
        ):
            with pytest.raises(TraceError) as err:
                read(step)
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_trace_reader_memory_does_not_grow_with_length(tmp_path, monkeypatch):
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(runtime, "open", recording_open, raising=False)

    def peak_bytes(records):
        path = tmp_path / f"{records}.trace"
        path.write_text("a b\n" + "0 1\n1 0\n" * (records // 2))
        tracemalloc.start()
        try:
            reader = TraceReader(str(path))
            step = 0
            while reader.record_for_step(step) is not None:
                step += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step == records
        assert handles[-1].closed  # at the end of input
        return peak

    small, large = peak_bytes(30_000), peak_bytes(300_000)
    assert large < 2 * small


def test_collect_valuation_from_shared_file():
    sources = trace_sources(("a", "b"), TRACE)
    valuation = collect_valuation(sources, 0)
    assert valuation == Valuation(0b01, 2)
    assert collect_valuation(sources, 1) == Valuation(0b10, 2)
    assert collect_valuation(sources, 2) == Valuation(0b11, 2)
    assert collect_valuation(sources, 3) is None
    # a header in another order than the bindings, with a column that
    # no proposition reads; a second grouping of the same text keeps its
    # own column order
    text = "x b a\n1 1 0\n0 0 1\n"
    sources = trace_sources(("a", "b"), text)
    only_x = trace_sources(("x",), text)
    assert collect_valuation(sources, 0) == Valuation(0b10, 2)
    assert collect_valuation(only_x, 0) == Valuation(0b1, 1)
    assert collect_valuation(sources, 1) == Valuation(0b01, 2)
    assert collect_valuation(only_x, 1) == Valuation(0b0, 1)
    assert collect_valuation(sources, 2) is None
    # more than eight columns, read eight at a time
    header = [f"c{i}" for i in range(11)]
    names = ("c10", "c0", "c8", "c9")
    sources = trace_sources(names, " ".join(header) + "\n1 0 0 0 0 0 0 0 0 1 1\n")
    assert collect_valuation(sources, 0) == Valuation(0b1011, 4)
    # file and random() bindings mixed, as a configuration gives them:
    # each proposition keeps its position in the universe
    config = parse_config(
        "[drivers]\na = file:t\nr = random(bias=1)\nb = file:t\ns = random(bias=0)\n"
    )
    sources = resolve_bindings(
        ("a", "r", "b", "s"), config, seed=0, trace_text="x b a\n1 1 0\n0 0 1\n"
    )
    assert collect_valuation(sources, 0) == Valuation(0b0110, 4)
    assert collect_valuation(sources, 1) == Valuation(0b0011, 4)
    assert collect_valuation(sources, 2) is None


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
    driver = InteractiveDriver(io.StringIO(""), io.StringIO())
    with pytest.raises(InputClosedError):
        driver.value("p", 0)


def test_random_streams_differ_per_binding_position():
    config = Config(default_driver=RandomSpec(bias=0.5))
    _, _, drivers = resolve_bindings(("x", "y"), config, seed=3)
    xs = [drivers[0][2].value("x", i) for i in range(64)]
    ys = [drivers[1][2].value("y", i) for i in range(64)]
    assert xs != ys
    _, _, again = resolve_bindings(("x", "y"), config, seed=3)
    assert [again[0][2].value("x", i) for i in range(64)] == xs


def test_random_stream_explicit_seed_wins():
    config = Config(default_driver=RandomSpec(bias=0.5, seed=99))
    _, _, first = resolve_bindings(("x",), config, seed=1)
    _, _, second = resolve_bindings(("x",), config, seed=2)
    assert [first[0][2].value("x", i) for i in range(64)] == [
        second[0][2].value("x", i) for i in range(64)
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
    # a bad cond: formula names its hook, as every other hook error does
    with pytest.raises(ConfigError, match=r"^hook watch: bad condition: 1:5: "):
        parse_config("[hooks.watch]\ntrigger = cond: p &\naction = reset\n")


def test_config_rejects_negative_step_bound():
    assert parse_config("[run]\nmax_steps = 0\n").max_steps == 0
    with pytest.raises(ConfigError, match="negative"):
        parse_config("[run]\nmax_steps = -3\n")


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


# (formula, names in first-use order, the formula over a name -> bool map)
WELL_FORMED_CONDITIONS = [
    ("a | b & c", ("a", "b", "c"), lambda v: v["a"] or (v["b"] and v["c"])),
    ("!a & b", ("a", "b"), lambda v: not v["a"] and v["b"]),
    ("a & (b | c)", ("a", "b", "c"), lambda v: v["a"] and (v["b"] or v["c"])),
    ("((!(a)) | ((b & a)))", ("a", "b"), lambda v: not v["a"] or v["b"]),
    ("a & b | !a & b | a", ("a", "b"), lambda v: v["a"] or v["b"]),
    (r'"say \"hi\"" & "back\\slash"', ('say "hi"', "back\\slash"),
     lambda v: v['say "hi"'] and v["back\\slash"]),
    ('"t" & !"odd name"', ("t", "odd name"), lambda v: v["t"] and not v["odd name"]),
    ("t", (), lambda v: True),
    ("f", (), lambda v: False),
    ("f | p & t", ("p",), lambda v: v["p"]),
    ("p_1-x\t&\n!q\r\n|  t-", ("p_1-x", "q", "t-"),
     lambda v: v["p_1-x"] and not v["q"] or v["t-"]),
]

MALFORMED_CONDITIONS = ["p &", "(p", "p)", "p q", "&p", "0", "@a", "p:", "", "  ", '"p', 'p & "q']


@pytest.mark.parametrize("text, names, holds", WELL_FORMED_CONDITIONS)
def test_parse_condition_table(text, names, holds):
    expr, got = parse_condition(text)
    assert got == names
    for bits in range(1 << len(names)):
        value = {name: bool(bits >> i & 1) for i, name in enumerate(names)}
        truth = evaluate(expr, Valuation(bits, len(names)))
        assert truth == bool(holds(value)), (text, value)


@pytest.mark.parametrize("text", MALFORMED_CONDITIONS)
def test_parse_condition_rejects(text):
    with pytest.raises(ConfigError):
        parse_condition(text)


def test_parse_condition_nesting_limit():
    # the HOA label limit of 200 levels; deeper is a ConfigError, not a
    # RecursionError
    for depth in (150, 200):
        for text in ("(" * depth + "p" + ")" * depth, "!" * depth + "p"):
            assert parse_condition(text)[1] == ("p",)
    for text in ("(" * 250 + "p" + ")" * 250, "!" * 250 + "p"):
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_condition(text)


# ---------------------------------------------------------------------------
# Stepping and hooks


def test_step_outcomes():
    aut = pq_automaton()
    universe = build_universe([aut])
    (runner,) = prepare_runners([aut], universe)
    assert step(runner, Valuation(0, 1)) == (0,)
    assert runner.step_count == 1
    assert step(runner, Valuation(1, 1)) == (1,)
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
    assert step(runner, Valuation(0, 1)) == (0, 1)
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
    assert step(runner, Valuation(0, 1)) == ()
    assert runner.current_state == 0


def _local_valuation(aut, universe, bits):
    """The automaton's own view of global valuation bits over ``universe``."""
    local = sum(1 << i for i, name in enumerate(aut.aps) if bits >> universe.index(name) & 1)
    return Valuation(local, len(aut.aps))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_step_matches_brute_successors(seed):
    # two random automata over the same propositions, the second usually
    # in another order, so its labels read permuted global positions;
    # labels overlap, leave gaps and may be unsatisfiable
    rng = Random(seed)
    names = ["p", "q", "r"]
    first = random_labelled_automaton(rng, tuple(names))
    rng.shuffle(names)
    second = random_labelled_automaton(rng, tuple(names))
    universe = build_universe([first, second])
    runners = prepare_runners([first, second], universe)
    for _ in range(30):
        bits = rng.randrange(1 << len(universe))
        for runner in runners:
            aut = runner.automaton
            state, count = runner.current_state, runner.step_count
            expected = brute_successors(aut, state, _local_valuation(aut, universe, bits))
            found = step(runner, Valuation(bits, len(universe)))
            assert found == tuple(sorted(expected))
            if len(found) == 1:
                assert (runner.current_state, runner.step_count) == (found[0], count + 1)
            else:
                assert (runner.current_state, runner.step_count) == (state, count)
                # carry on from some state, as a goto hook would
                runner.current_state = rng.randrange(aut.num_states)
    # one runner along a longer random word: (state, input) pairs repeat,
    # so most steps are answered by the successor memo, and a unique
    # candidate comes back as the state's one shared tuple
    runner = runners[1]
    aut = runner.automaton
    for _ in range(200):
        bits = rng.randrange(1 << len(universe))
        expected = brute_successors(aut, runner.current_state, _local_valuation(aut, universe, bits))
        found = step(runner, Valuation(bits, len(universe)))
        assert found == tuple(sorted(expected))
        if len(found) == 1:
            assert found is runner.unique[found[0]]
        else:
            runner.current_state = rng.randrange(aut.num_states)
    assert len(runner.memo) <= aut.num_states << len(aut.aps)


def test_step_walks_labels_past_the_cube_cap():
    # `(0|1) & (2|3) & ... & (18|19)` has 2**10 cubes, past the cube cap,
    # so the runner walks it and its negation, reading its propositions
    # at their global positions: here those of another automaton, one
    # place further on
    names = tuple(f"p{i}" for i in range(20))
    label = land(*(lor(Ap(2 * i), Ap(2 * i + 1)) for i in range(10)))
    assert cover(label) == ((1 << 20) - 1, None)
    toggle = Automaton(
        aps=names[1:] + names[:1],
        num_states=2,
        initial=frozenset({0}),
        transitions=tuple(
            Transition(q, test, q if test is label else 1 - q)
            for q in (0, 1)
            for test in (label, Not(label))
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    first = Automaton(names, 1, frozenset({0}), (Transition(0, TRUE, 0),), (), Top())
    universe = build_universe([first, toggle])
    _, runner = prepare_runners([first, toggle], universe)
    rng = Random(3)
    moved = 0
    for _ in range(200):
        # most pairs hold a true proposition, so the label holds about as
        # often as not
        bits = sum(1 << i for i in range(20) if rng.random() < 0.75)
        state = runner.current_state
        expected = brute_successors(toggle, state, _local_valuation(toggle, universe, bits))
        assert step(runner, Valuation(bits, 20)) == tuple(expected)
        moved += runner.current_state != state
    assert 0 < moved < 200


def test_memo_stays_under_cap_on_wide_inputs():
    # 20 propositions under random drivers: nearly every step is a new
    # (state, input) pair, so the memo fills and is emptied; stepping
    # stays exact across that
    names = tuple(f"p{i}" for i in range(20))
    move = land(Ap(0), Ap(19))
    aut = Automaton(
        aps=names,
        num_states=3,
        initial=frozenset({0}),
        transitions=tuple(
            t
            for q in range(3)
            for t in (Transition(q, move, (q + 1) % 3), Transition(q, Not(move), q))
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    (runner,) = prepare_runners([aut], names)
    sources = resolve_bindings(names, parse_config("[drivers]\ndefault = random()\n"), seed=5)
    events = []
    steps = MEMO_CAP + 2_000
    report = run_loop([runner], sources, seed=5, max_steps=steps, on_event=events.append)
    assert report.steps == steps
    assert len(runner.memo) <= steps - MEMO_CAP  # emptied once, refilled since
    state = 0
    for event in events:
        (state,) = brute_successors(aut, state, event.valuation)
        assert event.states == (("0", state),)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_run_loop_matches_brute_stepping_under_hooks(seed):
    # random automata, some steps nondeterministic or deadlocked, run by
    # run_loop with random-choice, reset and goto hooks, against the
    # loop's semantics replayed with evaluate-based successors
    rng = Random(seed)
    automata = [
        random_labelled_automaton(rng, ("p", "q")),
        random_labelled_automaton(rng, ("q", "p")),
    ]
    universe = build_universe(automata)
    hooks = [
        HookSpec("pick", NondetTrigger(), RandomChoiceAction()),
        HookSpec("back", DeadlockTrigger(), ResetAction()),
    ]
    jumps = []
    for index, aut in enumerate(automata):
        jump = (rng.randrange(aut.num_states), rng.randrange(aut.num_states))
        jumps.append(jump)
        hooks.append(
            HookSpec(f"jump{index}", StateTrigger(jump[0]), GotoAction(jump[1]), str(index))
        )
    word = [rng.randrange(4) for _ in range(60)]
    trace = "p q\n" + "".join(f"{bits & 1} {bits >> 1}\n" for bits in word)
    report, events, runners = _run_with_trace(automata, trace, hooks=tuple(hooks), seed=seed)

    hook_rng = Random(f"{seed}:hooks")
    states = [min(aut.initial) for aut in automata]
    counts = [0] * len(automata)
    expected = []
    for bits in word:
        for i, aut in enumerate(automata):
            found = sorted(
                brute_successors(aut, states[i], _local_valuation(aut, universe, bits))
            )
            if not found:
                states[i] = min(aut.initial)
                continue
            states[i] = found[hook_rng.randrange(len(found))] if len(found) > 1 else found[0]
            counts[i] += 1
            if states[i] == jumps[i][0]:
                states[i] = jumps[i][1]
        expected.append(tuple(states))
    assert report.reason == "end-of-input"
    steps = [e for e in events if isinstance(e, StepEvent)]
    assert [tuple(state for _, state in e.states) for e in steps] == expected
    assert [e.bits for e in steps] == [f"{bits & 1}{bits >> 1}" for bits in word]
    assert [r.step_count for r in runners] == counts


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_run_loop_verdicts_match_replayed_monitors(seed):
    # deterministic complete automata, some with a sink and some whose
    # every state is good (start included), monitored with a reset on
    # each conclusive verdict; the loop skips the steps that leave a
    # runner in place, the replay observes every state it reaches
    rng = Random(seed)
    automata = []
    for _ in range(3):
        aut = random_det_complete_automaton(rng, max_states=5, max_aps=2)
        if rng.random() < 0.5:
            sink = rng.randrange(aut.num_states)
            kept = tuple(t for t in aut.transitions if t.src != sink)
            aut = replace(aut, transitions=kept + (Transition(sink, TRUE, sink),))
        if rng.random() < 0.3:
            aut = replace(aut, condition=Top())
        automata.append(aut)
    monitored = [rng.random() < 0.8 for _ in automata]
    universe = build_universe(automata)
    word = [rng.randrange(1 << len(universe)) for _ in range(80)]
    # column x is read by no automaton: it keeps the header non-empty
    header = " ".join(("x",) + universe)
    rows = "".join(
        " ".join(["0"] + [str(bits >> i & 1) for i in range(len(universe))]) + "\n"
        for bits in word
    )
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)
    monitors = [Monitor(aut) if on else None for aut, on in zip(automata, monitored)]
    report, events, _ = _run_with_trace(
        automata, f"{header}\n{rows}", hooks=hooks, monitors=monitors
    )

    replayed = [Monitor(aut) if on else None for aut, on in zip(automata, monitored)]
    states = [min(aut.initial) for aut in automata]
    counts = [0] * len(automata)
    expected = []
    expected_states = []
    for step_index, bits in enumerate(word):
        for i, aut in enumerate(automata):
            (states[i],) = brute_successors(aut, states[i], _local_valuation(aut, universe, bits))
            counts[i] += 1
            monitor = replayed[i]
            if monitor is None:
                continue
            before = monitor.current_verdict
            monitor.observe(states[i])
            if monitor.current_verdict is not before:
                expected.append(VerdictEvent(step_index, str(i), monitor.current_verdict))
                states[i] = min(aut.initial)
                monitor.reset()
        expected_states.append(tuple(states))
    assert report.reason == "end-of-input"
    assert [e for e in events if isinstance(e, VerdictEvent)] == expected
    assert [r.step_count for r in report.runners] == counts
    assert [r.final_verdict for r in report.runners] == [
        m.current_verdict if m else None for m in replayed
    ]
    steps = [e for e in events if isinstance(e, StepEvent)]
    assert [tuple(state for _, state in e.states) for e in steps] == expected_states


def test_halt_part_way_through_a_step_counts_the_runners_before_it():
    # a state: hook of the middle runner halts at step 2: the runners up
    # to it count that step, the one after it does not
    automata = [pq_automaton(name) for name in ("first", "middle", "last")]
    hooks = (HookSpec("stop", StateTrigger(1), HaltAction(4), "middle"),)
    report, _, _ = _run_with_trace(automata, "p\n0\n0\n1\n1\n", hooks=hooks)
    assert (report.reason, report.halt_code, report.steps) == ("halt", 4, 2)
    assert [r.step_count for r in report.runners] == [3, 3, 2]
    assert [r.final_state for r in report.runners] == [1, 1, 0]


def _run_with_trace(automata, trace_text, hooks=(), seed=0, max_steps=None, monitors=None):
    universe = build_universe(automata)
    runners = prepare_runners(automata, universe, hooks)
    if monitors:
        for runner, monitor in zip(runners, monitors):
            runner.monitor = monitor
    events = []
    report = run_loop(
        runners,
        trace_sources(universe, trace_text),
        seed=seed,
        max_steps=max_steps,
        on_event=events.append,
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
    report, events, _ = _run_with_trace([aut], trace, monitors=[Monitor(aut)])
    verdict_events = tuple(e for e in events if isinstance(e, VerdictEvent))
    assert verdict_events == (VerdictEvent(2, "watch", Verdict.BAD),)
    assert report.runners[0].final_verdict is Verdict.BAD


def test_reset_hook_clears_latch_and_keeps_counting():
    aut = bad_monitor_automaton("watch")
    hooks = (HookSpec("r", VerdictTrigger("bad"), ResetAction()),)
    trace = "p\n0\n1\n0\n1\n"
    report, events, runners = _run_with_trace([aut], trace, hooks=hooks, monitors=[Monitor(aut)])
    verdict_events = [e for e in events if isinstance(e, VerdictEvent)]
    assert [(e.step, e.verdict) for e in verdict_events] == [
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
    assert runner.triggered == {CondTrigger: list(bound)}
    assert [hook for _, hook in runner.conditions] == list(bound)


def test_resolve_bindings_requires_default():
    aut = pq_automaton()
    with pytest.raises(ConfigError):
        resolve_bindings(build_universe([aut]), Config(), seed=0)


def test_resolve_bindings_checks_trace_columns(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("x\n1\n")
    aut = pq_automaton()
    config = Config(default_driver=FileSpec(str(path)))
    with pytest.raises(ConfigError):
        resolve_bindings(build_universe([aut]), config, seed=0)


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

    def run(answers):
        runners = prepare_runners([nd], universe, hooks)
        shown = io.StringIO()
        report = run_loop(
            runners,
            trace_sources(universe, "p\n1\n"),
            seed=0,
            interactive_in=io.StringIO(answers),
            interactive_out=shown,
        )
        return report, shown.getvalue()

    report, _ = run("2\n")
    assert report.runners[0].final_state == 2
    # a non-number and a state that is not a candidate are asked again
    report, shown = run("x\n7\n2\n")
    assert report.runners[0].final_state == 2
    assert shown == "[step 0] 0: choose next state (1, 2)? " * 3
    with pytest.raises(InputClosedError):
        run("")


def _choice_automaton():
    # state 0 waits for p, then moves nondeterministically to a rejecting
    # sink (1, verdict bad) or an accepting one (2, verdict good)
    return Automaton(
        aps=("p",),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Not(Ap(0)), 0),
            Transition(0, Ap(0), 1),
            Transition(0, Ap(0), 2),
            Transition(1, TRUE, 1),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(frozenset({2}),),
        condition=Inf(0),
        name="m",
    )


# seed 0 picks the rejecting sink, seed 2 the accepting one
@pytest.mark.parametrize("seed", (0, 2))
def test_random_choice_into_a_conclusive_state_reports_and_counts_it(seed):
    aut = _choice_automaton()
    monitor = Monitor(aut)
    assert monitor.verdicts == (Verdict.UNKNOWN, Verdict.BAD, Verdict.GOOD)
    hooks = (HookSpec("pick", NondetTrigger(), RandomChoiceAction()),)
    report, events, runners = _run_with_trace(
        [aut], "p\n0\n1\n0\n1\n0\n", hooks=hooks, seed=seed, monitors=[monitor]
    )
    chosen = runners[0].current_state
    assert chosen in (1, 2)
    verdict_events = [e for e in events if isinstance(e, VerdictEvent)]
    assert verdict_events == [VerdictEvent(1, "m", monitor.verdicts[chosen])]
    # the chosen step and the stay-put steps after it are each counted once
    assert (report.reason, report.steps) == ("end-of-input", 5)
    assert runners[0].step_count == 5
    assert report.bad_verdicts == (chosen == 1)


def test_goto_from_a_state_hook_into_a_conclusive_state_reports_it_once():
    # 0 and 1 form a component whose verdict is unknown, as p at 1 leads to
    # the rejecting sink 2; the state: hook at 1 jumps to 2 at once
    aut = Automaton(
        aps=("p",),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, Not(Ap(0)), 0),
            Transition(0, Ap(0), 1),
            Transition(1, Not(Ap(0)), 0),
            Transition(1, Ap(0), 2),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
        name="m",
    )
    monitor = Monitor(aut)
    assert monitor.verdicts == (Verdict.UNKNOWN, Verdict.UNKNOWN, Verdict.BAD)
    hooks = (HookSpec("jump", StateTrigger(1), GotoAction(2)),)
    report, events, runners = _run_with_trace(
        [aut], "p\n0\n1\n0\n0\n1\n", hooks=hooks, monitors=[monitor]
    )
    verdict_events = [e for e in events if isinstance(e, VerdictEvent)]
    assert verdict_events == [VerdictEvent(1, "m", Verdict.BAD)]
    assert runners[0].current_state == 2
    # the goto is part of step 1, so each of the five steps counts once
    assert (report.steps, runners[0].step_count, report.bad_verdicts) == (5, 5, 1)


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
    # a cond: formula naming q before p reads each name's own column:
    # false on (p=1,q=0), true on (p=0,q=1)
    hooks = (HookSpec("q-only", CondTrigger(*parse_condition("q & !p")), HaltAction(3)),)
    report3, _, _ = _run_with_trace([takes_q, takes_q_flipped], trace, hooks=hooks)
    assert (report3.reason, report3.halt_code, report3.steps) == ("halt", 3, 1)


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
