import gc
import io
import itertools
import tracemalloc
import warnings
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from helpers import (
    brute_successors,
    compiled_in_one_store,
    random_det_complete_automaton,
    random_labelled_automaton,
    valuation_from_bools,
)
from hoarun import replace, runtime
from hoarun.automata import Automaton, Inf, Top, Transition
from hoarun.hoa import parse, serialize
from hoarun.labels import TRUE, Ap, Diagrams, Not, Valuation, evaluate, land, lor
from hoarun.locks import LockScenario, emit_monitors, generate_trace, replay_check
from hoarun.monitoring import Monitor, Verdict, attach_monitor
from hoarun.runtime import (
    LINE_CAP,
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
    assert reader.next_record() == 0b10
    assert reader.next_record() == 0b01
    assert reader.next_record() == 0b11
    assert reader.next_record() is None


def test_trace_reader_crlf_and_comments():
    reader = TraceReader("inline", text="# c\r\na b\r\n0 1\r\n")
    assert reader.header == ("a", "b")
    assert reader.next_record() == 0b01


def test_trace_reader_bad_rows(tmp_path):
    reader = TraceReader("inline", text="a b\n1\n")
    with pytest.raises(TraceError) as err:
        reader.next_record()
    assert err.value.line == 2
    reader = TraceReader("inline", text="a b\n1 x\n")
    with pytest.raises(TraceError):
        reader.next_record()
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
            reader = TraceReader(path, text=trace_text)
            read = lambda step: reader.next_record()  # noqa: E731
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
            while reader.next_record() is not None:
                step += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step == records
        assert handles[-1].closed  # at the end of input
        return peak

    small, large = peak_bytes(30_000), peak_bytes(300_000)
    assert large < 2 * small


def test_a_dropped_trace_reader_closes_its_file(tmp_path):
    # a run can stop before the last row; with the cycle collector off,
    # dropping the reader must close the file, so collecting later finds
    # no file left open
    path = tmp_path / "t.trace"
    path.write_text("a b\n0 1\n1 0\n")
    gc.disable()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reader = TraceReader(str(path))
            assert reader.next_record() == 0b01
            del reader
            gc.collect()
    finally:
        gc.enable()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_trace_reader_raises_at_each_occurrence_of_a_bad_line():
    # a line that fails its check is not kept decoded: each of its
    # occurrences raises with its own line number, and reading goes on
    # after each; a good line repeated decodes as it did the first time
    reader = TraceReader("inline", text="a b\n0 1\n1 x\n1 0\n1 x\n1 x\n0 1\n\n1\n0 1\n")
    read = []
    for _ in range(9):
        try:
            read.append(reader.next_record())
        except TraceError as exc:
            read.append(str(exc))
    assert read == [
        0b01,
        "line 3: expected 0 or 1, found 'x'",
        0b10,
        "line 5: expected 0 or 1, found 'x'",
        "line 6: expected 0 or 1, found 'x'",
        0b01,
        "line 9: expected 2 columns, found 1",
        0b01,
        None,
    ]


def test_trace_reader_decodes_more_distinct_rows_than_it_keeps(tmp_path):
    # 16 columns: rows of 2 ** 16 kinds, 16 times as many as the decoded
    # lines a reader keeps; every row decodes as its tokens read in base
    # 2, and the reader's memory is no more for 2 ** 16 kinds than for
    # twice the cap
    width = 16
    rng = Random(5)

    def peak_bytes(kinds):
        rows = [rng.randrange(kinds) for _ in range(2 * kinds)] + list(range(kinds))
        lines = [" ".join(format(row, f"0{width}b")) for row in rows]
        path = tmp_path / f"{kinds}.trace"
        path.write_text(" ".join(f"c{i}" for i in range(width)) + "\n" + "\n".join(lines) + "\n")
        expected = [int("".join(line.split()), 2) for line in lines]
        wrong = 0
        tracemalloc.start()
        try:
            reader = TraceReader(str(path))
            for value in expected:
                wrong += reader.next_record() != value
            assert reader.next_record() is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wrong == 0
        return peak

    assert LINE_CAP < 1 << width
    small, large = peak_bytes(2 * LINE_CAP), peak_bytes(1 << width)
    assert large < 1.5 * small


def test_trace_reader_last_line_without_newline():
    # the last line, without its newline, is another line's text, and
    # decodes as the equal line before it; so does a bad one
    reader = TraceReader("inline", text="a b\n0 1\n1 0\n0 1")
    assert [reader.next_record() for _ in range(4)] == [0b01, 0b10, 0b01, None]
    reader = TraceReader("inline", text="a b\n0 2\n0 2")
    for line in (2, 3):
        with pytest.raises(TraceError) as err:
            reader.next_record()
        assert err.value.line == line
    assert reader.next_record() is None


def test_collect_valuation_from_shared_file():
    sources = trace_sources(("a", "b"), TRACE)
    valuation = collect_valuation(sources, 0)
    assert valuation == 0b01
    assert collect_valuation(sources, 1) == 0b10
    assert collect_valuation(sources, 2) == 0b11
    assert collect_valuation(sources, 3) is None
    # a header in another order than the bindings, with a column that
    # no proposition reads; a second grouping of the same text keeps its
    # own column order
    text = "x b a\n1 1 0\n0 0 1\n"
    sources = trace_sources(("a", "b"), text)
    only_x = trace_sources(("x",), text)
    assert collect_valuation(sources, 0) == 0b10
    assert collect_valuation(only_x, 0) == 0b1
    assert collect_valuation(sources, 1) == 0b01
    assert collect_valuation(only_x, 1) == 0b0
    assert collect_valuation(sources, 2) is None
    # more than eight columns, read eight at a time
    header = [f"c{i}" for i in range(11)]
    names = ("c10", "c0", "c8", "c9")
    sources = trace_sources(names, " ".join(header) + "\n1 0 0 0 0 0 0 0 0 1 1\n")
    assert collect_valuation(sources, 0) == 0b1011
    # file and random() bindings mixed, as a configuration gives them:
    # each proposition keeps its position in the universe
    config = parse_config(
        "[drivers]\na = file:t\nr = random(bias=1)\nb = file:t\ns = random(bias=0)\n"
    )
    sources = resolve_bindings(
        ("a", "r", "b", "s"), config, seed=0, trace_text="x b a\n1 1 0\n0 0 1\n"
    )
    assert collect_valuation(sources, 0) == 0b0110
    assert collect_valuation(sources, 1) == 0b0011
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


def test_replace_validates_specs_again():
    assert replace(RandomSpec(), seed=3) == RandomSpec(0.5, 3)
    with pytest.raises(ConfigError, match="bias"):
        replace(RandomSpec(), bias=2)
    hook = HookSpec("h", NondetTrigger(), PromptAction())
    assert replace(hook, scope="m").scope == "m"
    with pytest.raises(ConfigError, match="only valid for the nondeterminism trigger"):
        replace(hook, trigger=DeadlockTrigger())


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

MALFORMED_CONDITIONS = [
    "p &", "(p", "p)", "p q", "&p", "0", "@a", "p:", "", "  ", '"p', 'p & "q', "p & q:", "a:b"
]

# a name directly followed by ':' is read as one token, which the
# diagnostic quotes as written
QUOTED_AS_WRITTEN = {
    "p:": "1:1: error: expected label expression, found 'p:'",
    "p & q:": "1:5: error: expected label expression, found 'q:'",
    "a:b": "1:1: error: expected label expression, found 'a:'",
}


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
    with pytest.raises(ConfigError) as info:
        parse_condition(text)
    if text in QUOTED_AS_WRITTEN:
        assert str(info.value) == f"bad condition: {QUOTED_AS_WRITTEN[text]}"


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
    (runner,) = prepare_runners(compiled_in_one_store([aut]), universe)
    assert step(runner, 0) == (0,)
    assert runner.step_count == 1
    assert step(runner, 1) == (1,)
    assert runner.current_state == 1

    nd = Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, TRUE, 0), Transition(0, TRUE, 1), Transition(1, TRUE, 1)),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
    )
    (runner,) = prepare_runners(compiled_in_one_store([nd]), build_universe([nd]))
    assert step(runner, 0) == (0, 1)
    assert runner.current_state == 0 and runner.step_count == 0

    dead = Automaton(
        aps=("p",),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, Ap(0), 0),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    (runner,) = prepare_runners(compiled_in_one_store([dead]), build_universe([dead]))
    assert step(runner, 0) == ()
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
    runners = prepare_runners(compiled_in_one_store([first, second]), universe)
    for _ in range(30):
        bits = rng.randrange(1 << len(universe))
        for runner in runners:
            aut = runner.automaton
            state, count = runner.current_state, runner.step_count
            expected = brute_successors(aut, state, _local_valuation(aut, universe, bits))
            found = step(runner, bits)
            assert found == tuple(sorted(expected))
            if len(found) == 1:
                assert (runner.current_state, runner.step_count) == (found[0], count + 1)
            else:
                assert (runner.current_state, runner.step_count) == (state, count)
                # carry on from some state, as a goto hook would
                runner.current_state = rng.randrange(aut.num_states)
    # one runner along a longer random word: (state, input) pairs repeat,
    # so the memo holds one entry per pair however often it is stepped,
    # and a unique candidate comes back as the state's one shared tuple
    runner = runners[1]
    aut = runner.automaton
    for _ in range(200):
        bits = rng.randrange(1 << len(universe))
        expected = brute_successors(aut, runner.current_state, _local_valuation(aut, universe, bits))
        found = step(runner, bits)
        assert found == tuple(sorted(expected))
        if len(found) == 1:
            assert found is runner.unique[found[0]]
        else:
            runner.current_state = rng.randrange(aut.num_states)
    assert len(runner.memo) <= aut.num_states << len(aut.aps)


def test_step_walks_wide_labels():
    # `(0|1) & (2|3) & ... & (18|19)` takes 2**10 cubes but a diagram of
    # 20 inner nodes; the runner walks it and its negation, reading their
    # propositions at their global positions: here those of another
    # automaton, one place further on
    names = tuple(f"p{i}" for i in range(20))
    label = land(*(lor(Ap(2 * i), Ap(2 * i + 1)) for i in range(10)))
    store = Diagrams()
    mask, node = store.label(label)
    inner: dict = {}
    store.fold(node, lambda value: 0, lambda var, low, high: 1 + low + high, inner)
    assert (mask, len(inner)) == ((1 << 20) - 1, 22)  # and the two leaves
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
    _, runner = prepare_runners(compiled_in_one_store([first, toggle]), universe)
    rng = Random(3)
    moved = 0
    for _ in range(200):
        # most pairs hold a true proposition, so the label holds about as
        # often as not
        bits = sum(1 << i for i in range(20) if rng.random() < 0.75)
        state = runner.current_state
        expected = brute_successors(toggle, state, _local_valuation(toggle, universe, bits))
        assert step(runner, bits) == tuple(expected)
        moved += runner.current_state != state
    assert 0 < moved < 200


def test_memo_stays_under_cap_on_wide_inputs():
    # 20 propositions under random drivers: nearly every step is a new
    # (state, input) pair, so the memo fills and is emptied; stepping
    # stays exact across that. Two cubes leave each state, so only a memo
    # miss parks the runner, and an input in either cube, about three
    # steps in four, wakes it: most steps still probe the memo
    names = tuple(f"p{i}" for i in range(20))
    move = lor(Ap(0), Ap(19))
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
    (runner,) = prepare_runners(compiled_in_one_store([aut]), names)
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


# ---------------------------------------------------------------------------
# Parked runners: the loop stops probing a runner that rests at a state
# only one cube of inputs can leave, until an input in that cube comes


def _trace_rows(text):
    """The header and the 0/1 rows of a trace, read without TraceReader."""
    header, *rows = (
        line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    return header, [[token == "1" for token in row] for row in rows]


@pytest.mark.parametrize("n, length", [(4, 400), (8, 200), (16, 100)])
def test_parked_lock_monitors_match_replayed_monitors(n, length):
    # every gen-locks monitor with a reset on each conclusive verdict: at
    # n=8 and n=16 all but a few of the 128 or 512 runners are parked at
    # any one step, idle or holding their lock; the replay steps every
    # runner by evaluate and observes every state
    automata = emit_monitors(n).automata
    trace = generate_trace(LockScenario(n=n, length=length, violations=4, seed=1))
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)
    report, events, _ = _run_with_trace(
        automata, trace, hooks=hooks, monitors=[Monitor(aut) for aut in automata]
    )

    header, rows = _trace_rows(trace)
    columns = [[header.index(name) for name in aut.aps] for aut in automata]
    replayed = [Monitor(aut) for aut in automata]
    states = [min(aut.initial) for aut in automata]
    expected = []
    expected_states = []
    for step_index, row in enumerate(rows):
        for i, aut in enumerate(automata):
            valuation = valuation_from_bools(row[c] for c in columns[i])
            (states[i],) = brute_successors(aut, states[i], valuation)
            monitor = replayed[i]
            before = monitor.current_verdict
            monitor.observe(states[i])
            if monitor.current_verdict is not before:
                expected.append(VerdictEvent(step_index, aut.name, monitor.current_verdict))
                states[i] = min(aut.initial)
                monitor.reset()
        expected_states.append(tuple(zip((aut.name for aut in automata), states)))
    assert report.reason == "end-of-input"
    assert [e for e in events if isinstance(e, VerdictEvent)] == expected
    assert len(expected) == replay_check(trace, n).total
    assert [e.states for e in events if isinstance(e, StepEvent)] == expected_states
    assert [r.step_count for r in report.runners] == [len(rows)] * len(automata)


def _over_pq(name, transitions, num_states=2):
    return Automaton(
        aps=("p", "q"),
        num_states=num_states,
        initial=frozenset({0}),
        transitions=tuple(Transition(*t) for t in transitions),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
        name=name,
    )


def _waits_for(name, index, complete=True):
    # state 0 loops until proposition `index` holds, then moves to sink 1,
    # which is good; without that move state 0 deadlocks there
    transitions = [(0, Not(Ap(index)), 0), (1, TRUE, 1)]
    if complete:
        transitions.append((0, Ap(index), 1))
    return _over_pq(name, transitions)


@pytest.mark.parametrize(
    "hook, middle, reason, counts",
    [
        # the middle runner moves to its good sink at step 3, and its
        # verdict hook halts there
        (HookSpec("stop", VerdictTrigger("good"), HaltAction(4), "middle"), True, "halt",
         [4, 4, 4, 3, 3]),
        # the middle runner cannot rest at its incomplete state, so it is
        # stepped every step, and deadlocks at step 3
        (None, False, "deadlock", [4, 4, 3, 3, 3]),
    ],
)
def test_a_run_ended_part_way_through_a_step_counts_the_parked_runners_before_it(
    hook, middle, reason, counts
):
    # the runners on either side of the middle one wait for q and are
    # parked from step 1 on; p comes at step 3
    automata = [_waits_for(name, 1) for name in ("a", "b")]
    automata.append(_waits_for("middle", 0, complete=middle))
    automata += [_waits_for(name, 1) for name in ("d", "e")]
    monitors = [Monitor(aut) if aut.name == "middle" else None for aut in automata]
    report, _, _ = _run_with_trace(
        automata,
        "p q\n0 0\n0 0\n0 0\n1 0\n0 0\n",
        hooks=(hook,) if hook else (),
        monitors=monitors,
    )
    assert (report.reason, report.steps) == (reason, 3)
    assert [r.step_count for r in report.runners] == counts
    assert [r.final_state for r in report.runners] == [0, 0, int(middle), 0, 0]


@pytest.mark.parametrize(
    "make, text, rows",
    [
        # the runners park, are woken by p and rest in their sink when the
        # bad row comes
        (pq_automaton, "p\n0\n0\n0\n0\n1\n0\n0\n2\n0\n", 7),
        # the runners are still parked when the bad row comes
        (bad_monitor_automaton, "p\n1\n1\n1\n1\n2\n", 4),
    ],
)
def test_a_malformed_row_leaves_every_runner_counting_the_rows_read(make, text, rows):
    automata = [make(name) for name in ("first", "middle", "last")]
    universe = build_universe(automata)
    runners = prepare_runners(compiled_in_one_store(automata), universe)
    with pytest.raises(TraceError, match="expected 0 or 1"):
        run_loop(runners, trace_sources(universe, text))
    assert [r.step_count for r in runners] == [rows] * 3


P, Q = Ap(0), Ap(1)


@pytest.mark.parametrize(
    "automaton, text, reason",
    [
        # incomplete at state 0: p leaves it, !p & q keeps it, and !p & !q
        # deadlocks, which a parked runner would not see
        (_over_pq("incomplete", [(0, P, 1), (0, land(Not(P), Q), 0), (1, TRUE, 1)]),
         "p q\n0 1\n0 1\n0 1\n0 0\n0 1\n", "deadlock"),
        # two cubes leave state 0, for two different states
        (_over_pq("two-exits", [(0, P, 1), (0, land(Not(P), Q), 2),
                                (0, land(Not(P), Not(Q)), 0), (1, TRUE, 1), (2, TRUE, 2)], 3),
         "p q\n0 0\n0 0\n0 0\n0 1\n0 0\n", "end-of-input"),
        # a label with more paths than nodes, which is not filed
        (parse(load_fixture("wide.hoa")).automata[0],
         " ".join(f"p{i}" for i in range(20)) + "\n"
         + "".join(f"{' '.join([bit] * 20)}\n" for bit in "0001000110"), "end-of-input"),
    ],
)
def test_runners_that_cannot_be_parked_step_as_replayed(automaton, text, reason):
    # each runner rests at state 0 for a few steps; the input that moves
    # it or deadlocks it after that must still be seen
    report, events, runners = _run_with_trace([automaton], text)
    _, rows = _trace_rows(text)
    state = min(automaton.initial)
    expected = []
    for row in rows:
        found = brute_successors(automaton, state, valuation_from_bools(row))
        if not found:
            break
        (state,) = found
        expected.append(state)
    assert report.reason == reason
    assert report.steps == len(expected) == runners[0].step_count
    assert [e.states[0][1] for e in events if isinstance(e, StepEvent)] == expected
    assert reason == "deadlock" or len(set(expected)) > 1


def test_runners_with_state_or_cond_hooks_are_not_parked():
    # a state: and a cond: hook see every step the runner rests at state
    # 0, and the runner with neither is parked meanwhile
    automata = [pq_automaton(name) for name in ("stated", "conditioned", "plain")]
    hooks = (
        HookSpec("at", StateTrigger(0), LogAction("at 0"), "stated"),
        HookSpec("quiet", CondTrigger(*parse_condition("!p")), LogAction("quiet"), "conditioned"),
    )
    report, events, _ = _run_with_trace(automata, "p\n0\n0\n0\n0\n1\n0\n", hooks=hooks)
    logs = [(e.step, e.runner) for e in events if isinstance(e, LogEvent)]
    assert logs == [(step, name) for step in range(4) for name in ("stated", "conditioned")] + [
        (5, "conditioned")
    ]
    assert [r.step_count for r in report.runners] == [6, 6, 6]
    assert [r.final_state for r in report.runners] == [1, 1, 1]


def test_a_runner_left_in_place_by_its_first_step_is_parked_at_once():
    # q keeps the runner at state 0 either way and changes every step, so
    # the memo has no entry for the next input until step 2; the runner
    # is parked after its first step all the same, and probed again only
    # when p comes at step 4
    automaton = _over_pq(
        "waits", [(0, P, 1), (0, land(Not(P), Q), 0), (0, land(Not(P), Not(Q)), 0), (1, TRUE, 1)]
    )
    report, events, runners = _run_with_trace([automaton], "p q\n0 0\n0 1\n0 0\n0 1\n1 0\n")
    assert [e.states[0][1] for e in events if isinstance(e, StepEvent)] == [0, 0, 0, 0, 1]
    assert runners[0].step_count == 5
    assert len(runners[0].memo) == 2  # the inputs of steps 0 and 4
    # the same after a memo miss mid-run: p moves the runner to state 1
    # and back to 0, where the new input of step 2 leaves it; it is
    # parked there, and probed again only when p comes at step 6
    automaton = _over_pq(
        "returns",
        [(0, P, 1), (0, land(Not(P), Q), 0), (0, land(Not(P), Not(Q)), 0), (1, TRUE, 0)],
    )
    text = "p q\n1 0\n0 0\n0 1\n0 0\n0 1\n0 0\n1 0\n"
    report, events, runners = _run_with_trace([automaton], text)
    assert [e.states[0][1] for e in events if isinstance(e, StepEvent)] == [1, 0, 0, 0, 0, 0, 1]
    assert runners[0].step_count == 7
    assert len(runners[0].memo) == 3  # the inputs of steps 0, 1 and 2


class _ProbeCountingMemo(dict):
    """A successor memo that counts the loop's probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def test_a_runner_woken_by_two_of_its_cubes_steps_once():
    # `p & (q | r) & !(q & r)` leaves state 0 for 1 and `q & r` for 2;
    # their hulls, p and q & r, overlap, and the runner is parked under
    # both after the memo miss of step 0; p & q & r at step 3 is in both,
    # and wakes, steps and counts it once
    R = Ap(2)
    odd = land(P, lor(Q, R), Not(land(Q, R)))
    automaton = Automaton(
        aps=("p", "q", "r"),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, odd, 1),
            Transition(0, land(Q, R), 2),
            Transition(0, Not(lor(odd, land(Q, R))), 0),
            Transition(1, TRUE, 1),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(),
        condition=Top(),
    )
    universe = build_universe([automaton])
    (runner,) = prepare_runners(compiled_in_one_store([automaton]), universe)
    assert runner.exits[0] == ((1, 1), (6, 6))
    runner.memo = _ProbeCountingMemo()
    events = []
    text = "p q r\n0 0 0\n0 0 0\n0 0 0\n1 1 1\n0 0 0\n"
    report = run_loop([runner], trace_sources(universe, text), on_event=events.append)
    assert [e.states[0][1] for e in events] == [0, 0, 0, 2, 2]
    assert runner.step_count == report.steps == 5
    assert runner.memo.probes == 3  # at steps 0, 3 and 4


def test_a_group_left_by_an_ended_parking_wakes_nobody():
    # state 0 has two exit cubes, p and !p & q, and the runner is parked
    # under both after step 0; p wakes it at step 1 and moves it to state
    # 1, where it is parked under r after step 2. The q of step 3 falls in
    # the group that state 0's parking left behind, and must not probe it
    R = Ap(2)
    automaton = Automaton(
        aps=("p", "q", "r"),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, P, 1),
            Transition(0, land(Not(P), Q), 2),
            Transition(0, land(Not(P), Not(Q)), 0),
            Transition(1, R, 0),
            Transition(1, Not(R), 1),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(),
        condition=Top(),
    )
    universe = build_universe([automaton])
    (runner,) = prepare_runners(compiled_in_one_store([automaton]), universe)
    assert len(runner.exits[0]) == 2
    runner.memo = _ProbeCountingMemo()
    events = []
    text = "p q r\n0 0 0\n1 0 0\n0 0 0\n0 1 0\n0 0 1\n"
    report = run_loop([runner], trace_sources(universe, text), on_event=events.append)
    assert [e.states[0][1] for e in events] == [0, 1, 1, 1, 0]
    assert runner.step_count == report.steps == 5
    assert runner.memo.probes == 4  # at steps 0, 1, 2 and 4


def test_a_memo_hit_leaves_a_runner_with_several_cubes_unparked():
    # the memo miss of step 0 parks the runner under both cubes of
    # `p | q`, and p at step 2 wakes it and moves it to state 1; it comes
    # back at step 3, and from step 4 the memo holds 0 with !p & !q: a
    # hit does not file a runner under several cubes (filing and
    # unfiling it costs more than hits when it soon leaves), so it is
    # probed at steps 4 and 5
    automaton = _over_pq("back", [(0, lor(P, Q), 1), (0, land(Not(P), Not(Q)), 0), (1, TRUE, 0)])
    universe = build_universe([automaton])
    (runner,) = prepare_runners(compiled_in_one_store([automaton]), universe)
    runner.memo = _ProbeCountingMemo()
    text = "p q\n0 0\n0 0\n1 0\n0 0\n0 0\n0 0\n"
    events = []
    report = run_loop([runner], trace_sources(universe, text), on_event=events.append)
    assert [e.states[0][1] for e in events] == [0, 0, 1, 0, 0, 0]
    assert runner.step_count == report.steps == 6
    assert runner.memo.probes == 5  # at every step but 1


def test_a_state_past_the_checks_cap_is_parked_by_its_diagram():
    # state 0 loops on the complement of a 17-literal cube, one more
    # proposition than the checks take; its table has no empty leaf all
    # the same, so the runner is parked after step 0
    names = tuple(f"p{i}" for i in range(17))
    wide = land(*(Ap(i) for i in range(17)))
    automaton = Automaton(
        aps=names,
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, wide, 1), Transition(0, Not(wide), 0), Transition(1, TRUE, 1)),
        acc_sets=(frozenset({1}),),
        condition=Inf(0),
        name="wide",
    )
    universe = build_universe([automaton])
    (runner,) = prepare_runners(compiled_in_one_store([automaton]), universe)
    runner.memo = _ProbeCountingMemo()
    text = " ".join(names) + "\n" + ("0 " * 17 + "\n") * 50
    report = run_loop([runner], trace_sources(universe, text))
    assert runner.step_count == report.steps == 50
    assert runner.memo.probes == 1
    assert runner.exits[0] == ((sum(1 << i for i in range(17)),) * 2,)


def test_an_incomplete_state_is_never_parked_and_deadlocks_where_it_did():
    # state 0 has two exit cubes, p and !p & q, and no transition for
    # !p & !q & !r; run without a monitor it is never completed, so the
    # runner is probed at every step and deadlocks at step 4
    automaton = Automaton(
        aps=("p", "q", "r"),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, P, 1),
            Transition(0, land(Not(P), Q), 2),
            Transition(0, land(Not(P), Not(Q), Ap(2)), 0),
            Transition(1, TRUE, 1),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(),
        condition=Top(),
        name="gap",
    )
    text = "p q r\n0 0 1\n0 0 1\n0 0 1\n0 0 1\n0 0 0\n0 1 0\n"
    report, events, runners = _run_with_trace([automaton], text)
    assert (report.reason, report.steps, report.fatal_runner) == ("deadlock", 4, "gap")
    assert runners[0].exits[0] is None
    assert runners[0].step_count == 4
    assert len(events) == 4


def test_parked_runners_keep_run_loop_memory_flat_in_trace_length(tmp_path):
    # the n=4 lock monitors, 32 runners parked and woken under up to 8
    # cubes each: a woken group is dropped and a runner has one entry per
    # group, so the peak of a run ten times as long is no higher
    automata = emit_monitors(4).automata
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)

    def peak_bytes(length):
        path = tmp_path / f"{length}.trace"
        path.write_text(generate_trace(LockScenario(n=4, length=length, violations=4, seed=1)))
        universe = build_universe(automata)
        runners = prepare_runners(compiled_in_one_store(automata), universe, hooks)
        for runner, automaton in zip(runners, automata):
            runner.monitor = Monitor(automaton)
        sources = resolve_bindings(universe, Config(default_driver=FileSpec(str(path))), seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            report = run_loop(runners, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.steps == length
        return peak

    small, large = peak_bytes(2_000), peak_bytes(20_000)
    assert abs(large - small) < 100_000


def test_a_memo_hit_advances_as_a_miss_does(monkeypatch):
    # the n=4 lock monitors with a reset on each conclusive verdict, on a
    # trace with enough faults that the same step into a verdict recurs
    # as a memo hit, run as they are and with a memo of one entry, so
    # that a probe finds at most its runner's last walk: verdicts, states
    # and step counts agree
    automata = emit_monitors(4).automata
    trace = generate_trace(LockScenario(n=4, length=1_000, violations=100, seed=1))
    hooks = (HookSpec("reset", VerdictTrigger("conclusive"), ResetAction()),)
    walked = []  # per run, the steps walked, as run_loop calls step only on a miss
    walk_step = runtime.step

    def counted(*args):
        walked[-1] += 1
        return walk_step(*args)

    monkeypatch.setattr(runtime, "step", counted)

    def run():
        walked.append(0)
        report, events, _ = _run_with_trace(
            automata, trace, hooks=hooks, monitors=[Monitor(aut) for aut in automata]
        )
        return (
            [e for e in events if isinstance(e, VerdictEvent)],
            [e.states for e in events if isinstance(e, StepEvent)],
            [r.step_count for r in report.runners],
        )

    hits = run()
    monkeypatch.setattr(runtime, "MEMO_CAP", 1)
    misses = run()
    assert hits == misses
    assert len(hits[0]) == replay_check(trace, 4).total
    # the second run walks about three times as often as the first (3,583
    # and 1,244 walks of 1,000 events)
    assert 2 * walked[0] < walked[1]


def _run_with_trace(automata, trace_text, hooks=(), seed=0, max_steps=None, monitors=None):
    universe = build_universe(automata)
    runners = prepare_runners(compiled_in_one_store(automata), universe, hooks)
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
        prepare_runners(compiled_in_one_store([aut]), build_universe([aut]), hooks)


def test_cond_trigger_validation_against_universe():
    aut = pq_automaton("m")
    unbound = (HookSpec("watch", CondTrigger(Ap(0), ("q",)), LogAction("q seen")),)
    with pytest.raises(ConfigError, match="'q'"):
        prepare_runners(compiled_in_one_store([aut]), build_universe([aut]), unbound)
    bound = (HookSpec("watch", CondTrigger(Ap(0), ("p",)), LogAction("p seen")),)
    (runner,) = prepare_runners(compiled_in_one_store([aut]), build_universe([aut]), bound)
    assert runner.triggered == {CondTrigger: list(bound)}
    assert [hook for _, hook in runner.conditions] == list(bound)


def test_runners_in_scope_share_their_condition_diagram():
    automata = [pq_automaton("first"), pq_automaton("second")]
    hooks = (HookSpec("watch", CondTrigger(*parse_condition("!p")), LogAction("quiet")),)
    compiled = compiled_in_one_store(automata)
    first, second = prepare_runners(compiled, build_universe(automata), hooks)
    assert first.conditions[0][0] is second.conditions[0][0]


def test_runners_at_one_projection_share_their_placed_walks():
    # automata built or parsed apart over the same propositions: in one
    # store their tables are one diagram, placed once for them all
    automata = [pq_automaton("first"), pq_automaton("second")]
    first, second = prepare_runners(compiled_in_one_store(automata), build_universe(automata))
    assert all(a is b for a, b in zip(first.walks, second.walks, strict=True))
    text = serialize(emit_monitors(2))
    automata = parse(text).automata + parse(text).automata
    store = Diagrams()
    compiled = [attach_monitor(automaton, store=store)[0] for automaton in automata]
    runners = prepare_runners(compiled, build_universe(automata))
    half = len(runners) // 2
    for one, other in zip(runners[:half], runners[half:], strict=True):
        assert all(a is b for a, b in zip(one.walks, other.walks, strict=True))


def test_runners_refuse_diagrams_past_the_node_budget():
    # p_i & p_(20+i) for each i: about 2 ** 20 nodes in the fixed order
    bus = lor(*(land(Ap(i), Ap(20 + i)) for i in range(20)))
    aut = Automaton(
        aps=tuple(f"p{i}" for i in range(40)),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, bus, 0), Transition(0, Not(bus), 0)),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    with pytest.raises(runtime.CapacityError, match="cannot run m: .* state 0 "):
        prepare_runners(compiled_in_one_store([replace(aut, name="m")]), build_universe([aut]))
    small = pq_automaton("m")
    watch = (HookSpec("watch", CondTrigger(bus, aut.aps), LogAction("seen")),)
    with pytest.raises(ConfigError, match="hook watch: condition takes a decision diagram"):
        prepare_runners(compiled_in_one_store([small]), build_universe([small, aut]), watch)


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
        runners = prepare_runners(compiled_in_one_store([nd]), universe, hooks)
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
