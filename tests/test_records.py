"""The records of every module: construction, `repr`, `==`, `hash`,
frozenness, slots and `replace`, as the package promises them."""

import copy
import pickle

import pytest

from hoarun import replace
from hoarun.automata import (
    AccAnd,
    AccOr,
    Automaton,
    Bot,
    Fin,
    Inf,
    StateGraph,
    Top,
    Transition,
)
from hoarun.hoa import HoaDocument, ParseDiagnostic
from hoarun.labels import FALSE, TRUE, And, Ap, FalseLabel, Not, Or, TrueLabel, Valuation
from hoarun.locks import LockScenario, ReplayCounts
from hoarun.monitoring import Verdict
from hoarun.runtime import (
    Config,
    CondTrigger,
    DeadlockTrigger,
    ExitReport,
    FileSpec,
    GotoAction,
    HaltAction,
    HookSpec,
    InteractiveSpec,
    LogAction,
    LogEvent,
    NondetTrigger,
    PromptAction,
    RandomChoiceAction,
    RandomSpec,
    ResetAction,
    RunnerSummary,
    StateTrigger,
    VerdictEvent,
    VerdictTrigger,
)


def _automaton(**changes):
    fields = dict(
        aps=("p",),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, TRUE, 0),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    fields.update(changes)
    return Automaton(**fields)


# (a factory making a fresh instance on each call, its repr); each record
# class of the package appears once
RECORDS = [
    (Top, "Top()"),
    (Bot, "Bot()"),
    (lambda: Fin(0), "Fin(set_index=0)"),
    (lambda: Inf(1), "Inf(set_index=1)"),
    (lambda: AccAnd((Fin(0), Inf(1))), "AccAnd(children=(Fin(set_index=0), Inf(set_index=1)))"),
    (lambda: AccOr((Top(),)), "AccOr(children=(Top(),))"),
    (lambda: Transition(0, Ap(1), 2), "Transition(src=0, label=Ap(index=1), dst=2)"),
    (
        _automaton,
        "Automaton(aps=('p',), num_states=1, initial=frozenset({0}), "
        "transitions=(Transition(src=0, label=TrueLabel(), dst=0),), "
        "acc_sets=(frozenset({0}),), condition=Inf(set_index=0), name=None, "
        "acc_name=None, tool=None, properties=(), display_ids=None)",
    ),
    (lambda: StateGraph(2, ((1,), ())), "StateGraph(num_states=2, succ=((1,), ()))"),
    (
        lambda: ParseDiagnostic(3, 4, "odd"),
        "ParseDiagnostic(line=3, column=4, message='odd', severity='error')",
    ),
    (lambda: HoaDocument((), ()), "HoaDocument(automata=(), warnings=())"),
    (TrueLabel, "TrueLabel()"),
    (FalseLabel, "FalseLabel()"),
    (lambda: Ap(3), "Ap(index=3)"),
    (lambda: Not(Ap(0)), "Not(child=Ap(index=0))"),
    (lambda: And((Ap(0), FALSE)), "And(children=(Ap(index=0), FalseLabel()))"),
    (lambda: Or((TRUE,)), "Or(children=(TrueLabel(),))"),
    (lambda: Valuation(5, 3), "Valuation(bits=5, width=3)"),
    (
        lambda: LockScenario(2, 8),
        "LockScenario(n=2, length=8, violations=0, fault_kind='double-acquire', seed=0)",
    ),
    (lambda: ReplayCounts(1, 2), "ReplayCounts(double_acquires=1, unreleased=2)"),
    (InteractiveSpec, "InteractiveSpec()"),
    (lambda: FileSpec("x"), "FileSpec(path='x')"),
    (lambda: RandomSpec(seed=4), "RandomSpec(bias=0.5, seed=4)"),
    (NondetTrigger, "NondetTrigger()"),
    (DeadlockTrigger, "DeadlockTrigger()"),
    (lambda: VerdictTrigger("bad"), "VerdictTrigger(kind='bad')"),
    (lambda: StateTrigger(2), "StateTrigger(state=2)"),
    (
        lambda: CondTrigger(Not(Ap(0)), ("req",)),
        "CondTrigger(expr=Not(child=Ap(index=0)), ap_names=('req',))",
    ),
    (RandomChoiceAction, "RandomChoiceAction()"),
    (PromptAction, "PromptAction()"),
    (ResetAction, "ResetAction()"),
    (lambda: GotoAction(1), "GotoAction(state=1)"),
    (lambda: LogAction("x"), "LogAction(template='x')"),
    (lambda: HaltAction(7), "HaltAction(code=7)"),
    (
        lambda: HookSpec("h", NondetTrigger(), PromptAction()),
        "HookSpec(ident='h', trigger=NondetTrigger(), action=PromptAction(), scope='*')",
    ),
    (
        lambda: Config(default_driver=FileSpec("t"), max_steps=9),
        "Config(drivers=(), default_driver=FileSpec(path='t'), hooks=(), seed=None, "
        "max_steps=9)",
    ),
    (
        lambda: VerdictEvent(3, "m", Verdict.BAD),
        "VerdictEvent(step=3, runner='m', verdict=<Verdict.BAD: 'bad'>)",
    ),
    (lambda: LogEvent(3, "m", "hi"), "LogEvent(step=3, runner='m', message='hi')"),
    (
        lambda: RunnerSummary("m", 0, 5, None),
        "RunnerSummary(label='m', final_state=0, step_count=5, final_verdict=None)",
    ),
    (
        lambda: ExitReport("halt", 5, (), 0, halt_code=2),
        "ExitReport(reason='halt', steps=5, runners=(), bad_verdicts=0, halt_code=2, "
        "fatal_runner=None)",
    ),
]

IDS = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_form(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != text and a != ()


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_are_frozen_and_slotted(make, text):
    record = make()
    name, equals, _ = text.partition("(")[2].partition("=")
    if equals:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_other_names_cannot_be_set(make, text):
    # a slotted frozen dataclass raised TypeError here, from its __setattr__'s
    # super() call naming the class the decorator had replaced
    with pytest.raises(AttributeError):
        make().anything = 0


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_copy_and_pickle(make, text):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record) and repr(twin) == text


def test_equality_is_type_exact():
    assert Top() != Bot() and Fin(0) != Inf(0)
    assert FileSpec("x") != LogAction("x")
    assert InteractiveSpec() != NondetTrigger()
    assert StateTrigger(1) != GotoAction(1)
    assert len({Fin(0), Inf(0), Fin(0)}) == 2


def test_fields_out_of_the_comparison():
    a = _automaton()
    b = _automaton(display_ids=(7,))
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    warned = (ParseDiagnostic(1, 1, "odd", "warning"),)
    assert HoaDocument((a,), warned) == HoaDocument((a,))
    assert hash(HoaDocument((a,), warned)) == hash(HoaDocument((a,)))
    # every other field still counts
    assert a != _automaton(name="m") and a != _automaton(properties=("complete",))


def test_defaults_and_keywords():
    assert LockScenario(2, 8) == LockScenario(length=8, n=2, seed=0)
    assert ExitReport("halt", 5, (), 0).halt_code is None
    with pytest.raises(TypeError):
        Fin()
    with pytest.raises(TypeError):
        Fin(0, 1)
    with pytest.raises(TypeError):
        Fin(index=0)
    with pytest.raises(TypeError):
        Fin(0, set_index=0)


def test_construction_validates():
    with pytest.raises(ValueError, match="unique"):
        _automaton(aps=("p", "p"))
    with pytest.raises(ValueError, match="initial"):
        _automaton(initial=frozenset())


def test_replace_makes_a_new_record_and_validates_it():
    a = _automaton(display_ids=(7,))
    b = replace(a, name="m")
    assert b.name == "m" and b.display_ids == (7,) and a.name is None
    assert replace(Fin(0), set_index=1) == Fin(1)
    assert replace(Transition(0, TRUE, 0), dst=0) == Transition(0, TRUE, 0)
    with pytest.raises(ValueError, match="unique"):
        replace(a, aps=("p", "p"))
    with pytest.raises(TypeError):
        replace(Fin(0), index=1)
