from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from helpers import (
    atom_verdict,
    brute_trap_verdict,
    graph_from_edges,
    random_det_complete_automaton,
    reachable_from,
)
from hoarun.automata import (
    Automaton,
    Compiled,
    Fin,
    Inf,
    Top,
    Transition,
    acc_and,
    acc_or,
    is_complete,
    state_graph,
)
from hoarun.hoa import parse
from hoarun.labels import TRUE, Ap, Diagrams, Not
from hoarun.monitoring import (
    Monitor,
    MonitorAttachError,
    Verdict,
    VerdictOracle,
    attach_monitor,
    combine_and,
    combine_or,
    condition_verdict,
    oracle_verdict,
    state_verdicts,
    swap_good_bad,
)
from hoarun.traps import bsccs, min_trap_set_of

FIG_A = graph_from_edges(3, [(0, 1), (1, 1), (1, 2), (2, 2)])

# one bottom SCC {u, v}: u -> v, v -> v, v -> u
UV = graph_from_edges(2, [(0, 1), (1, 1), (1, 0)])

VERDICTS = (Verdict.GOOD, Verdict.BAD, Verdict.UGLY, Verdict.UNKNOWN)


def uv_automaton(condition, acc_sets=(frozenset({0}),)) -> Automaton:
    return Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(
            Transition(0, TRUE, 1),
            Transition(1, Ap(0), 1),
            Transition(1, Not(Ap(0)), 0),
        ),
        acc_sets=tuple(acc_sets),
        condition=condition,
    )


def test_verdict_inf_examples():
    assert atom_verdict(Inf, FIG_A, 1, {0}) is Verdict.BAD
    assert atom_verdict(Inf, FIG_A, 2, {2}) is Verdict.GOOD
    assert atom_verdict(Inf, UV, 0, {0}) is Verdict.UGLY
    assert atom_verdict(Inf, FIG_A, 1, {2}) is Verdict.UNKNOWN


def test_verdict_fin_examples():
    assert atom_verdict(Fin, FIG_A, 1, {0}) is Verdict.GOOD
    assert atom_verdict(Fin, FIG_A, 2, {2}) is Verdict.BAD
    assert atom_verdict(Fin, UV, 0, {0}) is Verdict.UGLY


def test_uv_ugly_confirmed_by_oracle():
    aut = uv_automaton(Inf(0), acc_sets=(frozenset({0}),))
    assert oracle_verdict(aut, 0) is Verdict.UGLY
    assert oracle_verdict(aut, 1) is Verdict.UGLY


def test_fig_a_unknown_is_resolvable_per_oracle():
    # the one-step check says unknown at state 1 for Inf({2}), but the
    # prefix is resolvable: state 2 is conclusively good
    aut = Automaton(
        aps=("p",),
        num_states=3,
        initial=frozenset({0}),
        transitions=(
            Transition(0, TRUE, 1),
            Transition(1, Not(Ap(0)), 1),
            Transition(1, Ap(0), 2),
            Transition(2, TRUE, 2),
        ),
        acc_sets=(frozenset({2}),),
        condition=Inf(0),
    )
    assert oracle_verdict(aut, 1) is Verdict.UNKNOWN
    assert oracle_verdict(aut, 2) is Verdict.GOOD


def test_state_verdicts_fig_a():
    # the components are judged sinks first: {2}, then {1}, then {0}
    unknown, good, bad = Verdict.UNKNOWN, Verdict.GOOD, Verdict.BAD
    assert state_verdicts(FIG_A, Inf(0), (frozenset({2}),)) == (unknown, unknown, good)
    assert state_verdicts(FIG_A, Inf(0), (frozenset({0}),)) == (unknown, bad, bad)
    assert state_verdicts(FIG_A, Fin(0), (frozenset({0}),)) == (unknown, good, good)
    assert state_verdicts(UV, Inf(0), (frozenset({0}),)) == (Verdict.UGLY,) * 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_condition_verdict_reads_the_state_verdicts_table(seed):
    aut = random_det_complete_automaton(Random(seed), max_states=7, max_aps=2, cond_depth=3)
    graph = state_graph(aut)
    table = state_verdicts(graph, aut.condition, aut.acc_sets)
    assert Monitor(aut).verdicts == table
    for q in range(aut.num_states):
        assert condition_verdict(graph, aut.condition, aut.acc_sets, q) is table[q]


def test_condition_verdict_unknown_state():
    for state in (-1, FIG_A.num_states):
        with pytest.raises(ValueError, match="unknown state"):
            condition_verdict(FIG_A, Inf(0), (frozenset({2}),), state)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        atom_verdict(Inf, FIG_A, 0, set())
    with pytest.raises(ValueError):
        atom_verdict(Fin, FIG_A, 0, set())


def test_combine_and_table():
    G, B, Y, K = VERDICTS
    table = {
        (G, G): G, (G, B): B, (G, Y): Y, (G, K): K,
        (B, G): B, (B, B): B, (B, Y): B, (B, K): B,
        (Y, G): Y, (Y, B): B, (Y, Y): K, (Y, K): K,
        (K, G): K, (K, B): B, (K, Y): K, (K, K): K,
    }
    for (a, b), expected in table.items():
        assert combine_and(a, b) is expected, (a, b)


def test_combine_or_table():
    G, B, Y, K = VERDICTS
    table = {
        (G, G): G, (G, B): G, (G, Y): G, (G, K): G,
        (B, G): G, (B, B): B, (B, Y): Y, (B, K): K,
        (Y, G): G, (Y, B): Y, (Y, Y): K, (Y, K): K,
        (K, G): G, (K, B): K, (K, Y): K, (K, K): K,
    }
    for (a, b), expected in table.items():
        assert combine_or(a, b) is expected, (a, b)


def test_two_uglies_may_hide_a_contradiction():
    # Inf(S) and Fin(S) are each ugly inside a bottom SCC that overlaps S,
    # yet their conjunction is unsatisfiable (every prefix is bad) and
    # their disjunction is valid (every prefix is good). A conclusive
    # "ugly" for the pair would therefore be wrong; the combiners must
    # keep monitoring instead.
    both = uv_automaton(acc_and(Inf(0), Fin(0)))
    assert oracle_verdict(both, 0) is Verdict.BAD
    either = uv_automaton(acc_or(Inf(0), Fin(0)))
    assert oracle_verdict(either, 0) is Verdict.GOOD
    graph = state_graph(both)
    assert atom_verdict(Inf, graph, 0, {0}) is Verdict.UGLY
    assert atom_verdict(Fin, graph, 0, {0}) is Verdict.UGLY
    assert combine_and(Verdict.UGLY, Verdict.UGLY) is Verdict.UNKNOWN
    assert combine_or(Verdict.UGLY, Verdict.UGLY) is Verdict.UNKNOWN


def test_combinators_commutative_associative_monotone():
    for a, b in product(VERDICTS, repeat=2):
        assert combine_and(a, b) is combine_and(b, a)
        assert combine_or(a, b) is combine_or(b, a)
    for a, b, c in product(VERDICTS, repeat=3):
        assert combine_and(combine_and(a, b), c) is combine_and(a, combine_and(b, c))
        assert combine_or(combine_or(a, b), c) is combine_or(a, combine_or(b, c))
    # raising unknown to any conclusive verdict never loses information
    for op in (combine_and, combine_or):
        for b in VERDICTS:
            low = op(Verdict.UNKNOWN, b)
            for raised in (Verdict.GOOD, Verdict.BAD, Verdict.UGLY):
                high = op(raised, b)
                assert low is Verdict.UNKNOWN or low is high


def test_swap_duality_all_cells():
    for a, b in product(VERDICTS, repeat=2):
        assert combine_or(a, b) is swap_good_bad(
            combine_and(swap_good_bad(a), swap_good_bad(b))
        )


def test_fin_is_swap_of_inf_exhaustively():
    rng = Random(5)
    for _ in range(50):
        aut = random_det_complete_automaton(rng, max_states=6, max_aps=2)
        graph = state_graph(aut)
        for members in aut.acc_sets:
            for q in range(aut.num_states):
                assert atom_verdict(Fin, graph, q, members) is swap_good_bad(
                    atom_verdict(Inf, graph, q, members)
                )


def test_step_verdict_condition_fold():
    aut = uv_automaton(Top())
    monitor = Monitor(aut)
    assert monitor.observe(0) is Verdict.GOOD
    assert combine_or(Verdict.BAD, Verdict.GOOD) is Verdict.GOOD


def test_monitor_latching_and_reset():
    # automaton: state 0 loops on p, moves to the bad sink 1 on !p
    aut = Automaton(
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
    )
    monitor = Monitor(aut)
    assert monitor.observe(0) is Verdict.UNKNOWN
    assert monitor.observe(1) is Verdict.BAD
    # latched: staying in 1 or even feeding 0 cannot change it
    assert monitor.observe(1) is Verdict.BAD
    assert monitor.observe(0) is Verdict.BAD
    monitor.reset()
    assert monitor.current_verdict is Verdict.UNKNOWN
    assert monitor.observe(0) is Verdict.UNKNOWN
    assert monitor.observe(1) is Verdict.BAD


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_verdict_table_matches_trap_set_definition(seed):
    # every entry, unknown ones included: soundness alone (criterion 3)
    # would also accept a table that never commits to a verdict
    aut = random_det_complete_automaton(Random(seed), max_states=7, max_aps=2, cond_depth=3)
    graph = state_graph(aut)
    expected = tuple(
        brute_trap_verdict(graph, aut.condition, aut.acc_sets, q)
        for q in range(aut.num_states)
    )
    assert Monitor(aut).verdicts == expected


def test_empty_acceptance_set_fails_when_monitor_is_built():
    referenced = uv_automaton(acc_and(Inf(0), Fin(1)), acc_sets=(frozenset({0}), frozenset()))
    with pytest.raises(ValueError, match="non-empty"):
        Monitor(referenced)
    with pytest.raises(ValueError, match="non-empty"):
        attach_monitor(referenced)
    # an empty set the condition does not mention is harmless
    unreferenced = uv_automaton(Inf(0), acc_sets=(frozenset({0}), frozenset()))
    assert attach_monitor(unreferenced)[1].verdicts == (Verdict.UGLY, Verdict.UGLY)


def test_attach_monitor_refusals():
    nondet = Automaton(
        aps=("p",),
        num_states=2,
        initial=frozenset({0}),
        transitions=(Transition(0, TRUE, 0), Transition(0, TRUE, 1), Transition(1, TRUE, 1)),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    with pytest.raises(MonitorAttachError):
        attach_monitor(nondet)
    partial = Automaton(
        aps=("p",),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, Ap(0), 0),),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    with pytest.raises(MonitorAttachError):
        attach_monitor(partial)
    compiled, monitor = attach_monitor(partial, complete=True)
    completed = compiled.automaton
    assert len(completed.transitions) == 2
    assert monitor.automaton is completed
    # the labels the runner reads are the completed automaton's
    assert compiled.tables[0].leaves == {frozenset({0}), frozenset({1})}


def test_completing_at_attach_compiles_twice_in_the_callers_store(monkeypatch):
    # once for the checks and once for the completed automaton: completion
    # finds the uncovered states in the tables the checks read
    made = []
    real = Compiled.__init__

    def counted(self, automaton, store=None):
        made.append(automaton)
        real(self, automaton, store)

    monkeypatch.setattr(Compiled, "__init__", counted)
    (automaton,) = parse(load_fixture("deadlock.hoa")).automata
    store = Diagrams()
    compiled, monitor = attach_monitor(automaton, complete=True, store=store)
    assert len(made) == 2
    assert made[0] is automaton
    assert made[1] is compiled.automaton is monitor.automaton
    assert compiled.diagrams is store
    assert len(compiled.automaton.transitions) == 3
    assert is_complete(compiled)


def test_oracle_good_needs_all_infinity_sets():
    aut = uv_automaton(Inf(0), acc_sets=(frozenset({0, 1}),))
    # only realizable sets from 0: {1} and {0,1}; both intersect {0,1}
    assert oracle_verdict(aut, 0) is Verdict.GOOD


def test_oracle_size_cap():
    rng = Random(3)
    aut = random_det_complete_automaton(rng, max_states=8, max_aps=1)
    with pytest.raises(ValueError):
        VerdictOracle(aut, max_states=aut.num_states - 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_one_step_verdicts_sound_vs_oracle(seed):
    rng = Random(seed)
    aut = random_det_complete_automaton(rng, max_states=6, max_aps=2)
    graph = state_graph(aut)
    oracle = VerdictOracle(aut)
    for q in reachable_from(graph, next(iter(aut.initial))):
        mine = condition_verdict(graph, aut.condition, aut.acc_sets, q)
        if mine.conclusive:
            assert oracle.verdict(q) is mine


def test_bsccs_always_conclusive_for_elementary_conditions():
    rng = Random(2024)
    for _ in range(40):
        aut = random_det_complete_automaton(rng, max_states=6, max_aps=2)
        graph = state_graph(aut)
        for comp in bsccs(graph):
            for q in comp:
                for members in aut.acc_sets:
                    assert atom_verdict(Inf, graph, q, members).conclusive
                    assert atom_verdict(Fin, graph, q, members).conclusive


def test_compound_condition_verdicts():
    aut = uv_automaton(
        acc_or(Fin(0), Inf(1)),
        acc_sets=(frozenset({0}), frozenset({1})),
    )
    graph = state_graph(aut)
    # Fin({0}) at state 0 is ugly; Inf({1}) holds on every run from 0
    assert atom_verdict(Fin, graph, 0, aut.acc_sets[0]) is Verdict.UGLY
    assert atom_verdict(Inf, graph, 0, aut.acc_sets[1]) is Verdict.GOOD
    assert condition_verdict(graph, aut.condition, aut.acc_sets, 0) is Verdict.GOOD


def _no_proposition_automaton(succ, accepting) -> Automaton:
    return Automaton(
        aps=(),
        num_states=len(succ),
        initial=frozenset({0}),
        transitions=tuple(Transition(q, TRUE, t) for q, t in enumerate(succ)),
        acc_sets=(frozenset(accepting),),
        condition=Inf(0),
    )


# 100,000 states, far deeper than a recursive SCC search could go
DEEP = 100_000


def test_verdicts_on_a_chain_past_the_recursion_limit():
    n = DEEP
    chain = _no_proposition_automaton([min(q + 1, n - 1) for q in range(n)], {n - 1})
    graph = state_graph(chain)
    assert Monitor(chain).verdicts == (Verdict.UNKNOWN,) * (n - 1) + (Verdict.GOOD,)
    assert bsccs(graph) == [frozenset({n - 1})]
    assert min_trap_set_of(graph, 0) == frozenset(range(n))


def test_verdicts_on_a_cycle_past_the_recursion_limit():
    # one bottom SCC whose part outside {0} is acyclic: every run visits 0
    # infinitely often
    n = DEEP
    cycle = _no_proposition_automaton([(q + 1) % n for q in range(n)], {0})
    graph = state_graph(cycle)
    assert Monitor(cycle).verdicts == (Verdict.GOOD,) * n
    assert bsccs(graph) == [frozenset(range(n))]
    assert min_trap_set_of(graph, 0) == frozenset(range(n))
