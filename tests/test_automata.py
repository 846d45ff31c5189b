from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_valuations,
    brute_successors,
    random_det_complete_automaton,
    random_labelled_automaton,
)
from hoarun import replace
from hoarun.automata import (
    Automaton,
    Inf,
    StateGraph,
    Top,
    Transition,
    complete_by_stuttering,
    is_complete,
    is_deterministic,
    state_graph,
)
from hoarun.labels import TRUE, Ap, Not, Valuation, evaluate, land


def two_state(transitions, *, aps=("p",), initial=frozenset({0}), acc=(frozenset({0}),)):
    num = 1 + max(max(t.src for t in transitions), max(t.dst for t in transitions))
    return Automaton(
        aps=tuple(aps),
        num_states=num,
        initial=initial,
        transitions=tuple(transitions),
        acc_sets=tuple(acc),
        condition=Inf(0),
    )


def test_successors_label_split():
    aut = two_state([Transition(0, Ap(0), 1), Transition(0, Not(Ap(0)), 0), Transition(1, TRUE, 1)])
    assert brute_successors(aut, 0, Valuation(1, 1)) == frozenset({1})
    assert brute_successors(aut, 0, Valuation(0, 1)) == frozenset({0})


def test_successors_deadlock_is_empty_set():
    aut = two_state([Transition(0, Ap(0), 1)])
    assert brute_successors(aut, 1, Valuation(0, 1)) == frozenset()


def test_is_deterministic_cases():
    det = two_state([Transition(0, Ap(0), 1), Transition(0, Not(Ap(0)), 0), Transition(1, TRUE, 1)])
    assert is_deterministic(det)
    overlap = two_state(
        [Transition(0, Ap(0), 1), Transition(0, land(Ap(0), Ap(1)), 0)],
        aps=("p", "q"),
    )
    assert not is_deterministic(overlap)
    two_initial = two_state(
        [Transition(0, TRUE, 0), Transition(1, TRUE, 1)],
        initial=frozenset({0, 1}),
    )
    assert not is_deterministic(two_initial)


def test_is_complete_cases():
    complete = two_state(
        [Transition(0, Ap(0), 1), Transition(0, Not(Ap(0)), 0), Transition(1, TRUE, 1)]
    )
    assert is_complete(complete)
    partial = two_state([Transition(0, Ap(0), 1), Transition(1, TRUE, 1)])
    assert not is_complete(partial)
    deadlock = two_state([Transition(0, Ap(0), 1)])
    assert not is_complete(deadlock)


def test_stuttering_adds_complement_loop():
    aut = two_state([Transition(0, Ap(0), 1), Transition(1, TRUE, 1)])
    done = complete_by_stuttering(aut)
    added = set(done.transitions) - set(aut.transitions)
    assert added == {Transition(0, Not(Ap(0)), 0)}
    assert is_complete(done)


def test_stuttering_deadlock_state_gets_true_loop():
    aut = two_state([Transition(0, Ap(0), 1)])
    done = complete_by_stuttering(aut)
    assert Transition(1, TRUE, 1) in done.transitions
    assert is_complete(done)


def test_stuttering_identity_on_complete():
    aut = two_state(
        [Transition(0, Ap(0), 1), Transition(0, Not(Ap(0)), 0), Transition(1, TRUE, 1)]
    )
    done = complete_by_stuttering(aut)
    assert Counter(done.transitions) == Counter(aut.transitions)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_stuttering_idempotent_and_preserves_determinism(seed):
    rng = Random(seed)
    aut = _random_partial_automaton(rng)
    once = complete_by_stuttering(aut)
    twice = complete_by_stuttering(once)
    assert Counter(once.transitions) == Counter(twice.transitions)
    assert is_complete(once)
    if is_deterministic(aut):
        assert is_deterministic(once)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_checks_agree_with_brute_force_evaluate(seed):
    # random labels overlap and leave gaps; the reference walks every
    # valuation with the tree-walking evaluate
    rng = Random(seed)
    aut = random_labelled_automaton(rng, tuple(f"p{i}" for i in range(rng.randint(0, 3))))
    valuations = list(all_valuations(len(aut.aps)))
    leaving = [[t.label for t in aut.transitions if t.src == q] for q in range(aut.num_states)]
    deterministic = len(aut.initial) == 1 and not any(
        evaluate(a, v) and evaluate(b, v)
        for labels in leaving
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
        for v in valuations
    )
    complete = all(
        any(evaluate(label, v) for label in labels) for labels in leaving for v in valuations
    )
    assert is_deterministic(aut) == deterministic
    assert is_complete(aut) == complete
    done = complete_by_stuttering(aut)
    assert (done is aut) == complete
    for state in range(aut.num_states):
        for v in valuations:
            taken = brute_successors(aut, state, v)
            assert brute_successors(done, state, v) == (taken or frozenset({state}))


def _random_partial_automaton(rng: Random) -> Automaton:
    n = rng.randint(1, 5)
    ap_count = rng.randint(0, 3)
    transitions = []
    for state in range(n):
        for v in range(1 << ap_count):
            if rng.random() < 0.6:
                from hoarun.labels import minterm

                transitions.append(Transition(state, minterm(v, ap_count), rng.randrange(n)))
    return Automaton(
        aps=tuple(f"p{i}" for i in range(ap_count)),
        num_states=n,
        initial=frozenset({0}),
        transitions=tuple(transitions),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_det_complete_has_unique_successor_everywhere(seed):
    aut = random_det_complete_automaton(Random(seed), max_states=6, max_aps=3)
    for state in range(aut.num_states):
        for valuation in all_valuations(len(aut.aps)):
            assert len(brute_successors(aut, state, valuation)) == 1


def test_state_graph_erases_labels_and_dedupes():
    aut = two_state(
        [
            Transition(0, Ap(0), 1),
            Transition(0, Not(Ap(0)), 1),
            Transition(1, TRUE, 1),
        ]
    )
    graph = state_graph(aut)
    assert graph.succ == ((1,), (1,))
    assert graph.edge_count == 2


def test_validation_rejects_bad_structures():
    with pytest.raises(ValueError):
        Automaton(
            aps=("p",),
            num_states=1,
            initial=frozenset(),
            transitions=(),
            acc_sets=(),
            condition=Top(),
        )
    with pytest.raises(ValueError):
        Automaton(
            aps=("p",),
            num_states=1,
            initial=frozenset({0}),
            transitions=(Transition(0, Ap(4), 0),),
            acc_sets=(),
            condition=Top(),
        )
    with pytest.raises(ValueError):
        Automaton(
            aps=("p",),
            num_states=1,
            initial=frozenset({0}),
            transitions=(),
            acc_sets=(),
            condition=Inf(0),
        )
    with pytest.raises(ValueError):
        Automaton(
            aps=("p", "p"),
            num_states=1,
            initial=frozenset({0}),
            transitions=(),
            acc_sets=(),
            condition=Top(),
        )


def test_graph_from_edges():
    graph = StateGraph.from_edges(3, [(0, 1), (1, 1), (1, 2), (2, 2), (0, 1)])
    assert graph.succ == ((1,), (1, 2), (2,))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graph_matches_one_set_per_state(seed):
    rng = Random(seed)
    aut = random_labelled_automaton(rng, ("p", "q"), max_states=6)
    shuffled = list(aut.transitions)
    rng.shuffle(shuffled)
    aut = replace(aut, transitions=tuple(shuffled))
    # from_edges holds one set per state, all at once
    edges = [(t.src, t.dst) for t in aut.transitions]
    assert state_graph(aut) == StateGraph.from_edges(aut.num_states, edges)


def test_unsatisfiable_labels_stay_in_the_graph():
    # the graph view records the transition's existence, not the label's
    # satisfiability; such an edge can never be taken when stepping
    from hoarun.labels import FALSE

    aut = two_state([Transition(0, FALSE, 1), Transition(0, TRUE, 0), Transition(1, TRUE, 1)])
    assert state_graph(aut).succ == ((0, 1), (1,))
    assert brute_successors(aut, 0, Valuation(0, 1)) == frozenset({0})
    assert brute_successors(aut, 0, Valuation(1, 1)) == frozenset({0})
