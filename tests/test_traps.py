from concurrent.futures import ThreadPoolExecutor
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_has_cycle,
    brute_least_trap_containing,
    brute_minimal_traps,
    brute_successors,
    brute_trap_sets,
    graph_from_edges,
    kosaraju_sccs,
    random_det_complete_automaton,
    random_graph,
)
from hoarun.automata import StateGraph, state_graph
from hoarun.labels import Valuation
from hoarun.traps import build_index, bsccs, is_transient, min_trap_set_of

# Graph shapes mirroring the two worked examples: a chain of three states
# with self-loops on the last two, and a two-state cycle with an escape to
# a sink.
FIG_A = graph_from_edges(3, [(0, 1), (1, 1), (1, 2), (2, 2)])
FIG_B = graph_from_edges(3, [(0, 1), (1, 0), (1, 1), (0, 2), (2, 2)])


def _bottoms_by_sets(graph, components):
    # the condensation with one set of successor components per component,
    # all held at once: its sinks are the bottom SCCs
    comp_of = {q: comp for comp in components for q in comp}
    return {
        comp for comp in components
        if not {comp_of[t] for q in comp for t in graph.succ[q]} - {comp}
    }


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bsccs_match_the_condensation_by_sets(seed):
    graph = random_graph(Random(seed), max_states=12)
    assert set(bsccs(graph)) == _bottoms_by_sets(graph, kosaraju_sccs(graph))


def test_components_fig_a():
    assert build_index(FIG_A) == [[2], [1], [0]]


def test_components_fig_b():
    assert [frozenset(comp) for comp in build_index(FIG_B)] == [
        frozenset({2}), frozenset({0, 1}),
    ]


def test_single_state_no_edges():
    graph = graph_from_edges(1, [])
    assert build_index(graph) == [[0]]
    assert bsccs(graph) == [frozenset({0})]
    assert min_trap_set_of(graph, 0) == frozenset({0})


def test_min_trap_set_fig_a():
    trap = min_trap_set_of(FIG_A, 1)
    assert trap == frozenset({1, 2})
    # neither minimal nor trivial: not a bottom SCC, and 0 is the initial state
    assert trap not in bsccs(FIG_A) and 0 not in trap
    minimal = min_trap_set_of(FIG_A, 2)
    assert minimal == frozenset({2}) and minimal in bsccs(FIG_A)


def test_min_trap_set_fig_b_trivial():
    # brute-force check, then the frozen expectation
    assert brute_least_trap_containing(FIG_B, 0) == frozenset({0, 1, 2})
    trap = min_trap_set_of(FIG_B, 0)
    assert trap == frozenset({0, 1, 2})
    assert trap not in bsccs(FIG_B)
    assert 0 in trap  # trivial: it holds the initial state


def test_min_trap_set_unknown_state():
    for state in (9, 3, -1):
        with pytest.raises(ValueError):
            min_trap_set_of(FIG_A, state)


def test_bsccs_examples():
    assert bsccs(FIG_A) == [frozenset({2})]
    assert bsccs(FIG_B) == [frozenset({2})]
    complete3 = graph_from_edges(3, [(i, j) for i in range(3) for j in range(3)])
    assert bsccs(complete3) == [frozenset({0, 1, 2})]
    # in the order Tarjan's algorithm emits them, not by smallest member
    three_sinks = graph_from_edges(4, [(0, 3), (0, 1), (1, 1), (3, 3), (2, 2)])
    assert bsccs(three_sinks) == [frozenset({1}), frozenset({3}), frozenset({2})]


def test_is_transient_fig_b():
    assert is_transient(FIG_B, {0}) is True
    assert is_transient(FIG_B, {1}) is False
    assert is_transient(FIG_B, {0, 1}) is False
    assert is_transient(FIG_B, set()) is True


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        build_index(StateGraph(0, ()))
    with pytest.raises(ValueError):
        bsccs(StateGraph(0, ()))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_sccs_match_kosaraju(seed):
    graph = random_graph(Random(seed), max_states=9)
    components = build_index(graph)
    assert {frozenset(comp) for comp in components} == kosaraju_sccs(graph)
    assert sorted(q for comp in components for q in comp) == list(range(graph.num_states))
    # sinks first: every edge stays in its component or leads to one
    # emitted before it, which is what a fold in emission order relies on
    emitted = {q: c for c, comp in enumerate(components) for q in comp}
    for q in range(graph.num_states):
        for t in graph.succ[q]:
            assert emitted[t] <= emitted[q]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_minimal_traps_are_bsccs(seed):
    graph = random_graph(Random(seed), max_states=8)
    assert set(bsccs(graph)) == brute_minimal_traps(graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_min_trap_is_brute_force_least(seed):
    graph = random_graph(Random(seed), max_states=7)
    for q in range(graph.num_states):
        assert min_trap_set_of(graph, q) == brute_least_trap_containing(graph, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_trap_sets_are_closed(seed):
    graph = random_graph(Random(seed), max_states=9)
    bottoms = set(bsccs(graph))
    minimal = brute_minimal_traps(graph)
    for q in range(graph.num_states):
        trap = min_trap_set_of(graph, q)
        assert q in trap
        for member in trap:
            assert set(graph.succ[member]) <= trap
        assert (trap in bottoms) == (trap in minimal)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_transient_iff_induced_acyclic(seed):
    rng = Random(seed)
    graph = random_graph(rng, max_states=7)
    n = graph.num_states
    members = frozenset(q for q in range(n) if rng.random() < 0.5)
    has_cycle = brute_has_cycle(graph, members)
    assert is_transient(graph, members) == (not has_cycle)


def test_run_never_leaves_minimal_trap():
    # once a simulated run enters the smallest trap set of some state, it
    # stays there for the remaining steps
    rng = Random(1234)
    for _ in range(20):
        aut = random_det_complete_automaton(rng, max_states=6, max_aps=2)
        graph = state_graph(aut)
        state = next(iter(aut.initial))
        trap = min_trap_set_of(graph, state)
        for _ in range(10_000 // 20):
            bits = rng.randrange(1 << len(aut.aps))
            (state,) = brute_successors(aut, state, Valuation(bits, len(aut.aps)))
            assert state in trap
            trap = min_trap_set_of(graph, state)


def test_brute_trap_family_contains_full_state_set():
    for graph in (FIG_A, FIG_B):
        assert frozenset(range(graph.num_states)) in brute_trap_sets(graph)


def test_concurrent_queries_are_consistent():
    graph = random_graph(Random(99), max_states=10)
    expected = [min_trap_set_of(graph, q) for q in range(graph.num_states)]

    def query(q):
        return min_trap_set_of(graph, q)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(20):
            results = list(pool.map(query, range(graph.num_states)))
            assert results == expected
