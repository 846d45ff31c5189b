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


def _comp_succ_by_sets(graph, state_to_comp, count):
    # the construction with one set per component, all held at once
    edges = [set() for _ in range(count)]
    for q in range(graph.num_states):
        for t in graph.succ[q]:
            if state_to_comp[q] != state_to_comp[t]:
                edges[state_to_comp[q]].add(state_to_comp[t])
    return tuple(tuple(sorted(e)) for e in edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_condensation_matches_one_set_per_component(seed):
    graph = random_graph(Random(seed), max_states=12)
    index = build_index(graph)
    count = len(index.components)
    assert index.comp_succ == _comp_succ_by_sets(graph, index.state_to_comp, count)


def test_components_fig_a():
    index = build_index(FIG_A, initial={0})
    assert index.components == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert index.comp_succ == ((1,), (2,), ())


def test_components_fig_b():
    index = build_index(FIG_B, initial={0})
    assert index.components == (frozenset({0, 1}), frozenset({2}))
    assert index.comp_succ == ((1,), ())


def test_single_state_no_edges():
    index = build_index(graph_from_edges(1, []))
    assert index.components == (frozenset({0}),)
    assert index.comp_succ == ((),)


def test_min_trap_set_fig_a():
    index = build_index(FIG_A, initial={0})
    trap = min_trap_set_of(index, 1)
    assert trap.states == frozenset({1, 2})
    assert not trap.minimal and not trap.trivial
    assert trap.components == (frozenset({1}), frozenset({2}))
    minimal = min_trap_set_of(index, 2)
    assert minimal.states == frozenset({2}) and minimal.minimal


def test_min_trap_set_fig_b_trivial():
    # brute-force check, then the frozen expectation
    assert brute_least_trap_containing(FIG_B, 0) == frozenset({0, 1, 2})
    index = build_index(FIG_B, initial={0})
    trap = min_trap_set_of(index, 0)
    assert trap.states == frozenset({0, 1, 2})
    assert not trap.minimal
    assert trap.trivial


def test_min_trap_set_unknown_state():
    index = build_index(FIG_A)
    with pytest.raises(ValueError):
        min_trap_set_of(index, 9)


def test_bsccs_examples():
    assert bsccs(build_index(FIG_A)) == [frozenset({2})]
    assert bsccs(build_index(FIG_B)) == [frozenset({2})]
    complete3 = graph_from_edges(3, [(i, j) for i in range(3) for j in range(3)])
    assert bsccs(build_index(complete3)) == [frozenset({0, 1, 2})]


def test_is_transient_fig_b():
    assert is_transient(FIG_B, {0}) is True
    assert is_transient(FIG_B, {1}) is False
    assert is_transient(FIG_B, {0, 1}) is False
    assert is_transient(FIG_B, set()) is True


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        build_index(StateGraph(0, ()))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_sccs_match_kosaraju(seed):
    graph = random_graph(Random(seed), max_states=9)
    index = build_index(graph)
    assert set(index.components) == kosaraju_sccs(graph)
    # sinks first: every component comes after each component it reaches
    position = {c: i for i, c in enumerate(index.order)}
    assert sorted(position) == list(range(len(index.components)))
    for c, succ in enumerate(index.comp_succ):
        assert all(position[d] < position[c] for d in succ)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_minimal_traps_are_bsccs(seed):
    graph = random_graph(Random(seed), max_states=8)
    index = build_index(graph)
    assert set(bsccs(index)) == brute_minimal_traps(graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_min_trap_is_brute_force_least(seed):
    graph = random_graph(Random(seed), max_states=7)
    index = build_index(graph)
    for q in range(graph.num_states):
        assert min_trap_set_of(index, q).states == brute_least_trap_containing(graph, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_trap_sets_are_closed(seed):
    graph = random_graph(Random(seed), max_states=9)
    index = build_index(graph)
    for q in range(graph.num_states):
        trap = min_trap_set_of(index, q)
        assert q in trap.states
        for member in trap.states:
            assert set(graph.succ[member]) <= trap.states
        assert trap.minimal == (len(trap.components) == 1)


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
        index = build_index(graph, aut.initial)
        state = next(iter(aut.initial))
        trap = min_trap_set_of(index, state).states
        for _ in range(10_000 // 20):
            bits = rng.randrange(1 << len(aut.aps))
            (state,) = brute_successors(aut, state, Valuation(bits, len(aut.aps)))
            assert state in trap
            trap = min_trap_set_of(index, state).states


def test_brute_trap_family_contains_full_state_set():
    for graph in (FIG_A, FIG_B):
        assert frozenset(range(graph.num_states)) in brute_trap_sets(graph)


def test_concurrent_queries_are_consistent():
    graph = random_graph(Random(99), max_states=10)
    index = build_index(graph)
    expected = [min_trap_set_of(index, q) for q in range(graph.num_states)]

    def query(q):
        return min_trap_set_of(index, q)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(20):
            results = list(pool.map(query, range(graph.num_states)))
            assert results == expected
