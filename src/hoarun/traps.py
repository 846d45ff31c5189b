"""Strongly connected components and minimal trap sets.

A trap set is a non-empty state set closed under the transition relation:
once a run enters it, it can never leave. The smallest trap set containing
a state q is the set of states reachable from q; it is minimal exactly
when q's component is a bottom SCC. :func:`build_index` lists the
components sinks first, as Tarjan's algorithm emits them, so one pass in
that order folds a property of everything each component reaches.
"""

from __future__ import annotations

from typing import Iterable

from .automata import StateGraph


def build_index(graph: StateGraph) -> list[list[int]]:
    """The SCCs of ``graph`` as lists of states, sinks first.

    For each edge q -> t, t's component is q's or one listed before it.
    Linear in states plus edges; raises ``ValueError`` on an empty graph.
    """
    # Tarjan with an explicit work stack; recursion would overflow on long chains.
    n = graph.num_states
    if n == 0:
        raise ValueError("cannot index an empty graph")
    succ = graph.succ
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            q, child_pos = frame
            if child_pos == 0:
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack[q] = True
            descended = False
            children = succ[q]
            while frame[1] < len(children):
                t = children[frame[1]]
                frame[1] += 1
                if index[t] == -1:
                    work.append([t, 0])
                    descended = True
                    break
                if on_stack[t]:
                    low[q] = min(low[q], index[t])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])
            if low[q] == index[q]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == q:
                        break
                comps.append(comp)
    return comps


def min_trap_set_of(graph: StateGraph, state: int) -> frozenset[int]:
    """Smallest trap set containing ``state``: the states reachable from it.

    The set is trivial when it holds an initial state, and minimal when it
    is one of :func:`bsccs`.
    """
    if not 0 <= state < graph.num_states:
        raise ValueError(f"unknown state {state}")
    seen = {state}
    stack = [state]
    while stack:
        for t in graph.succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def bsccs(graph: StateGraph) -> list[frozenset[int]]:
    """Components that no edge leaves, sinks first."""
    components = (frozenset(comp) for comp in build_index(graph))
    return [c for c in components if all(t in c for q in c for t in graph.succ[q])]


def is_transient(graph: StateGraph, states: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``states`` is acyclic.

    Self-loops count as cycles; the empty set is vacuously transient.
    Every run keeps leaving an acyclic region, so such a region can never
    hold the infinity set of a run.
    """
    members = set(states)
    if not members:
        return True
    indegree = {q: 0 for q in members}
    for q in members:
        for t in graph.succ[q]:
            if t in members:
                indegree[t] += 1
    queue = [q for q in members if indegree[q] == 0]
    seen = 0
    while queue:
        q = queue.pop()
        seen += 1
        for t in graph.succ[q]:
            if t in members:
                indegree[t] -= 1
                if indegree[t] == 0:
                    queue.append(t)
    return seen == len(members)
