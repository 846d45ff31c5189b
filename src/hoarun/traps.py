"""Strongly connected components, condensation, and minimal trap sets.

A trap set is a non-empty state set closed under the transition relation:
once a run enters it, it can never leave. The smallest trap set containing
a state q is the union of the components reachable from q's component in
the condensation; it is minimal exactly when that component is a bottom
SCC.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .automata import StateGraph
from .records import record


@record
class TrapSet:
    """Smallest trap set containing some queried state.

    ``components`` lists the SCCs whose union it is, sorted by index;
    ``minimal`` holds iff there is exactly one (a bottom SCC); ``trivial``
    holds iff the set contains an initial state.
    """

    states: frozenset[int]
    components: tuple[frozenset[int], ...]
    minimal: bool
    trivial: bool


class TrapIndex:
    """SCC decomposition of a state graph and its condensation.

    Components are numbered by their smallest member state. ``order``
    lists the component numbers sinks first, as Tarjan's algorithm emits
    them: each component comes after every other component it reaches, so
    one pass in that order can fold a property of everything it reaches.
    The index is immutable once built.
    """

    __slots__ = ("graph", "components", "state_to_comp", "comp_succ", "order", "initial")

    def __init__(
        self,
        graph: StateGraph,
        components: tuple[frozenset[int], ...],
        state_to_comp: tuple[int, ...],
        comp_succ: tuple[tuple[int, ...], ...],
        order: tuple[int, ...],
        initial: frozenset[int],
    ) -> None:
        self.graph = graph
        self.components = components
        self.state_to_comp = state_to_comp
        self.comp_succ = comp_succ
        self.order = order
        self.initial = initial

    def reachable_comps(self, comp: int) -> frozenset[int]:
        """Component indices reachable from ``comp`` in the condensation, inclusive."""
        seen = {comp}
        stack = [comp]
        while stack:
            current = stack.pop()
            for nxt in self.comp_succ[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)


def _scc_iterative(graph: StateGraph) -> list[list[int]]:
    # Tarjan with an explicit work stack; recursion would overflow on long chains.
    n = graph.num_states
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


def build_index(graph: StateGraph, initial: Iterable[int] = ()) -> TrapIndex:
    """Decompose ``graph`` into SCCs and build the condensation.

    Runs in time linear in states plus edges. ``initial`` is only used to
    flag queried trap sets as trivial.
    """
    if graph.num_states == 0:
        raise ValueError("cannot index an empty graph")
    emitted = _scc_iterative(graph)
    ranked = sorted(range(len(emitted)), key=lambda i: min(emitted[i]))
    components = tuple(frozenset(emitted[i]) for i in ranked)
    order = [0] * len(emitted)  # order[i]: number of the i-th component emitted
    for ci, i in enumerate(ranked):
        order[i] = ci
    state_to_comp = [0] * graph.num_states
    for ci, comp in enumerate(components):
        for q in comp:
            state_to_comp[q] = ci
    succ = graph.succ
    comp_succ = []  # one component's set of successors at a time
    for ci, comp in enumerate(components):
        reached = {state_to_comp[t] for q in comp for t in succ[q]}
        reached.discard(ci)
        comp_succ.append(tuple(sorted(reached)))
    return TrapIndex(
        graph, components, tuple(state_to_comp), tuple(comp_succ), tuple(order), frozenset(initial)
    )


def min_trap_set_of(index: TrapIndex, state: int) -> TrapSet:
    """Smallest trap set containing ``state``."""
    if not 0 <= state < index.graph.num_states:
        raise ValueError(f"unknown state {state}")
    comp_ids = sorted(index.reachable_comps(index.state_to_comp[state]))
    components = tuple(index.components[c] for c in comp_ids)
    states = frozenset().union(*components)
    return TrapSet(
        states=states,
        components=components,
        minimal=len(components) == 1,
        trivial=bool(states & index.initial),
    )


def reach_masks(
    index: TrapIndex, acc_sets: Sequence[Iterable[int]]
) -> tuple[list[int], list[int]]:
    """Per component, what its smallest trap set shares with ``acc_sets``.

    Returns ``(every, some)``: bit k of ``every[c]`` is set iff every
    state reachable from component c lies in ``acc_sets[k]``, and bit k of
    ``some[c]`` iff at least one does. One pass over the condensation,
    sinks first, so the whole table costs time linear in states plus
    condensation edges.
    """
    member = [0] * index.graph.num_states
    for k, states in enumerate(acc_sets):
        for q in states:
            member[q] |= 1 << k
    every = [0] * len(index.components)
    some = [0] * len(index.components)
    full = (1 << len(acc_sets)) - 1
    for c in index.order:
        all_in, any_in = full, 0
        for q in index.components[c]:
            all_in &= member[q]
            any_in |= member[q]
        for d in index.comp_succ[c]:
            all_in &= every[d]
            any_in |= some[d]
        every[c] = all_in
        some[c] = any_in
    return every, some


def bsccs(index: TrapIndex) -> list[frozenset[int]]:
    """Components no condensation edge leaves, in index order."""
    return [
        index.components[c]
        for c in range(len(index.components))
        if not index.comp_succ[c]
    ]


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
