"""Shared test utilities: brute-force oracles and random-instance generators.

The brute-force functions deliberately avoid the package's graph
machinery (other than the StateGraph container) so they can serve as
independent references.
"""

from __future__ import annotations

from random import Random
from typing import Iterable

from hoarun.automata import (
    AccAnd,
    AccOr,
    AcceptanceCond,
    Automaton,
    Bot,
    Compiled,
    Fin,
    Inf,
    StateGraph,
    Top,
    Transition,
)
from hoarun.labels import (
    FALSE,
    TRUE,
    And,
    Ap,
    Diagrams,
    LabelExpr,
    LabelTable,
    Not,
    Or,
    Valuation,
    evaluate,
    lor,
    minterm,
)


# ---------------------------------------------------------------------------
# Small constructors and readings that the package does not need


def graph_from_edges(num_states: int, edges: Iterable[tuple[int, int]]) -> StateGraph:
    """The graph with exactly ``edges``, built with one set per state at
    once: the reference for :func:`hoarun.automata.state_graph`."""
    out: list[set[int]] = [set() for _ in range(num_states)]
    for src, dst in edges:
        out[src].add(dst)
    return StateGraph(num_states, tuple(tuple(sorted(s)) for s in out))


def edge_count(graph: StateGraph) -> int:
    return sum(len(s) for s in graph.succ)


def valuation_from_bools(values: Iterable[bool]) -> Valuation:
    """The valuation whose bit i is ``values``' element i."""
    bits = width = 0
    for width, value in enumerate(values, start=1):
        if value:
            bits |= 1 << (width - 1)
    return Valuation(bits, width)


def atom_verdict(atom, index, graph: StateGraph, state: int, acc_states: Iterable[int]):
    """One-step verdict at ``state`` for ``atom(0)``, ``Inf(0)`` or
    ``Fin(0)``, over the one acceptance set ``acc_states``."""
    from hoarun.monitoring import condition_verdict

    return condition_verdict(index, graph, atom(0), (frozenset(acc_states),), state)


def compiled_in_one_store(automata: Iterable[Automaton]) -> list[Compiled]:
    """Each automaton's :class:`Compiled`, all in one new store, as ``run``
    compiles them for its runners."""
    store = Diagrams()
    return [Compiled(automaton, store) for automaton in automata]


# ---------------------------------------------------------------------------
# Brute-force trap-set oracles (2**n subset scans)


def brute_trap_sets(graph: StateGraph) -> list[frozenset[int]]:
    """All non-empty state sets closed under the edge relation."""
    n = graph.num_states
    traps = []
    for mask in range(1, 1 << n):
        members = {q for q in range(n) if mask >> q & 1}
        closed = all(t in members for q in members for t in graph.succ[q])
        if closed:
            traps.append(frozenset(members))
    return traps


def brute_minimal_traps(graph: StateGraph) -> set[frozenset[int]]:
    traps = brute_trap_sets(graph)
    return {
        t for t in traps if not any(other < t for other in traps)
    }


def brute_least_trap_containing(graph: StateGraph, state: int) -> frozenset[int]:
    """Subset-least trap set containing ``state``; asserts it is unique."""
    containing = [t for t in brute_trap_sets(graph) if state in t]
    least = min(containing, key=len)
    assert all(least <= t for t in containing)
    return least


def brute_has_cycle(graph: StateGraph, members: frozenset[int]) -> bool:
    """True iff some member reaches itself without leaving ``members``."""
    for start in members:
        seen: set[int] = set()
        frontier = [t for t in graph.succ[start] if t in members]
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(t for t in graph.succ[node] if t in members)
    return False


def brute_trap_verdict(
    graph: StateGraph,
    cond: AcceptanceCond,
    acc_sets: tuple[frozenset[int], ...],
    state: int,
):
    """One-step verdict at ``state``, straight from the trap-set definition.

    With T the least trap set containing ``state`` (found by subset scan):
    Inf(k) is good if T lies inside set k, bad if T misses it, and when T
    is a minimal trap set, good if T minus set k is acyclic and ugly
    otherwise; anything else is unknown. Fin(k) swaps good and bad, and
    compound conditions fold through the package's combination tables.
    """
    from hoarun.monitoring import Verdict, combine_and, combine_or, swap_good_bad

    trap = brute_least_trap_containing(graph, state)
    minimal = trap in brute_minimal_traps(graph)

    def inf(acc: frozenset[int]) -> Verdict:
        if trap <= acc:
            return Verdict.GOOD
        if not trap & acc:
            return Verdict.BAD
        if minimal:
            return Verdict.UGLY if brute_has_cycle(graph, trap - acc) else Verdict.GOOD
        return Verdict.UNKNOWN

    def fold(node: AcceptanceCond) -> Verdict:
        if isinstance(node, Top):
            return Verdict.GOOD
        if isinstance(node, Bot):
            return Verdict.BAD
        if isinstance(node, Inf):
            return inf(acc_sets[node.set_index])
        if isinstance(node, Fin):
            return swap_good_bad(inf(acc_sets[node.set_index]))
        out = Verdict.GOOD if isinstance(node, AccAnd) else Verdict.BAD
        combine = combine_and if isinstance(node, AccAnd) else combine_or
        for child in node.children:
            out = combine(out, fold(child))
        return out

    return fold(cond)


# ---------------------------------------------------------------------------
# Independent SCC reference (Kosaraju, recursive-free)


def kosaraju_sccs(graph: StateGraph) -> set[frozenset[int]]:
    n = graph.num_states
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen[root] = True
        while stack:
            node, pos = stack[-1]
            if pos < len(graph.succ[node]):
                stack[-1] = (node, pos + 1)
                child = graph.succ[node][pos]
                if not seen[child]:
                    seen[child] = True
                    stack.append((child, 0))
            else:
                order.append(node)
                stack.pop()
    pred: list[list[int]] = [[] for _ in range(n)]
    for q in range(n):
        for t in graph.succ[q]:
            pred[t].append(q)
    assigned = [False] * n
    comps: set[frozenset[int]] = set()
    for root in reversed(order):
        if assigned[root]:
            continue
        comp = [root]
        assigned[root] = True
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for p in pred[node]:
                if not assigned[p]:
                    assigned[p] = True
                    comp.append(p)
                    frontier.append(p)
        comps.add(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# Random instances


def random_graph(rng: Random, max_states: int = 10) -> StateGraph:
    n = rng.randint(1, max_states)
    density = rng.choice((0.08, 0.2, 0.35, 0.6))
    edges = [
        (q, t) for q in range(n) for t in range(n) if rng.random() < density
    ]
    return graph_from_edges(n, edges)


def random_condition(rng: Random, set_count: int, depth: int) -> AcceptanceCond:
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.05:
            return Top()
        if roll < 0.1:
            return Bot()
        index = rng.randrange(set_count)
        return Fin(index) if rng.random() < 0.5 else Inf(index)
    node = AccAnd if rng.random() < 0.5 else AccOr
    return node(
        (
            random_condition(rng, set_count, depth - 1),
            random_condition(rng, set_count, depth - 1),
        )
    )


def random_det_complete_automaton(
    rng: Random, max_states: int = 8, max_aps: int = 3, cond_depth: int = 3
) -> Automaton:
    """Deterministic complete automaton built from a random successor table.

    For every state the valuations mapping to the same target are merged
    into one edge labeled by the disjunction of their minterms, so the
    labels leaving a state partition the alphabet by construction.
    """
    n = rng.randint(1, max_states)
    ap_count = rng.randint(0, max_aps)
    aps = tuple(f"p{i}" for i in range(ap_count))
    transitions = []
    for state in range(n):
        by_target: dict[int, list[int]] = {}
        for v in range(1 << ap_count):
            by_target.setdefault(rng.randrange(n), []).append(v)
        for target, valuations in sorted(by_target.items()):
            label = lor(*(minterm(v, ap_count) for v in valuations))
            transitions.append(Transition(state, label, target))
    set_count = rng.randint(1, 3)
    acc_sets = []
    for _ in range(set_count):
        size = rng.randint(1, n)
        acc_sets.append(frozenset(rng.sample(range(n), size)))
    return Automaton(
        aps=aps,
        num_states=n,
        initial=frozenset({rng.randrange(n)}),
        transitions=tuple(transitions),
        acc_sets=tuple(acc_sets),
        condition=random_condition(rng, set_count, cond_depth),
    )


def random_label(rng: Random, ap_count: int, depth: int = 2) -> LabelExpr:
    """Random formula over ``ap_count`` propositions.

    Constants and contradictions such as ``p & !p`` occur, so a label may
    be unsatisfiable or hold everywhere.
    """
    if depth == 0 or rng.random() < 0.3:
        if ap_count == 0 or rng.random() < 0.15:
            return rng.choice((TRUE, FALSE))
        return Ap(rng.randrange(ap_count))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_label(rng, ap_count, depth - 1))
    children = tuple(random_label(rng, ap_count, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(children) if kind == 1 else Or(children)


def random_labelled_automaton(
    rng: Random, aps: tuple[str, ...], max_states: int = 4
) -> Automaton:
    """Automaton with random labels and targets, zero to three edges a state.

    Labels overlap (nondeterminism) and leave gaps (incompleteness), some
    states have no edge at all, and now and then two states are initial.
    """
    n = rng.randint(1, max_states)
    transitions = tuple(
        Transition(state, random_label(rng, len(aps)), rng.randrange(n))
        for state in range(n)
        for _ in range(rng.randint(0, 3))
    )
    initial = frozenset(rng.sample(range(n), 2 if n > 1 and rng.random() < 0.2 else 1))
    return Automaton(
        aps=aps,
        num_states=n,
        initial=initial,
        transitions=transitions,
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )


def brute_successors(automaton: Automaton, state: int, valuation: Valuation) -> frozenset[int]:
    """Targets of the transitions from ``state`` whose label holds under
    ``valuation``, by the tree-walking :func:`evaluate`.

    An empty result is a deadlock, more than one element nondeterminism.
    """
    return frozenset(
        t.dst
        for t in automaton.transitions
        if t.src == state and evaluate(t.label, valuation)
    )


def reachable_from(graph: StateGraph, state: int) -> set[int]:
    seen = {state}
    frontier = [state]
    while frontier:
        node = frontier.pop()
        for t in graph.succ[node]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def pairwise_disjoint(labels, ap_count: int) -> bool:
    """True iff no valuation satisfies two of the labels: their
    :class:`LabelTable` in a store of their own answers."""
    return LabelTable(Diagrams(), labels).disjoint(ap_count)


def covers_all(labels, ap_count: int) -> bool:
    """True iff every valuation satisfies one of the labels, as above."""
    return LabelTable(Diagrams(), labels).covering(ap_count)


def all_valuations(ap_count: int):
    for bits in range(1 << ap_count):
        yield Valuation(bits, ap_count)


# ---------------------------------------------------------------------------
# Structural equality, apart from the labels' own


def same_labels(first: LabelExpr, second: LabelExpr) -> bool:
    """``first == second`` for labels, compared pair by pair from an
    explicit stack: the reference that ``LabelExpr.__eq__`` is checked
    against, and that checks parsed labels without it."""
    stack = [(first, second)]
    seen: set[tuple[int, int]] = set()
    while stack:
        a, b = stack.pop()
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if type(a) is not type(b):
            return False
        if isinstance(a, Not):
            stack.append((a.child, b.child))
        elif isinstance(a, (And, Or)):
            if len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        elif isinstance(a, Ap) and a.index != b.index:
            return False
    return True
