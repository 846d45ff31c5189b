"""Core automaton model: states, labeled transitions, acceptance conditions.

States are dense integers 0..n-1. Acceptance-set membership is recorded
per state; the acceptance condition is a positive Boolean combination of
Fin/Inf atoms over acceptance-set indices.
"""

from __future__ import annotations

from .labels import (
    TRUE,
    Diagrams,
    LabelExpr,
    LabelTable,
    Not,
    chain,
    gathered,
    lor,
    occurring_aps,
)
from .records import Uncompared, record, replace, set_field


class AcceptanceCond:
    """Base class for acceptance condition nodes."""

    __slots__ = ()


@record
class Top(AcceptanceCond):
    pass


@record
class Bot(AcceptanceCond):
    pass


@record
class Fin(AcceptanceCond):
    set_index: int


@record
class Inf(AcceptanceCond):
    set_index: int


@record
class AccAnd(AcceptanceCond):
    children: tuple[AcceptanceCond, ...]


@record
class AccOr(AcceptanceCond):
    children: tuple[AcceptanceCond, ...]


TOP = Top()
BOT = Bot()


def acc_and(*children: AcceptanceCond) -> AcceptanceCond:
    return chain(AccAnd, children, TOP)


def acc_or(*children: AcceptanceCond) -> AcceptanceCond:
    return chain(AccOr, children, BOT)


def acc_set_refs(cond: AcceptanceCond) -> frozenset[int]:
    """All acceptance-set indices referenced by a condition."""
    return gathered((cond,), (Fin, Inf), "set_index")


@record
class Transition:
    src: int
    label: LabelExpr
    dst: int

    def __init__(self, src: int, label: LabelExpr, dst: int):  # built per edge
        set_field(self, "src", src)
        set_field(self, "label", label)
        set_field(self, "dst", dst)


@record
class Automaton:
    """Immutable automaton over Boolean-formula transition labels.

    ``acc_sets[k]`` is the set of states belonging to acceptance set k.
    ``display_ids`` maps internal state numbers back to the identifiers
    used in the source text; it does not take part in equality.
    """

    aps: tuple[str, ...]
    num_states: int
    initial: frozenset[int]
    transitions: tuple[Transition, ...]
    acc_sets: tuple[frozenset[int], ...]
    condition: AcceptanceCond
    name: str | None = None
    acc_name: str | None = None
    tool: tuple[str, ...] | None = None
    properties: tuple[str, ...] = ()
    display_ids: tuple[int, ...] | None = Uncompared(None)

    def __post_init__(self) -> None:
        if len(set(self.aps)) != len(self.aps):
            raise ValueError("atomic proposition names must be unique")
        if not self.initial:
            raise ValueError("at least one initial state is required")
        states = range(self.num_states)
        if not self.initial <= set(states):
            raise ValueError("initial state outside declared state range")
        for t in self.transitions:
            if t.src not in states or t.dst not in states:
                raise ValueError(f"transition {t.src}->{t.dst} outside state range")
        bad_ap = occurring_aps(*(t.label for t in self.transitions)) - set(
            range(len(self.aps))
        )
        if bad_ap:
            raise ValueError(f"label references undeclared proposition {min(bad_ap)}")
        for k, members in enumerate(self.acc_sets):
            if not members <= set(states):
                raise ValueError(f"acceptance set {k} contains unknown state")
        bad_ref = acc_set_refs(self.condition) - set(range(len(self.acc_sets)))
        if bad_ref:
            raise ValueError(f"condition references undeclared set {min(bad_ref)}")

    def display_id(self, state: int) -> int:
        return state if self.display_ids is None else self.display_ids[state]


@record
class StateGraph:
    """Label-erased view of the transition relation."""

    num_states: int
    succ: tuple[tuple[int, ...], ...]


def state_graph(automaton: Automaton) -> StateGraph:
    """Graph with an edge (q, q') iff some transition connects q to q'.

    The targets of one run of transitions from the same source are
    gathered at a time, so that one set is held, not one per state; a
    parsed automaton lists its transitions by source, one run each."""
    succ: list[tuple[int, ...]] = [()] * automaton.num_states
    q, targets = -1, set()
    for t in automaton.transitions:
        if t.src != q:
            if targets:
                succ[q] = tuple(sorted(targets.union(succ[q])))
            q, targets = t.src, set()
        targets.add(t.dst)
    if targets:
        succ[q] = tuple(sorted(targets.union(succ[q])))
    return StateGraph(automaton.num_states, tuple(succ))


class Compiled:
    """An automaton's labels compiled once, at load, into decision diagrams
    in ``store`` (:class:`labels.Diagrams`), a new one when none is
    given: the one form that the checks, completion, the monitor's attach
    and the runners read. One store serves a whole ``run`` or ``check``
    invocation: the labels, state tables and exit cubes that automata
    share are built in it once, through its caches, and the node budget
    still holds per build step.

    ``edges[q]`` holds the transitions leaving state q, in order, and
    ``tables[q]`` their labels' :class:`labels.LabelTable`, one for the
    states, of any automaton in the store, whose labels are the same
    objects; its leaves are sets of positions in ``edges[q]``, and
    ``targets[q]`` maps each to the sorted distinct targets of its
    transitions, ``unique[t]`` for t alone.
    ``exits[q]`` is the cubes outside which every input leads from q back
    to q: for each label leaving q for another state, its hull, or its
    paths when the hull holds every input. It is None when q's labels
    leave an input without a transition, or have no table, or such a
    label has more paths than nodes.
    """

    def __init__(self, automaton: Automaton, store: Diagrams | None = None):
        self.automaton = automaton
        store = self.diagrams = Diagrams() if store is None else store
        edges: list[list[Transition]] = [[] for _ in range(automaton.num_states)]
        for t in automaton.transitions:
            edges[t.src].append(t)
        self.edges = tuple(tuple(out) for out in edges)
        tables = store.tables
        keys = [tuple(id(t.label) for t in out) for out in self.edges]
        for key, out in zip(keys, self.edges):
            if key not in tables:
                tables[key] = LabelTable(store, (t.label for t in out))
        self.tables = tuple(tables[key] for key in keys)
        self.unique = tuple((q,) for q in range(automaton.num_states))
        self.targets = tuple(
            {leaf: self._targets(out, leaf) for leaf in table.leaves or ()}
            for table, out in zip(self.tables, self.edges)
        )
        self.exits = tuple(self._exit_cubes(q) for q in range(automaton.num_states))

    def _targets(self, out: tuple[Transition, ...], positions: frozenset[int]) -> tuple[int, ...]:
        targets = sorted({out[j].dst for j in positions})
        return self.unique[targets[0]] if len(targets) == 1 else tuple(targets)

    def _exit_cubes(self, q: int) -> tuple[tuple[int, int], ...] | None:
        table = self.tables[q]
        if table.leaves is None or not all(table.leaves):
            return None
        store = self.diagrams
        filed = store.filed
        cubes = []
        for t, (_, node) in zip(self.edges[q], table.labels):
            if t.dst == q or node == store.false:
                continue
            if node not in filed:
                care, value = store.hull(node)
                filed[node] = [(care, value)] if care else store.paths(node)
            if filed[node] is None:
                return None
            cubes.extend(filed[node])
        return tuple(dict.fromkeys(cubes))


def is_deterministic(compiled: Compiled) -> bool:
    """Single initial state and pairwise-disjoint labels leaving every
    state (:meth:`labels.LabelTable.disjoint`), state by state, read from
    the automaton's :class:`Compiled`."""
    automaton = compiled.automaton
    if len(automaton.initial) != 1:
        return False
    return all(table.disjoint(len(automaton.aps)) for table in compiled.tables)


def is_complete(compiled: Compiled) -> bool:
    """The labels leaving each state jointly cover every valuation
    (:meth:`labels.LabelTable.covering`), state by state; as above."""
    ap_count = len(compiled.automaton.aps)
    return all(table.covering(ap_count) for table in compiled.tables)


def complete_by_stuttering(compiled: Compiled) -> Compiled:
    """Add a self-loop on the uncovered inputs of each incomplete state.

    The loop label is the complement of the disjunction of the labels
    leaving the state (plain ``t`` when there are none), so the result is
    complete and determinism is preserved. Returns ``compiled`` itself
    when its automaton is already complete, and otherwise the completed
    automaton compiled in the same store.
    """
    automaton = compiled.automaton
    added: list[Transition] = []
    for state, (table, out) in enumerate(zip(compiled.tables, compiled.edges)):
        if table.covering(len(automaton.aps)):
            continue
        label = TRUE if not out else Not(lor(*(t.label for t in out)))
        added.append(Transition(state, label, state))
    if not added:
        return compiled
    completed = replace(automaton, transitions=automaton.transitions + tuple(added))
    return Compiled(completed, compiled.diagrams)
