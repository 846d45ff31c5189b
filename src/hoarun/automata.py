"""Core automaton model: states, labeled transitions, acceptance conditions.

States are dense integers 0..n-1. Acceptance-set membership is recorded
per state; the acceptance condition is a positive Boolean combination of
Fin/Inf atoms over acceptance-set indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .labels import TRUE, LabelExpr, Not, covers_all, lor, occurring_aps, pairwise_disjoint


class AcceptanceCond:
    """Base class for acceptance condition nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(AcceptanceCond):
    pass


@dataclass(frozen=True, slots=True)
class Bot(AcceptanceCond):
    pass


@dataclass(frozen=True, slots=True)
class Fin(AcceptanceCond):
    set_index: int


@dataclass(frozen=True, slots=True)
class Inf(AcceptanceCond):
    set_index: int


@dataclass(frozen=True, slots=True)
class AccAnd(AcceptanceCond):
    children: tuple[AcceptanceCond, ...]


@dataclass(frozen=True, slots=True)
class AccOr(AcceptanceCond):
    children: tuple[AcceptanceCond, ...]


TOP = Top()
BOT = Bot()


def acc_and(*children: AcceptanceCond) -> AcceptanceCond:
    flat: list[AcceptanceCond] = []
    for child in children:
        if isinstance(child, AccAnd):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return AccAnd(tuple(flat))


def acc_or(*children: AcceptanceCond) -> AcceptanceCond:
    flat: list[AcceptanceCond] = []
    for child in children:
        if isinstance(child, AccOr):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return BOT
    if len(flat) == 1:
        return flat[0]
    return AccOr(tuple(flat))


def acc_set_refs(cond: AcceptanceCond) -> frozenset[int]:
    """All acceptance-set indices referenced by a condition."""
    refs: set[int] = set()
    stack: list[AcceptanceCond] = [cond]
    while stack:
        node = stack.pop()
        if isinstance(node, (Fin, Inf)):
            refs.add(node.set_index)
        elif isinstance(node, (AccAnd, AccOr)):
            stack.extend(node.children)
    return frozenset(refs)


@dataclass(frozen=True, slots=True)
class Transition:
    src: int
    label: LabelExpr
    dst: int


@dataclass(frozen=True, slots=True)
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
    display_ids: tuple[int, ...] | None = field(default=None, compare=False)
    # labels.cover's memo for these labels, shared by the checks and the
    # runners; keyed by node ids, so it is only valid for this object
    covers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


@dataclass(frozen=True, slots=True)
class StateGraph:
    """Label-erased view of the transition relation."""

    num_states: int
    succ: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, num_states: int, edges: Iterable[tuple[int, int]]) -> "StateGraph":
        out: list[set[int]] = [set() for _ in range(num_states)]
        for src, dst in edges:
            out[src].add(dst)
        return cls(num_states, tuple(tuple(sorted(s)) for s in out))

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)


def state_graph(automaton: Automaton) -> StateGraph:
    """Graph with an edge (q, q') iff some transition connects q to q'."""
    return StateGraph.from_edges(
        automaton.num_states, ((t.src, t.dst) for t in automaton.transitions)
    )


def _labels_by_state(automaton: Automaton) -> list[list[LabelExpr]]:
    out: list[list[LabelExpr]] = [[] for _ in range(automaton.num_states)]
    for t in automaton.transitions:
        out[t.src].append(t.label)
    return out


def is_deterministic(automaton: Automaton) -> bool:
    """Single initial state and pairwise-disjoint labels leaving every state."""
    if len(automaton.initial) != 1:
        return False
    ap_count = len(automaton.aps)
    return all(
        pairwise_disjoint(labels, ap_count, automaton.covers)
        for labels in _labels_by_state(automaton)
    )


def is_complete(automaton: Automaton) -> bool:
    """The labels leaving each state jointly cover every valuation."""
    ap_count = len(automaton.aps)
    return all(
        covers_all(labels, ap_count, automaton.covers) for labels in _labels_by_state(automaton)
    )


def complete_by_stuttering(automaton: Automaton) -> Automaton:
    """Add a self-loop on the uncovered inputs of each incomplete state.

    The loop label is the complement of the disjunction of the labels
    leaving the state (plain ``t`` when there are none), so the result is
    complete and determinism is preserved. Returns the input unchanged
    when it is already complete.
    """
    ap_count = len(automaton.aps)
    added: list[Transition] = []
    for state, labels in enumerate(_labels_by_state(automaton)):
        if covers_all(labels, ap_count, automaton.covers):
            continue
        label = TRUE if not labels else Not(lor(*labels))
        added.append(Transition(state, label, state))
    if not added:
        return automaton
    return replace(automaton, transitions=automaton.transitions + tuple(added))
