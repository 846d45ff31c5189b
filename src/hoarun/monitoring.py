"""Prefix verdicts for acceptance conditions on deterministic complete automata.

The one-step monitor classifies the current state against the smallest
trap set containing it: a Fin/Inf atom becomes good, bad, ugly, or stays
unknown; compound conditions fold elementary verdicts through sound
combination tables. Good, bad, and ugly are final; unknown means "keep
monitoring". The trap set, and so the verdict, depends only on the
state, so a :class:`Monitor` computes the verdict at every state once,
in one pass over the condensation, and then only looks it up.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .automata import (
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
    acc_set_refs,
    complete_by_stuttering,
    is_complete,
    is_deterministic,
    state_graph,
)
from .labels import Diagrams
from .traps import TrapIndex, build_index, is_transient, reach_masks
# unused here, but perfbench/child.py wraps it under this module's name
from .traps import min_trap_set_of  # noqa: F401


class Verdict(Enum):
    GOOD = "good"
    BAD = "bad"
    UGLY = "ugly"
    UNKNOWN = "unknown"

    @property
    def conclusive(self) -> bool:
        return self is not Verdict.UNKNOWN


_UNKNOWN = Verdict.UNKNOWN  # compared by identity on the per-step path

_SWAP = {
    Verdict.GOOD: Verdict.BAD,
    Verdict.BAD: Verdict.GOOD,
    Verdict.UGLY: Verdict.UGLY,
    Verdict.UNKNOWN: Verdict.UNKNOWN,
}


def swap_good_bad(verdict: Verdict) -> Verdict:
    """Exchange good and bad; ugly and unknown are self-dual."""
    return _SWAP[verdict]


def combine_and(a: Verdict, b: Verdict) -> Verdict:
    """Verdict of a conjunction from its conjuncts' verdicts.

    A bad conjunct decides the conjunction; a good one is neutral. Two
    uglies, or ugly with unknown, stay unknown: the conjunction can still
    turn bad (two individually undecidable conjuncts may contradict each
    other, e.g. visiting one set both finitely and infinitely often), so
    finalizing ugly would be unsound.
    """
    if Verdict.BAD in (a, b):
        return Verdict.BAD
    if a is Verdict.GOOD:
        return b
    if b is Verdict.GOOD:
        return a
    return Verdict.UNKNOWN


def combine_or(a: Verdict, b: Verdict) -> Verdict:
    """Dual of :func:`combine_and` under the good/bad swap."""
    if Verdict.GOOD in (a, b):
        return Verdict.GOOD
    if a is Verdict.BAD:
        return b
    if b is Verdict.BAD:
        return a
    return Verdict.UNKNOWN


def component_verdicts(
    index: TrapIndex,
    graph: StateGraph,
    cond: AcceptanceCond,
    acc_sets: Sequence[frozenset[int]],
) -> list[Verdict]:
    """Verdict of ``cond`` at every component of ``index``, by component number.

    A Fin/Inf atom is judged against the smallest trap set T of the
    component, read from :func:`reach_masks`: T inside the set is good for
    Inf, T disjoint from it is bad; when T is a single bottom SCC the
    remainder decides between good (transient) and ugly. Fin is the
    good/bad swap of Inf. Compound conditions fold their children through
    :func:`combine_and` and :func:`combine_or`. Raises ``ValueError`` if
    the condition references an empty acceptance set.
    """
    refs = acc_set_refs(cond)
    if any(not acc_sets[k] for k in refs):
        raise ValueError("acceptance set must be non-empty")
    every, some = reach_masks(index, acc_sets)
    verdicts = []
    for c, comp in enumerate(index.components):
        bottom = not index.comp_succ[c]
        transient = 0
        if bottom:
            for k in refs:
                bit = 1 << k
                partial = some[c] & bit and not every[c] & bit
                if partial and is_transient(graph, comp - acc_sets[k]):
                    transient |= bit
        verdicts.append(_fold(cond, every[c], some[c], bottom, transient))
    return verdicts


def _fold(cond: AcceptanceCond, every: int, some: int, bottom: bool, transient: int) -> Verdict:
    if isinstance(cond, Top):
        return Verdict.GOOD
    if isinstance(cond, Bot):
        return Verdict.BAD
    if isinstance(cond, (Inf, Fin)):
        bit = 1 << cond.set_index
        if every & bit:
            verdict = Verdict.GOOD
        elif not some & bit:
            verdict = Verdict.BAD
        elif bottom:
            verdict = Verdict.GOOD if transient & bit else Verdict.UGLY
        else:
            verdict = Verdict.UNKNOWN
        return verdict if isinstance(cond, Inf) else swap_good_bad(verdict)
    if isinstance(cond, AccAnd):
        out = Verdict.GOOD
        for child in cond.children:
            out = combine_and(out, _fold(child, every, some, bottom, transient))
        return out
    if isinstance(cond, AccOr):
        out = Verdict.BAD
        for child in cond.children:
            out = combine_or(out, _fold(child, every, some, bottom, transient))
        return out
    raise TypeError(f"not an acceptance condition: {cond!r}")


def condition_verdict(
    index: TrapIndex,
    graph: StateGraph,
    cond: AcceptanceCond,
    acc_sets: tuple[frozenset[int], ...],
    state: int,
) -> Verdict:
    """Fold a full acceptance condition into one verdict at ``state``.

    Builds the whole :func:`component_verdicts` table for one answer; a
    :class:`Monitor` keeps that table instead of asking per state.
    """
    if not 0 <= state < graph.num_states:
        raise ValueError(f"unknown state {state}")
    return component_verdicts(index, graph, cond, acc_sets)[index.state_to_comp[state]]


class MonitorAttachError(Exception):
    """The automaton does not meet the monitoring preconditions."""


class Monitor:
    """Stepwise monitor over one automaton's run.

    Per-state verdicts are a pure function of the automaton, so
    ``verdicts[q]`` holds the verdict at every state q, computed once
    when the monitor is built; observing a state is a lookup. The
    conclusive-verdict latch is per run segment and is what a reset
    clears. Raises ``ValueError`` if the condition references an empty
    acceptance set.
    """

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton
        graph = state_graph(automaton)
        index = build_index(graph, automaton.initial)
        by_comp = component_verdicts(index, graph, automaton.condition, automaton.acc_sets)
        self.verdicts = tuple(by_comp[c] for c in index.state_to_comp)
        self.current_verdict = Verdict.UNKNOWN

    def observe(self, state: int) -> Verdict:
        """Account for a transition into ``state``; conclusive verdicts latch."""
        latched = self.current_verdict
        if latched is not _UNKNOWN:
            return latched
        verdict = self.verdicts[state]
        if verdict is not _UNKNOWN:
            self.current_verdict = verdict
        return verdict

    def reset(self) -> None:
        """Clear the latch for a fresh run segment; the verdict table stays."""
        self.current_verdict = Verdict.UNKNOWN


def attach_monitor(
    automaton: Automaton, *, complete: bool = False, store: Diagrams | None = None
) -> tuple[Compiled, Monitor]:
    """Compile, validate and monitor an automaton; optionally complete it first.

    Refuses nondeterministic automata outright. Incomplete automata are
    refused unless ``complete`` is set, in which case stuttering
    self-loops are added. Returns the :class:`Compiled` of the automaton
    to execute, the completed one if it was completed, in ``store`` (a
    new one when not given), and its monitor.
    """
    compiled = Compiled(automaton, store)
    if not is_deterministic(compiled):
        raise MonitorAttachError("automaton is nondeterministic")
    if not is_complete(compiled):
        if not complete:
            raise MonitorAttachError(
                "automaton is incomplete; enable stuttering completion to monitor it"
            )
        compiled = complete_by_stuttering(compiled)
    return compiled, Monitor(compiled.automaton)


class VerdictOracle:
    """Ground-truth prefix verdicts for small deterministic complete automata.

    Enumerates every state set that some run from the queried state can
    visit infinitely often (sets reachable from it whose induced subgraph
    is strongly connected and contains an edge) and classifies the state
    directly against the acceptance semantics. Works on the label-erased
    graph, so every transition label is assumed satisfiable. Exponential
    in the state count, hence the cap; used as an independent reference
    in tests.
    """

    def __init__(
        self,
        automaton: Automaton,
        condition: AcceptanceCond | None = None,
        *,
        max_states: int = 10,
    ) -> None:
        n = automaton.num_states
        if n > max_states:
            raise ValueError(f"{n} states exceeds the oracle cap of {max_states}")
        self._n = n
        cond = automaton.condition if condition is None else condition
        succ = [0] * n
        for t in automaton.transitions:
            succ[t.src] |= 1 << t.dst
        pred = [0] * n
        for q in range(n):
            for t in range(n):
                if succ[q] >> t & 1:
                    pred[t] |= 1 << q
        self._reach = [self._closure(succ, 1 << q) for q in range(n)]
        set_masks = [self._to_mask(s) for s in automaton.acc_sets]
        self._realizable: list[tuple[int, bool]] = []
        for mask in range(1, 1 << n):
            if self._strongly_connected_with_edge(succ, pred, mask):
                self._realizable.append((mask, self._accepts(cond, set_masks, mask)))
        self._good: dict[int, bool] = {}
        self._bad: dict[int, bool] = {}

    @staticmethod
    def _to_mask(states: frozenset[int]) -> int:
        mask = 0
        for q in states:
            mask |= 1 << q
        return mask

    @staticmethod
    def _closure(succ: list[int], start: int) -> int:
        seen = start
        frontier = start
        while frontier:
            grown = 0
            m = frontier
            while m:
                low = m & -m
                grown |= succ[low.bit_length() - 1]
                m ^= low
            frontier = grown & ~seen
            seen |= grown
        return seen

    def _strongly_connected_with_edge(
        self, succ: list[int], pred: list[int], mask: int
    ) -> bool:
        start = mask & -mask
        q = start.bit_length() - 1
        if mask == start:
            return bool(succ[q] & mask)
        fwd = self._closure([s & mask for s in succ], start) & mask
        if fwd != mask:
            return False
        bwd = self._closure([p & mask for p in pred], start) & mask
        return bwd == mask

    def _accepts(self, cond: AcceptanceCond, set_masks: list[int], mask: int) -> bool:
        if isinstance(cond, Top):
            return True
        if isinstance(cond, Bot):
            return False
        if isinstance(cond, Fin):
            return not mask & set_masks[cond.set_index]
        if isinstance(cond, Inf):
            return bool(mask & set_masks[cond.set_index])
        if isinstance(cond, AccAnd):
            return all(self._accepts(c, set_masks, mask) for c in cond.children)
        if isinstance(cond, AccOr):
            return any(self._accepts(c, set_masks, mask) for c in cond.children)
        raise TypeError(f"not an acceptance condition: {cond!r}")

    def _classify(self, state: int) -> tuple[bool, bool]:
        if state in self._good:
            return self._good[state], self._bad[state]
        reach = self._reach[state]
        outcomes = [acc for mask, acc in self._realizable if not mask & ~reach]
        if not outcomes:
            raise ValueError("state admits no infinite run; automaton incomplete?")
        good = all(outcomes)
        bad = not any(outcomes)
        self._good[state] = good
        self._bad[state] = bad
        return good, bad

    def verdict(self, state: int) -> Verdict:
        good, bad = self._classify(state)
        if good:
            return Verdict.GOOD
        if bad:
            return Verdict.BAD
        reach = self._reach[state]
        for r in range(self._n):
            if reach >> r & 1 and any(self._classify(r)):
                return Verdict.UNKNOWN
        return Verdict.UGLY


def oracle_verdict(
    automaton: Automaton,
    state: int,
    condition: AcceptanceCond | None = None,
    *,
    max_states: int = 10,
) -> Verdict:
    """One-off :class:`VerdictOracle` query; see that class for semantics."""
    return VerdictOracle(automaton, condition, max_states=max_states).verdict(state)
