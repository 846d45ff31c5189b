"""Seeded generator for the `layered` workload.

The automaton is deterministic and complete over two propositions. Its
non-bottom states form small cycles arranged in layers; every state has a
forward edge into the next few layers, and the last layer leads to two
bottom components:

- an accepting one, a 2-cycle whose first state is in acceptance set 0;
- a rejecting one, a single state with a self-loop outside the set.

With `Inf(0)` acceptance every run that ends in the accepting component is
accepting (its other state is transient), and every run that ends in the
rejecting one is not. Every non-bottom state reaches both bottoms, so by
construction its verdict is unknown, the accepting component's states are
good and the rejecting state is bad. Nothing here imports the monitored
program: the HOA text, the trace and the expected verdict lines are built
directly, and `self_check` compares the by-construction verdicts with the
program's exhaustive `VerdictOracle` on small instances.

Letters are numbered by their valuation bits: bit 0 is proposition `a`
(HOA index 0), bit 1 is `b`. In a non-bottom state letters 0 and 1 follow
the cycle, letters 2 and 3 jump forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

APS = ("a", "b")
LABELS = tuple(
    f"{'' if letter & 1 else '!'}0 & {'' if letter & 2 else '!'}1" for letter in range(4)
)
NAME = "layered"
WINDOW = 2  # forward edges land in one of the next WINDOW layers
SELF_CHECK_INSTANCES = 20


@dataclass(frozen=True)
class Layered:
    """One generated automaton: successor per (state, letter) plus its bottoms."""

    delta: tuple[tuple[int, int, int, int], ...]
    good: frozenset[int]
    bad: frozenset[int]
    accepting: frozenset[int]

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def verdict(self, state: int) -> str:
        """Verdict at ``state`` as the construction fixes it."""
        if state in self.good:
            return "good"
        if state in self.bad:
            return "bad"
        return "unknown"

    def hoa_text(self) -> str:
        lines = [
            "HOA: v1",
            f'name: "{NAME}"',
            f"States: {self.num_states}",
            "Start: 0",
            f"AP: {len(APS)} " + " ".join(f'"{name}"' for name in APS),
            "acc-name: Buchi",
            "Acceptance: 1 Inf(0)",
            "properties: trans-labels explicit-labels state-acc deterministic complete",
            "--BODY--",
        ]
        for state, targets in enumerate(self.delta):
            lines.append(f"State: {state} {{0}}" if state in self.accepting else f"State: {state}")
            if len(set(targets)) == 1:
                lines.append(f"[t] {targets[0]}")
            else:
                lines.extend(f"[{LABELS[letter]}] {dst}" for letter, dst in enumerate(targets))
        lines.append("--END--")
        return "\n".join(lines) + "\n"


def generate(num_states: int, seed: int, *, width: int = 8) -> Layered:
    """Build an automaton with exactly ``num_states`` states.

    ``width`` is the number of cycles per layer after the first (which
    holds only the start state's cycle); forward edges land in one of the
    next ``WINDOW`` layers. Cycle lengths are drawn from 1 to 5.
    """
    if num_states < 4:
        raise ValueError("a layered automaton needs at least 4 states")
    rng = Random(f"{seed}:layered")
    inner = num_states - 3  # the bottoms take the last three states
    cycles: list[list[int]] = []
    next_state = 0
    while next_state < inner:
        size = min(rng.randint(1, 5), inner - next_state)
        cycles.append(list(range(next_state, next_state + size)))
        next_state += size
    layers = [cycles[:1]]
    for start in range(1, len(cycles), width):
        layers.append(cycles[start : start + width])
    layer_states = [[q for cycle in layer for q in cycle] for layer in layers]

    good_first, good_second, bad_state = inner, inner + 1, inner + 2
    delta: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * num_states
    last = len(layers) - 1
    for depth, layer in enumerate(layers):
        ahead = [q for later in layer_states[depth + 1 : depth + 1 + WINDOW] for q in later]
        for cycle in layer:
            for pos, state in enumerate(cycle):
                follow = cycle[(pos + 1) % len(cycle)]
                if depth == last:
                    jumps = (good_first, bad_state)
                else:
                    jumps = (rng.choice(ahead), rng.choice(ahead))
                delta[state] = (follow, follow, *jumps)
    delta[good_first] = (good_second,) * 4
    delta[good_second] = (good_first,) * 4
    delta[bad_state] = (bad_state,) * 4
    return Layered(
        tuple(delta),
        good=frozenset({good_first, good_second}),
        bad=frozenset({bad_state}),
        accepting=frozenset({good_first}),
    )


def random_letters(length: int, seed: int) -> list[int]:
    rng = Random(f"{seed}:layered-trace")
    return [rng.randrange(4) for _ in range(length)]


def trace_text(letters: list[int]) -> str:
    rows = [" ".join(APS)]
    rows.extend(f"{letter & 1} {letter >> 1 & 1}" for letter in letters)
    return "\n".join(rows) + "\n"


def expected_verdicts(automaton: Layered, letters: list[int]) -> list[str]:
    """The `VERDICT` lines of a monitored run that resets on conclusive verdicts.

    The monitor judges each state the run enters; a conclusive verdict is
    printed at that step and the reset sends the run back to state 0.
    """
    lines = []
    state = 0
    for step, letter in enumerate(letters):
        state = automaton.delta[state][letter]
        verdict = automaton.verdict(state)
        if verdict != "unknown":
            lines.append(f"VERDICT {NAME} {verdict} @{step}")
            state = 0
    return lines


def self_check(seed: int) -> list[str]:
    """Compare by-construction verdicts with ``VerdictOracle`` on small instances.

    Needs the monitored program on ``sys.path``. Returns one message per
    disagreement; an empty list means every state of every instance agreed.
    """
    from hoarun.hoa import parse
    from hoarun.monitoring import VerdictOracle

    problems = []
    rng = Random(f"{seed}:layered-self-check")
    for instance in range(SELF_CHECK_INSTANCES):
        size = rng.randint(4, 10)
        automaton = generate(size, rng.randrange(1 << 30), width=rng.randint(1, 2))
        (parsed,) = parse(automaton.hoa_text()).automata
        oracle = VerdictOracle(parsed)
        for state in range(size):
            want = automaton.verdict(state)
            got = oracle.verdict(state).value
            if got != want:
                problems.append(
                    f"instance {instance} ({size} states), state {state}: "
                    f"construction says {want}, oracle says {got}"
                )
    return problems
