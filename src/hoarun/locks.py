"""Lock-acquisition benchmark: seeded trace generation with optional fault
injection, matching property monitors, and an independent replay checker.

N threads compete for N locks. Each trace record encodes one event with
propositions `end` (final record marker), `a` (acquire when set, release
when clear), and two binary-encoded fields for the thread and the lock,
giving 2 + 2*log2(N) propositions.

Two properties are monitored per (thread, lock) pair: nobody else may
acquire a lock its holder has not released, and every acquired lock must
be released before the trace ends. Each emitted automaton accepts
exactly the runs violating its property (three states: idle, held,
violation sink; condition: visit the sink infinitely often), so a GOOD
verdict on it signals a property violation. Acquisitions on the final
record are ignored.
"""

from __future__ import annotations

from random import Random

from .automata import Automaton, Inf, Transition
from .hoa import HoaDocument
from .labels import TRUE, Ap, LabelExpr, Not, land, lor
from .records import record

FAULT_DOUBLE_ACQUIRE = "double-acquire"
FAULT_UNRELEASED = "unreleased-at-end"
FAULT_KINDS = (FAULT_DOUBLE_ACQUIRE, FAULT_UNRELEASED)


class ScenarioError(Exception):
    """The requested scenario is invalid or infeasible."""


@record
class LockScenario:
    """Parameters of one generated trace."""

    n: int
    length: int
    violations: int = 0
    fault_kind: str = FAULT_DOUBLE_ACQUIRE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.n & (self.n - 1):
            raise ScenarioError(f"thread/lock count must be a power of two >= 2, got {self.n}")
        if self.length < 1:
            raise ScenarioError(f"trace length must be positive, got {self.length}")
        if self.violations < 0:
            raise ScenarioError("violation count cannot be negative")
        if self.violations > self.length // 4:
            raise ScenarioError(
                f"{self.violations} violations infeasible for length {self.length}"
            )
        if self.fault_kind not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {self.fault_kind!r}")


def index_bits(n: int) -> int:
    return n.bit_length() - 1


def ap_layout(n: int) -> tuple[str, ...]:
    """Proposition order used by traces and monitors: end, a, i-bits, l-bits."""
    bits = index_bits(n)
    return (
        "end",
        "a",
        *(f"i{k}" for k in range(bits)),
        *(f"l{k}" for k in range(bits)),
    )


# ---------------------------------------------------------------------------
# Trace generation

# One event is (acquire: bool, thread: int, lock: int); the end marker is
# added to the last record at encoding time.
_Event = tuple[bool, int, int]


def _encode(events: list[_Event], n: int) -> str:
    bits = index_bits(n)
    lines = [" ".join(ap_layout(n))]
    last = len(events) - 1
    for pos, (acquire, thread, lock) in enumerate(events):
        fields = ["1" if pos == last else "0", "1" if acquire else "0"]
        fields.extend("1" if thread >> k & 1 else "0" for k in range(bits))
        fields.extend("1" if lock >> k & 1 else "0" for k in range(bits))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


# A hold interval: (lock, holder, acquire position, release position).
_Interval = tuple[int, int, int, int]


def _base_schedule(
    n: int, length: int, rng: Random
) -> tuple[list[_Event], list[tuple[tuple[int, int], ...]], list[_Interval]]:
    """Random lock-respecting schedule with every lock released by the end.

    Also returns, per position, the (lock, owner) pairs held after that
    event, plus the list of completed hold intervals; fault injection
    works from those.
    """
    owner: dict[int, int] = {}
    acquired_at: dict[int, int] = {}
    events: list[_Event] = []
    held_after: list[tuple[tuple[int, int], ...]] = []
    intervals: list[_Interval] = []
    for pos in range(length):
        remaining = length - pos
        must_release = bool(owner) and len(owner) >= remaining
        free = [lock for lock in range(n) if lock not in owner]
        can_acquire = bool(free) and len(owner) + 1 <= remaining - 1
        if must_release or (owner and (not can_acquire or rng.random() < 0.5)):
            lock = rng.choice(sorted(owner))
            holder = owner.pop(lock)
            intervals.append((lock, holder, acquired_at.pop(lock), pos))
            events.append((False, holder, lock))
        elif can_acquire:
            lock = rng.choice(free)
            thread = rng.randrange(n)
            owner[lock] = thread
            acquired_at[lock] = pos
            events.append((True, thread, lock))
        else:
            # nothing held and no room to start a hold: emit a spurious
            # release, which no monitor reacts to
            events.append((False, rng.randrange(n), rng.randrange(n)))
        held_after.append(tuple(sorted(owner.items())))
    return events, held_after, intervals


def _inject_double_acquires(
    events: list[_Event],
    intervals: list[_Interval],
    n: int,
    count: int,
    rng: Random,
) -> list[_Event]:
    # A fault is a foreign acquire immediately undone by its own release,
    # slipped into a hold interval: exactly one violation each, no knock-on
    # effects. Distinct intervals keep the faults independent.
    if len(intervals) < count:
        raise ScenarioError(
            f"cannot place {count} double-acquire faults in this schedule"
        )
    insertions: dict[int, list[_Event]] = {}
    for idx in sorted(rng.sample(range(len(intervals)), count)):
        lock, holder, start, end = intervals[idx]
        pos = rng.randrange(start, end)  # after the acquire, before the release
        intruder = rng.choice([t for t in range(n) if t != holder])
        insertions.setdefault(pos, []).extend(
            [(True, intruder, lock), (False, intruder, lock)]
        )
    out: list[_Event] = []
    for pos, event in enumerate(events):
        out.append(event)
        out.extend(insertions.get(pos, ()))
    return out


def _suppress_final_releases(
    events: list[_Event],
    held_after: list[tuple[tuple[int, int], ...]],
    intervals: list[_Interval],
    n: int,
    count: int,
    rng: Random,
) -> list[_Event]:
    # Replace the last real release of `count` distinct locks with a spurious
    # release, leaving exactly one (thread, lock) pair held at the end each.
    if count > n:
        raise ScenarioError(
            f"at most {n} unreleased-at-end faults are possible with {n} locks"
        )
    final_interval: dict[int, _Interval] = {}
    for interval in intervals:
        final_interval[interval[0]] = interval
    last_touch: dict[tuple[int, int], int] = {}
    for pos, (acquire, thread, lock) in enumerate(events):
        if not acquire:
            last_touch[(thread, lock)] = pos
    # A candidate's held pair must never be released again later, not even
    # by one of the schedule's spurious filler releases.
    candidates = sorted(
        lock
        for lock, (_, holder, _, end) in final_interval.items()
        if last_touch.get((holder, lock)) == end
    )
    if len(candidates) < count:
        raise ScenarioError(
            f"cannot place {count} unreleased-at-end faults in this schedule"
        )
    chosen = sorted(rng.sample(candidates, count), key=lambda lock: final_interval[lock][3])
    out = list(events)
    kept_held: dict[int, int] = {}  # suppressed locks stay held in monitor view
    for lock in chosen:
        _, holder, _, pos = final_interval[lock]
        held = dict(held_after[pos - 1]) if pos else {}
        held.update(kept_held)
        spurious = next(
            (t, l)
            for l in range(n)
            for t in range(n)
            if held.get(l) != t
        )
        out[pos] = (False, spurious[0], spurious[1])
        kept_held[lock] = holder
    return out


def generate_trace(scenario: LockScenario) -> str:
    """Deterministically generate a trace for the scenario, faults included."""
    rng = Random(f"{scenario.seed}:locks")
    if scenario.fault_kind == FAULT_DOUBLE_ACQUIRE:
        base_length = scenario.length - 2 * scenario.violations
        events, _, intervals = _base_schedule(scenario.n, base_length, rng)
        if scenario.violations:
            events = _inject_double_acquires(
                events, intervals, scenario.n, scenario.violations, rng
            )
    else:
        events, held_after, intervals = _base_schedule(scenario.n, scenario.length, rng)
        if scenario.violations:
            events = _suppress_final_releases(
                events, held_after, intervals, scenario.n, scenario.violations, rng
            )
    assert len(events) == scenario.length
    return _encode(events, scenario.n)


# ---------------------------------------------------------------------------
# Replay checker (independent of the automata machinery)


@record
class ReplayCounts:
    double_acquires: int
    unreleased: int

    @property
    def total(self) -> int:
        return self.double_acquires + self.unreleased


def replay_check(trace_text: str, n: int) -> ReplayCounts:
    """Count property violations by simulating lock ownership directly."""
    bits = index_bits(n)
    lines = [
        line.strip()
        for line in trace_text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    header = lines[0].split()
    column = {name: i for i, name in enumerate(header)}
    owner: dict[int, int] = {}
    held_pairs: set[tuple[int, int]] = set()
    double = 0
    unreleased = 0
    for line in lines[1:]:
        row = line.split()
        end = row[column["end"]] == "1"
        acquire = row[column["a"]] == "1"
        thread = sum(
            (row[column[f"i{k}"]] == "1") << k for k in range(bits)
        )
        lock = sum((row[column[f"l{k}"]] == "1") << k for k in range(bits))
        if acquire and not end:
            if lock in owner and owner[lock] != thread:
                double += 1
            owner[lock] = thread
            held_pairs.add((thread, lock))
        elif not acquire:
            if owner.get(lock) == thread:
                del owner[lock]
            held_pairs.discard((thread, lock))
        if end:
            unreleased = len(held_pairs)
    return ReplayCounts(double, unreleased)


# ---------------------------------------------------------------------------
# Monitor templates


def _bits_equal(first_ap: int, value: int, bits: int) -> LabelExpr:
    return land(
        *(
            Ap(first_ap + k) if value >> k & 1 else Not(Ap(first_ap + k))
            for k in range(bits)
        )
    )


def _pair_monitors(n: int, thread: int, lock: int) -> tuple[Automaton, Automaton]:
    bits = index_bits(n)
    aps = ap_layout(n)
    end = Ap(0)
    acq = Ap(1)
    same_thread = _bits_equal(2, thread, bits)
    same_lock = _bits_equal(2 + bits, lock, bits)
    grab = land(Not(end), acq, same_thread, same_lock)
    release = land(Not(acq), same_thread, same_lock)

    # States: 0 idle, 1 held, 2 violation sink. Six transitions each; the
    # held state's labels partition the alphabet three ways.
    common = dict(
        aps=aps,
        num_states=3,
        initial=frozenset({0}),
        acc_sets=(frozenset({2}),),
        condition=Inf(0),
        properties=("state-acc", "deterministic", "complete"),
    )

    foreign_grab = land(Not(end), acq, same_lock, Not(same_thread))
    safe_exit = lor(end, release)
    double = Automaton(
        transitions=(
            Transition(0, grab, 1),
            Transition(0, Not(grab), 0),
            Transition(1, foreign_grab, 2),
            Transition(1, safe_exit, 0),
            Transition(1, Not(lor(foreign_grab, safe_exit)), 1),
            Transition(2, TRUE, 2),
        ),
        name=f"viol_double_acq_t{thread}_l{lock}",
        **common,
    )

    end_while_held = land(end, Not(release))
    unreleased = Automaton(
        transitions=(
            Transition(0, grab, 1),
            Transition(0, Not(grab), 0),
            Transition(1, end_while_held, 2),
            Transition(1, release, 0),
            Transition(1, land(Not(end), Not(release)), 1),
            Transition(2, TRUE, 2),
        ),
        name=f"viol_unreleased_t{thread}_l{lock}",
        **common,
    )
    return double, unreleased


def emit_monitors(n: int) -> HoaDocument:
    """The 2*n*n property monitors for an n-thread, n-lock scenario."""
    if n < 2 or n & (n - 1):
        raise ScenarioError(f"thread/lock count must be a power of two >= 2, got {n}")
    automata = []
    for thread in range(n):
        for lock in range(n):
            automata.extend(_pair_monitors(n, thread, lock))
    return HoaDocument(tuple(automata))
