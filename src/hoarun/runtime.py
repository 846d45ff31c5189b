"""Execution loop machinery: drivers feed valuations, runners step automata,
hooks react to nondeterminism, deadlock, verdict changes and user conditions.

Atomic propositions are shared across automata by name: every step one
global valuation is collected, as one int with a bit per proposition,
and each runner holds its transition labels and ``cond:`` formulas as
cubes (``labels.cover``) moved to the global positions of the names they
use, so it reads those bits directly; a label without a cover is walked.
A trace record is decoded once, straight to those bits. Each runner
memoises its candidate states per (state, input restricted to its own
propositions); a memo that reaches ``MEMO_CAP`` entries is emptied, so it
never holds more, however long the run and however many propositions the
automaton has. The loop is the only reader of that memo: when the entry
says the runner stays put and nothing would observe it (no state or
cond: hook, and a monitor, if any, that the state cannot move), the step
is counted and nothing else is called. A step of either kind that
leaves the runner resting where it was also parks it when the state's
labels cover every input and a few cubes of inputs are all that can
move it from there (at most one after a memo hit, any number after a
miss): the loop then files it under each of those cubes and
stops probing it, until an input in one of them comes, and counts the
steps it skipped when it unparks it or ends. So a runner the input
leaves in place costs nothing per step once parked, and one memo probe
otherwise. Every other step, a successor chosen by a hook included, goes
through ``step``, the only code that takes a step: it moves the runner,
counts the step and shows the monitor the new state. All randomness
flows from per-purpose streams derived from the global seed, so
identical inputs replay identically.
"""

from __future__ import annotations

import configparser
import io
import re
import sys
from bisect import insort
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .automata import Automaton, covers_state
from .hoa import HoaParseError, parse_named_label
from .labels import (
    CapacityError,
    Cover,
    Cube,
    LabelExpr,
    Valuation,
    cover,
    holds,
    hull,
    remap,
    tautology,
)
from .monitoring import Monitor, Verdict


class ConfigError(Exception):
    """A configuration file or driver binding is invalid."""


class TraceError(Exception):
    """A trace file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class InputClosedError(Exception):
    """An interactive input stream ended while a prompt was pending."""


# ---------------------------------------------------------------------------
# Trace files


def _significant_lines(path: str, source: TextIO) -> Iterator[tuple[int, str]]:
    """Number and text of each line of ``source``, the trace ``path``, that
    is not blank or a comment, read one at a time. ``source`` is closed at
    its end, or when the generator is dropped: it does not refer to its
    reader, so dropping the reader drops it without the cycle collector."""
    with source:
        try:
            for number, line in enumerate(source, start=1):
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    yield number, stripped
        except UnicodeDecodeError as exc:
            raise TraceError(f"trace {path!r} is not valid UTF-8 ({exc.reason})") from None


class TraceReader:
    """Reader over one trace file, shared by every proposition bound to it.

    Format: '#' lines are comments, the first significant line names the
    propositions, every following significant line holds one 0/1 token
    per name. One record is consumed per step regardless of how many
    propositions read from it. Each record is checked and decoded once,
    to one int (:meth:`record_for_step`). Columns no proposition is
    bound to are checked but otherwise ignored. The file, standard input
    for the path ``-``, is read one line at a time, so memory does not
    grow with its length, and closed at its end or when the reader is
    dropped.
    """

    def __init__(self, path: str, text: str | None = None):
        self.path = path
        if text is not None:
            source: TextIO = io.StringIO(text, newline=None)
        elif path == "-":  # standard input, which stays open after the trace
            source = open(sys.stdin.fileno(), encoding="utf-8", closefd=False)
        else:
            source = open(path, encoding="utf-8")
        self._lines = _significant_lines(path, source)
        header = next(self._lines, None)
        if header is None:
            raise TraceError("trace has no header line")
        _, header_line = header
        self.header: tuple[str, ...] = tuple(header_line.split())
        self._step = -1
        self._record: int | None = None

    def record_for_step(self, step: int) -> int | None:
        """Record for ``step``, column i at bit ``len(header) - 1 - i``,
        advancing at most once; None at end of input."""
        if step == self._step:
            return self._record
        entry = next(self._lines, None)
        if entry is None:
            self._record = None
            self._step = step
            return None
        number, line = entry
        tokens = line.split()
        if len(tokens) != len(self.header):
            raise TraceError(
                f"expected {len(self.header)} columns, found {len(tokens)}", number
            )
        row = "".join(tokens)
        # every token is one character, and each of them is 0 or 1
        if len(row) != len(tokens) or row.strip("01"):
            bad = next(token for token in tokens if token not in ("0", "1"))
            raise TraceError(f"expected 0 or 1, found {bad!r}", number)
        self._record = int(row, 2)
        self._step = step
        return self._record


# ---------------------------------------------------------------------------
# Drivers

_TRUE_TOKENS = {"1", "t", "true"}
_FALSE_TOKENS = {"0", "f", "false"}


@dataclass(frozen=True, slots=True)
class InteractiveSpec:
    pass


@dataclass(frozen=True, slots=True)
class FileSpec:
    path: str


@dataclass(frozen=True, slots=True)
class RandomSpec:
    bias: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.bias <= 1.0:
            raise ConfigError(f"bias must be within [0, 1], got {self.bias}")


DriverSpec = InteractiveSpec | FileSpec | RandomSpec

_RANDOM_SPEC_RE = re.compile(r"random\s*(?:\(\s*(?P<args>[^)]*)\s*\))?\s*$")


def parse_driver_spec(text: str) -> DriverSpec:
    text = text.strip()
    if text == "interactive":
        return InteractiveSpec()
    if text.startswith("file:"):
        path = text[len("file:") :].strip()
        if not path:
            raise ConfigError("file driver needs a path: file:<path>")
        return FileSpec(path)
    match = _RANDOM_SPEC_RE.match(text)
    if match:
        bias = 0.5
        seed = None
        args = match.group("args") or ""
        for part in filter(None, (p.strip() for p in args.split(","))):
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            try:
                if key == "bias":
                    bias = float(value)
                elif key == "seed":
                    seed = int(value)
                else:
                    raise ConfigError(f"unknown random() parameter {key!r}")
            except ValueError as exc:
                raise ConfigError(f"bad random() parameter {part!r}") from exc
        return RandomSpec(bias, seed)
    raise ConfigError(f"unknown driver spec {text!r}")


class RandomDriver:
    def __init__(self, spec: RandomSpec, stream: Random):
        self.bias = spec.bias
        self.stream = stream

    def value(self, ap_name: str, step: int) -> bool:
        return self.stream.random() < self.bias


class InteractiveDriver:
    def __init__(self, instream: TextIO | None = None, outstream: TextIO | None = None):
        self.instream = instream if instream is not None else sys.stdin
        self.outstream = outstream if outstream is not None else sys.stderr

    def ask(self, prompt: str) -> str:
        """Write ``prompt`` and read one answer line, stripped."""
        self.outstream.write(prompt)
        self.outstream.flush()
        line = self.instream.readline()
        if not line:
            raise InputClosedError("interactive input stream closed")
        return line.strip()

    def value(self, ap_name: str, step: int) -> bool:
        while True:
            answer = self.ask(f"[step {step}] {ap_name} (0/1/t/f/true/false)? ").lower()
            if answer in _TRUE_TOKENS:
                return True
            if answer in _FALSE_TOKENS:
                return False


# (low, table): table[record >> low & 255] holds those eight columns'
# bits at their global positions
ColumnTables = tuple[tuple[int, tuple[int, ...]], ...]

# (width, each trace reader with its column tables, every other driver
# with its position and proposition)
ValuationSources = tuple[
    int,
    tuple[tuple[TraceReader, ColumnTables], ...],
    tuple[tuple[int, str, RandomDriver | InteractiveDriver], ...],
]


def _column_tables(header: Sequence[str], positions: dict[str, int]) -> ColumnTables:
    """Tables feeding the column named ``name`` to bit ``positions[name]``."""
    last = len(header) - 1
    columns = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    feeds = {last - columns[name]: bit for name, bit in positions.items()}
    tables = []
    for low in range(0, last + 1, 8):
        table = tuple(
            sum(1 << feeds[low + j] for j in range(8) if chunk >> j & 1 and low + j in feeds)
            for chunk in range(256)
        )
        if any(table):
            tables.append((low, table))
    return tuple(tables)


def collect_valuation(sources: ValuationSources, step: int) -> int | None:
    """The step's global valuation, as one int with the bit of each bound
    proposition at its binding position; None at end of input.

    ``sources`` is what :func:`resolve_bindings` returns. Every trace
    reader decodes the step's record first, once however many
    propositions it feeds and also when it feeds none, so a finished
    trace is detected before any random or interactive driver is
    consulted; those are then asked one proposition at a time, in binding
    order.
    """
    _, readers, others = sources
    bits = 0
    for reader, tables in readers:
        record = reader.record_for_step(step)
        if record is None:
            return None
        for low, table in tables:
            bits |= table[record >> low & 255]
    for position, ap_name, driver in others:
        if driver.value(ap_name, step):
            bits |= 1 << position
    return bits


# ---------------------------------------------------------------------------
# Hooks


@dataclass(frozen=True, slots=True)
class NondetTrigger:
    pass


@dataclass(frozen=True, slots=True)
class DeadlockTrigger:
    pass


@dataclass(frozen=True, slots=True)
class VerdictTrigger:
    kind: str  # good | bad | ugly | conclusive

    def matches(self, verdict: Verdict) -> bool:
        return self.kind == "conclusive" or self.kind == verdict.value


@dataclass(frozen=True, slots=True)
class StateTrigger:
    state: int


@dataclass(frozen=True, slots=True)
class CondTrigger:
    """Fires when the step's global valuation satisfies the condition."""

    expr: LabelExpr
    ap_names: tuple[str, ...]  # Ap(i) in expr refers to ap_names[i]


@dataclass(frozen=True, slots=True)
class RandomChoiceAction:
    pass


@dataclass(frozen=True, slots=True)
class PromptAction:
    pass


@dataclass(frozen=True, slots=True)
class ResetAction:
    pass


@dataclass(frozen=True, slots=True)
class GotoAction:
    state: int


@dataclass(frozen=True, slots=True)
class LogAction:
    template: str


@dataclass(frozen=True, slots=True)
class HaltAction:
    code: int


Trigger = NondetTrigger | DeadlockTrigger | VerdictTrigger | StateTrigger | CondTrigger
Action = (
    RandomChoiceAction | PromptAction | ResetAction | GotoAction | LogAction | HaltAction
)


@dataclass(frozen=True, slots=True)
class HookSpec:
    ident: str
    trigger: Trigger
    action: Action
    scope: str = "*"

    def __post_init__(self) -> None:
        if isinstance(self.action, (RandomChoiceAction, PromptAction)) and not isinstance(
            self.trigger, NondetTrigger
        ):
            raise ConfigError(
                f"hook {self.ident}: that action is only valid for the "
                "nondeterminism trigger"
            )


def parse_condition(text: str) -> tuple[LabelExpr, tuple[str, ...]]:
    """Parse a ``cond:`` formula: an HOA label with proposition names,
    bare (``[A-Za-z_][A-Za-z0-9_-]*``) or quoted, in place of indices.

    ``t``/``f`` are the constants; ``!``, ``&``, ``|``, parentheses,
    comments and the nesting limit of 200 follow the HOA label rules.
    Returns the expression plus the name table its Ap indices refer to,
    in first-use order; raises :class:`ConfigError` on a malformed formula.
    """
    try:
        return parse_named_label(text)
    except HoaParseError as exc:
        raise ConfigError(f"bad condition: {exc}") from None


def parse_trigger(text: str, ident: str) -> Trigger:
    text = text.strip()
    if text == "nondeterminism":
        return NondetTrigger()
    if text == "deadlock":
        return DeadlockTrigger()
    if text.startswith("verdict:"):
        kind = text[len("verdict:") :].strip()
        if kind not in ("good", "bad", "ugly", "conclusive"):
            raise ConfigError(f"hook {ident}: unknown verdict kind {kind!r}")
        return VerdictTrigger(kind)
    if text.startswith("state:"):
        try:
            return StateTrigger(int(text[len("state:") :].strip()))
        except ValueError as exc:
            raise ConfigError(f"hook {ident}: bad state id") from exc
    if text.startswith("cond:"):
        try:
            return CondTrigger(*parse_condition(text[len("cond:") :]))
        except ConfigError as exc:
            raise ConfigError(f"hook {ident}: {exc}") from None
    raise ConfigError(f"hook {ident}: unknown trigger {text!r}")


def parse_action(text: str, ident: str) -> Action:
    text = text.strip()
    if text == "random-choice":
        return RandomChoiceAction()
    if text == "prompt":
        return PromptAction()
    if text == "reset":
        return ResetAction()
    if text.startswith("goto:"):
        try:
            return GotoAction(int(text[len("goto:") :].strip()))
        except ValueError as exc:
            raise ConfigError(f"hook {ident}: bad goto state id") from exc
    if text.startswith("log:"):
        return LogAction(text[len("log:") :])
    if text.startswith("halt:"):
        try:
            return HaltAction(int(text[len("halt:") :].strip()))
        except ValueError as exc:
            raise ConfigError(f"hook {ident}: bad halt code") from exc
    raise ConfigError(f"hook {ident}: unknown action {text!r}")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class Config:
    """Loaded run configuration: driver bindings, hooks, seed, step bound."""

    drivers: tuple[tuple[str, DriverSpec], ...] = ()
    default_driver: DriverSpec | None = None
    hooks: tuple[HookSpec, ...] = ()
    seed: int | None = None
    max_steps: int | None = None


def parse_config(text: str) -> Config:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), interpolation=None
    )
    parser.optionxform = str  # proposition names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    drivers: list[tuple[str, DriverSpec]] = []
    default: DriverSpec | None = None
    hooks: list[HookSpec] = []
    seed: int | None = None
    max_steps: int | None = None

    for section in parser.sections():
        if section == "drivers":
            for key, value in parser.items(section):
                spec = parse_driver_spec(value)
                if key == "default":
                    default = spec
                else:
                    drivers.append((key, spec))
        elif section == "run":
            for key, value in parser.items(section):
                try:
                    if key == "seed":
                        seed = int(value)
                    elif key == "max_steps":
                        max_steps = int(value)
                        if max_steps < 0:
                            raise ConfigError(
                                f"[run] max_steps must not be negative, got {max_steps}"
                            )
                    else:
                        raise ConfigError(f"unknown key {key!r} in [run]")
                except ValueError as exc:
                    raise ConfigError(f"[run] {key} must be an integer") from exc
        elif section.startswith("hooks."):
            ident = section[len("hooks.") :]
            trigger = action = None
            scope = "*"
            for key, value in parser.items(section):
                if key == "trigger":
                    trigger = parse_trigger(value, ident)
                elif key == "action":
                    action = parse_action(value, ident)
                elif key == "scope":
                    scope = value.strip()
                else:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
            if trigger is None or action is None:
                raise ConfigError(f"hook {ident}: trigger and action are required")
            hooks.append(HookSpec(ident, trigger, action, scope))
        else:
            raise ConfigError(f"unknown section [{section}]")
    return Config(tuple(drivers), default, tuple(hooks), seed, max_steps)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# Runners and the loop


# entries a runner's successor memo holds before it is emptied: about
# 1 MB, more than the (state, input) pairs of the benchmark workloads
MEMO_CAP = 1 << 14

# the resting entry where a step has to be taken in full: no memo entry is it
_MOVES = object()
_UNSEEN = object()  # an exits entry not worked out yet
_UNKNOWN = Verdict.UNKNOWN  # compared by identity on the per-step path


class Runner:
    """Tracks one automaton's current state through the execution loop.

    ``projection[i]`` is the bit of the global valuation that holds the
    automaton's proposition i, and ``mask`` has those bits set.
    ``rows[q]`` holds a ``(test, target)`` pair per label leaving state q:
    the test is the label's cubes at global bit positions, or the label
    itself when it has no cover. ``memo`` is the successor memo: it maps
    ``q << shift | bits``, for a state q and an input given as the global
    valuation bits within ``mask``, to the sorted candidate states for
    that input at q. ``run_loop`` probes it; on a miss ``step`` works the
    entry out from ``rows[q]`` and fills it, emptying the memo first when
    it holds ``MEMO_CAP`` entries.

    ``resting`` is the memo entry of a step that would change nothing but
    ``step_count``: ``unique[q]`` at the current state q when the runner
    has no state or cond: hook and observing q again is a no-op (no
    monitor, a latched verdict, or an unknown verdict at q), and
    otherwise an object no memo entry is. The loop counts a step whose
    entry is ``resting`` and calls nothing for it. Every other step is
    taken in full by ``_step_runner``, which sets ``resting`` again by
    that rule once the step and its hooks are done; ``run_loop`` sets it
    to the object no memo entry is when it starts, so each runner's first
    step is taken in full. A step that leaves ``resting`` at ``unique[q]``
    for the state q it started from parks the runner when q has exit
    cubes: any such step when q has at most one, and only one taken on a
    memo miss when it has several. A miss is the costly probe, and where
    the memo has missed it is likely to miss again; once the memo holds
    the inputs a runner meets at q, a hit costs less than filing it
    under several cubes and taking it out again when it soon leaves. So
    parking under several cubes pays while the memo is cold, and less
    as it fills on a long run.

    ``exits[q]`` is q's exit cubes, at global bit positions, when q's
    labels all have covers and cover every input together: for each
    label that leaves q for another state, the smallest cube holding all
    of its cubes, or those cubes when that is every input. Every input
    outside them keeps the runner at q; a sink has none. It is None when
    the runner is never parked at q, and ``_UNSEEN`` until
    ``exit_cubes`` works it out, the first time the loop would park the
    runner at q. Whether q's labels cover every input is the
    automaton's answer (``automata.covers_state``), which monitor attach
    has already found for each state; past the checks' proposition cap,
    where the automaton keeps no answer, the runner's own cubes decide
    (``labels.tautology``). A parked runner stays at q, unprobed, until
    an input in one of those cubes comes; its ``resting`` entry cannot
    change meanwhile, as only its own steps and hooks move it or its
    monitor.
    """

    def __init__(self, automaton: Automaton, label: str, projection: tuple[int, ...]):
        self.automaton = automaton
        self.label = label
        self.start_state = min(automaton.initial)
        self.current_state = self.start_state
        self.step_count = 0
        self.monitor: Monitor | None = None
        # the hooks in scope, by trigger class, in configuration order
        self.triggered: dict[type, list[HookSpec]] = {}
        # ((test, global positions of its propositions), hook) per cond:
        # hook, the test as in rows
        self.conditions: tuple[
            tuple[tuple[Cover | LabelExpr, tuple[int, ...]], HookSpec], ...
        ] = ()
        # whether any state or cond: hook has to be checked after a move
        self.poststep = False
        self.projection = projection
        self.rows: list[list[tuple[Cover | LabelExpr, int]]] = [
            [] for _ in range(automaton.num_states)
        ]
        moved: dict[int, Cover] = {}  # by id of the automaton's own cover
        for t in automaton.transitions:
            _, cubes = cover(t.label, automaton.covers)
            if cubes is not None and id(cubes) not in moved:
                moved[id(cubes)] = remap(cubes, projection)
            self.rows[t.src].append((t.label if cubes is None else moved[id(cubes)], t.dst))
        self.mask = sum(1 << position for position in projection)
        self.shift = self.mask.bit_length()
        self.memo: dict[int, tuple[int, ...]] = {}
        # one shared tuple per state for a unique candidate
        self.unique = tuple((q,) for q in range(automaton.num_states))
        self.resting: object = _MOVES
        self.exits: list[tuple[Cube, ...] | None | object] = [_UNSEEN] * automaton.num_states

    def exit_cubes(self, q: int) -> tuple[Cube, ...] | None:
        """``exits[q]``, worked out on first use: when q's labels all have
        covers and cover every input together, one cube for each label
        that leaves q for another state, the smallest that holds all of
        its cubes, or those cubes when it would hold every input; without
        repeats. Otherwise None."""
        if self.exits[q] is not _UNSEEN:
            return self.exits[q]
        rows = self.rows[q]
        found = None
        if all(test.__class__ is tuple for test, _ in rows):
            try:
                complete = covers_state(self.automaton, q)
            except CapacityError:  # past the checks' cap: the runner's covers decide
                complete = tautology([cube for test, _ in rows for cube in test])
            if complete:
                filed: list[Cube] = []
                for test, target in rows:
                    if target != q and test:
                        care, value = hull(test)
                        filed.extend(test if not care else ((care, value),))
                found = tuple(dict.fromkeys(filed))
        self.exits[q] = found
        return found


def step(runner: Runner, bits: int, found: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Evaluate one input, the global valuation ``bits``, on a runner;
    returns its candidate states, sorted.

    Exactly one candidate advances the runner (state, step count, and the
    monitor's view); none (a deadlock) or several (nondeterminism) leave
    the runner untouched until hooks decide. ``found`` is the memo entry
    the loop found for this input at the current state, or ``unique[c]``
    for the candidate c a hook chose among several; without it the
    candidates are worked out from ``rows`` and stored in the memo.
    """
    if found is None:
        state = runner.current_state
        bits &= runner.mask
        targets = []
        for test, target in runner.rows[state]:
            if test.__class__ is not tuple:  # a label without a cover
                if holds(test, bits, runner.projection):
                    targets.append(target)
                continue
            for care, value in test:
                if bits & care == value:
                    targets.append(target)
                    break
        if len(targets) > 1:
            targets = sorted(set(targets))
        found = runner.unique[targets[0]] if len(targets) == 1 else tuple(targets)
        memo = runner.memo
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[state << runner.shift | bits] = found
    if len(found) == 1:
        runner.current_state = found[0]
        runner.step_count += 1
        if runner.monitor is not None:
            runner.monitor.observe(found[0])
    return found


@dataclass(frozen=True, slots=True)
class VerdictEvent:
    step: int
    runner: str
    verdict: Verdict


@dataclass(frozen=True, slots=True)
class LogEvent:
    step: int
    runner: str
    message: str


class StepEvent:
    """The end of one step: its input and every runner's state after it.

    The loop stores the input as its global valuation bits and their
    width, and the runners' current states, as they are; ``valuation``,
    ``bits`` and ``states`` are worked out when read.
    """

    __slots__ = ("step", "_bits", "_width", "_runners", "_states")

    def __init__(
        self, step: int, bits: int, width: int, runners: Sequence[Runner], states: tuple[int, ...]
    ):
        self.step = step
        self._bits = bits
        self._width = width
        self._runners = runners
        self._states = states

    @property
    def valuation(self) -> Valuation:
        return Valuation(self._bits, self._width)

    @property
    def bits(self) -> str:
        return self.valuation.bit_string()

    @property
    def states(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (r.label, r.automaton.display_id(q)) for r, q in zip(self._runners, self._states)
        )


@dataclass(frozen=True, slots=True)
class RunnerSummary:
    label: str
    final_state: int
    step_count: int
    final_verdict: Verdict | None


@dataclass(frozen=True, slots=True)
class ExitReport:
    """Outcome of a run: why it stopped, and how many BAD verdicts it
    reported; the verdicts themselves go to ``on_event`` only."""

    reason: str  # end-of-input | steps-exhausted | halt | nondeterminism | deadlock
    steps: int
    runners: tuple[RunnerSummary, ...]
    bad_verdicts: int
    halt_code: int | None = None
    fatal_runner: str | None = None


class _Halt(Exception):
    def __init__(self, code: int):
        self.code = code


class _Fatal(Exception):
    def __init__(self, reason: str, runner: str):
        self.reason = reason
        self.runner = runner


def build_universe(automata: Iterable[Automaton]) -> tuple[str, ...]:
    """Union of proposition names, in first-seen order."""
    names: list[str] = []
    seen: set[str] = set()
    for automaton in automata:
        for name in automaton.aps:
            if name not in seen:
                seen.add(name)
                names.append(name)
    return tuple(names)


def resolve_bindings(
    universe: Sequence[str],
    config: Config,
    *,
    seed: int,
    trace_text: str | None = None,
    interactive_in: TextIO | None = None,
    interactive_out: TextIO | None = None,
) -> ValuationSources:
    """Make one driver per proposition, grouped for :func:`collect_valuation`.

    Each ``file:`` path is opened once, as one reader shared by every
    proposition bound to it; the default's path is opened also when no
    proposition falls to it, so every trace the configuration names paces
    the run. ``trace_text`` is the text of every ``file:`` driver. Random
    streams are seeded from the global seed and the binding position
    unless the spec pins a seed.
    """
    unknown = [name for name, _ in config.drivers if name not in universe]
    if unknown:
        raise ConfigError(
            f"driver bound to unknown proposition {unknown[0]!r}"
        )
    by_name = dict(config.drivers)
    specs: list[DriverSpec] = []
    for name in universe:
        spec = by_name.get(name, config.default_driver)
        if spec is None:
            raise ConfigError(
                f"proposition {name!r} has no driver and no default is set"
            )
        specs.append(spec)

    # path -> (its reader, the position of each proposition it feeds)
    fed: dict[str, tuple[TraceReader, dict[str, int]]] = {}

    def reader_for(path: str) -> tuple[TraceReader, dict[str, int]]:
        if path not in fed:
            fed[path] = (TraceReader(path, text=trace_text), {})
        return fed[path]

    others = []
    for position, (name, spec) in enumerate(zip(universe, specs)):
        if isinstance(spec, FileSpec):
            reader, positions = reader_for(spec.path)
            if name not in reader.header:
                raise ConfigError(
                    f"trace {spec.path!r} has no column for proposition {name!r}"
                )
            positions[name] = position
        elif isinstance(spec, RandomSpec):
            stream_seed = spec.seed if spec.seed is not None else f"{seed}:driver:{position}"
            others.append((position, name, RandomDriver(spec, Random(stream_seed))))
        else:
            others.append(
                (position, name, InteractiveDriver(interactive_in, interactive_out))
            )
    if isinstance(config.default_driver, FileSpec):
        reader_for(config.default_driver.path)
    readers = tuple(
        (reader, _column_tables(reader.header, positions)) for reader, positions in fed.values()
    )
    return len(universe), readers, tuple(others)


def prepare_runners(
    automata: Sequence[Automaton],
    universe: Sequence[str],
    hooks: Sequence[HookSpec] = (),
) -> list[Runner]:
    """Create runners, with their labels and ``cond:`` formulas as cubes at
    the universe's positions, and attach scoped hooks, with the HOA text's
    state ids in ``state:`` and ``goto:`` turned into state numbers."""
    runners = []
    positions = {name: i for i, name in enumerate(universe)}
    for index, automaton in enumerate(automata):
        label = automaton.name if automaton.name else str(index)
        projection = tuple(positions[name] for name in automaton.aps)
        runner = Runner(automaton, label, projection)
        ids = automaton.display_ids or range(automaton.num_states)
        conditions = []
        for hook in hooks:
            if hook.scope not in ("*", label, str(index)):
                continue
            trigger, action = hook.trigger, hook.action
            for named in (action, trigger):
                if isinstance(named, (GotoAction, StateTrigger)) and named.state not in ids:
                    raise ConfigError(
                        f"hook {hook.ident}: state {named.state} does not exist in "
                        f"automaton {label}"
                    )
            if isinstance(trigger, StateTrigger):
                hook = replace(hook, trigger=StateTrigger(ids.index(trigger.state)))
            if isinstance(action, GotoAction):
                hook = replace(hook, action=GotoAction(ids.index(action.state)))
            if isinstance(trigger, CondTrigger):
                unbound = [n for n in trigger.ap_names if n not in positions]
                if unbound:
                    raise ConfigError(
                        f"hook {hook.ident}: condition references unbound "
                        f"proposition {unbound[0]!r}"
                    )
                cond_positions = tuple(positions[n] for n in trigger.ap_names)
                _, cubes = cover(trigger.expr)
                test = trigger.expr if cubes is None else remap(cubes, cond_positions)
                conditions.append(((test, cond_positions), hook))
            runner.triggered.setdefault(type(trigger), []).append(hook)
        runner.conditions = tuple(conditions)
        runner.poststep = bool(conditions) or StateTrigger in runner.triggered
        runners.append(runner)
    return runners


class _LoopContext:
    def __init__(self, seed, on_event, interactive_in, interactive_out):
        self.hook_rng = Random(f"{seed}:hooks")
        self.on_event = on_event or (lambda event: None)
        # asks the user to resolve nondeterminism, for prompt: hooks
        self.user = InteractiveDriver(interactive_in, interactive_out)
        self.bad_verdicts = 0
        self.step_index = 0
        self.bits = 0  # the step's global valuation


def run_loop(
    runners: Sequence[Runner],
    sources: ValuationSources,
    *,
    seed: int = 0,
    max_steps: int | None = None,
    on_event: Callable[[object], None] | None = None,
    interactive_in: TextIO | None = None,
    interactive_out: TextIO | None = None,
) -> ExitReport:
    """Drive all runners in lockstep until input ends, steps run out, or a
    hook halts; unresolved nondeterminism or deadlock stops the run.

    ``sources`` is what :func:`resolve_bindings` returns: each of its
    trace readers gives one record per step, and the first to end ends
    the run.

    A step that leaves a runner resting where it was parks it when its
    state has exit cubes (``Runner.exit_cubes``): every input outside
    them would leave it in place and unseen again. A memo hit parks it
    only at a state with at most one; a memo miss, the costly step, at
    any (``Runner`` says why). A parked runner is filed under
    ``watch[care][value]`` for each of its cubes and costs nothing per
    step; each step looks up its input once per care mask in ``watch``,
    and the runners it finds are unparked and leave all their groups,
    which are those of the cubes in ``exits`` at the state they waited
    in, so an input in two of a runner's cubes wakes it once; they step
    with the busy ones, in runner order. Groups and care masks left
    empty are dropped. A parked runner's steps
    are counted when it is unparked, and when the loop ends, however it
    ends."""
    ctx = _LoopContext(seed, on_event, interactive_in, interactive_out)
    reason = "steps-exhausted"
    halt_code: int | None = None
    fatal_runner: str | None = None
    runners = tuple(runners)
    width = sources[0]
    for runner in runners:
        runner.resting = _MOVES
    states = [runner.current_state for runner in runners]
    busy = list(range(len(runners)))  # the positions of the runners not parked, in order
    # the parked positions by exit cube, each under every exit cube of its
    # state; an emptied group, and a care mask left without groups, go
    watch: dict[int, dict[int, list[int]]] = {}
    since: dict[int, int] = {}  # a parked runner's position: its first step not counted
    emptied: list[int] = []  # care masks that may have been left without groups
    # the position whose step was under way; the parked runners before it
    # have passed step ctx.step_index too
    upto = 0
    try:
        while max_steps is None or ctx.step_index < max_steps:
            bits = collect_valuation(sources, ctx.step_index)
            if bits is None:
                reason = "end-of-input"
                break
            ctx.bits = bits
            if since:
                for care, parked in watch.items():
                    woken = parked.pop(bits & care, None)
                    if woken is None:
                        continue
                    for position in woken:
                        runner = runners[position]
                        runner.step_count += ctx.step_index - since.pop(position)
                        insort(busy, position)
                        cubes = runner.exits[runner.current_state]
                        if len(cubes) > 1:
                            # leave its other groups; the one that woke it is gone
                            for other, value in cubes:
                                group = watch[other].get(value)
                                if group is None:
                                    continue
                                if len(group) > 1:
                                    group.remove(position)
                                    continue
                                del watch[other][value]
                                emptied.append(other)
                    if not parked:
                        emptied.append(care)
                if emptied:
                    for care in emptied:
                        if care in watch and not watch[care]:
                            del watch[care]
                    emptied.clear()
            for upto in busy[:]:
                runner = runners[upto]
                state = runner.current_state
                found = runner.memo.get(state << runner.shift | bits & runner.mask)
                if found is runner.resting:
                    runner.step_count += 1
                    cubes = runner.exits[state]
                    if cubes is _UNSEEN:
                        cubes = runner.exit_cubes(state)
                    if cubes is None or len(cubes) > 1:
                        continue
                else:
                    _step_runner(runner, bits, found, ctx)
                    states[upto] = runner.current_state
                    if runner.resting is not runner.unique[state]:
                        continue
                    cubes = runner.exit_cubes(state)
                    # under several cubes only after a memo miss
                    if cubes is None or found is not None and len(cubes) > 1:
                        continue
                for care, value in cubes:
                    watch.setdefault(care, {}).setdefault(value, []).append(upto)
                since[upto] = ctx.step_index + 1
                busy.remove(upto)
            upto = len(runners)
            ctx.on_event(StepEvent(ctx.step_index, bits, width, runners, tuple(states)))
            ctx.step_index += 1
            upto = 0
    except _Halt as halt:
        reason = "halt"
        halt_code = halt.code
    except _Fatal as fatal:
        reason = fatal.reason
        fatal_runner = fatal.runner
    finally:
        for position, first in since.items():
            runners[position].step_count += ctx.step_index - first + (position < upto)
    summaries = tuple(
        RunnerSummary(
            r.label,
            r.automaton.display_id(r.current_state),
            r.step_count,
            r.monitor.current_verdict if r.monitor else None,
        )
        for r in runners
    )
    return ExitReport(
        reason=reason,
        steps=ctx.step_index,
        runners=summaries,
        bad_verdicts=ctx.bad_verdicts,
        halt_code=halt_code,
        fatal_runner=fatal_runner,
    )


def _step_runner(
    runner: Runner, bits: int, found: tuple[int, ...] | None, ctx: _LoopContext
) -> None:
    monitor = runner.monitor
    before = monitor.current_verdict if monitor is not None else None
    candidates = step(runner, bits, found)
    if len(candidates) == 1:
        if monitor is not None and monitor.current_verdict is not before:
            _emit_verdict_change(runner, ctx)
        if runner.poststep:
            _fire_poststep_hooks(runner, ctx)
    elif not _fire_resolution_hooks(runner, candidates, ctx):
        raise _Fatal("nondeterminism" if candidates else "deadlock", runner.label)
    # the step and its hooks are all that move this runner or its latch;
    # observing a state whose verdict is conclusive latches it
    state = runner.current_state
    if runner.poststep or (
        monitor is not None
        and monitor.current_verdict is _UNKNOWN
        and monitor.verdicts[state] is not _UNKNOWN
    ):
        runner.resting = _MOVES
    else:
        runner.resting = runner.unique[state]


def _emit_verdict_change(runner: Runner, ctx: _LoopContext) -> None:
    """Report the runner's latch, which has just moved, if it is conclusive."""
    now = runner.monitor.current_verdict
    if now.conclusive:
        if now is Verdict.BAD:
            ctx.bad_verdicts += 1
        ctx.on_event(VerdictEvent(ctx.step_index, runner.label, now))
        for hook in runner.triggered.get(VerdictTrigger, ()):
            if hook.trigger.matches(now):
                _apply_action(runner, hook, (), ctx)
                break


def _fire_poststep_hooks(runner: Runner, ctx: _LoopContext) -> None:
    # the state check and the condition check are separate occurrences;
    # within each, the first matching hook wins
    for hook in runner.triggered.get(StateTrigger, ()):
        if runner.current_state == hook.trigger.state:
            _apply_action(runner, hook, (), ctx)
            break
    bits = ctx.bits
    for (test, positions), hook in runner.conditions:
        if (
            any(bits & care == value for care, value in test)
            if test.__class__ is tuple
            else holds(test, bits, positions)
        ):
            _apply_action(runner, hook, (), ctx)
            break


def _fire_resolution_hooks(
    runner: Runner, candidates: tuple[int, ...], ctx: _LoopContext
) -> bool:
    """First matching hook resolves a deadlock (no candidates) or
    nondeterminism (several); log actions observe and fall through.
    Returns False when nothing resolved it."""
    trigger = NondetTrigger if candidates else DeadlockTrigger
    for hook in runner.triggered.get(trigger, ()):
        if _apply_action(runner, hook, candidates, ctx):
            return True
    return False


def _apply_action(
    runner: Runner,
    hook: HookSpec,
    candidates: tuple[int, ...],
    ctx: _LoopContext,
) -> bool:
    """Apply one hook action; True iff it resolved the triggering event."""
    action = hook.action
    if isinstance(action, (RandomChoiceAction, PromptAction)):
        if isinstance(action, RandomChoiceAction):
            choice = candidates[ctx.hook_rng.randrange(len(candidates))]
        else:
            choice = _prompt_choice(runner, candidates, ctx)
        _step_runner(runner, ctx.bits, runner.unique[choice], ctx)
        return True
    if isinstance(action, ResetAction):
        runner.current_state = runner.start_state
        if runner.monitor is not None:
            runner.monitor.reset()
        return True
    if isinstance(action, GotoAction):
        runner.current_state = action.state
        monitor = runner.monitor
        if monitor is not None:
            before = monitor.current_verdict
            monitor.observe(action.state)
            if monitor.current_verdict is not before:
                _emit_verdict_change(runner, ctx)
        return True
    if isinstance(action, LogAction):
        context = {
            "step": ctx.step_index,
            "automaton": runner.label,
            "state": runner.automaton.display_id(runner.current_state),
            "hook": hook.ident,
        }
        try:
            message = action.template.format(**context)
        except (KeyError, IndexError, ValueError, AttributeError, TypeError):
            message = action.template
        ctx.on_event(LogEvent(ctx.step_index, runner.label, message))
        return False
    if isinstance(action, HaltAction):
        raise _Halt(action.code)
    raise TypeError(f"unknown action {action!r}")


def _prompt_choice(runner: Runner, candidates: tuple[int, ...], ctx: _LoopContext) -> int:
    shown = ", ".join(str(runner.automaton.display_id(c)) for c in candidates)
    display_to_state = {runner.automaton.display_id(c): c for c in candidates}
    prompt = f"[step {ctx.step_index}] {runner.label}: choose next state ({shown})? "
    while True:
        try:
            picked = int(ctx.user.ask(prompt))
        except ValueError:
            continue
        if picked in display_to_state:
            return display_to_state[picked]
