"""Execution loop machinery: drivers feed valuations, runners step automata,
hooks react to nondeterminism, deadlock, verdict changes and user conditions.

Atomic propositions are shared across automata by name: every step one
global valuation is collected, as one int with a bit per proposition;
a trace reader decodes each distinct line once. Each runner reads its
automaton's compiled labels (``automata.Compiled``), a decision diagram
per state, and its ``cond:`` formulas as diagrams, at the global bits of
their names, and memoises its candidate states per (state, input) in at
most ``MEMO_CAP`` entries. The loop counts a step that its memo says
changes nothing and calls nothing for it, and parks a runner that only a
few cubes of inputs can move until one of them comes. A memo hit that
moves a runner goes straight to ``_advance``, which every move shares;
a miss goes through ``step``, which walks the table first. All
randomness flows from per-purpose streams derived from the global seed,
so identical inputs replay identically.
"""

from __future__ import annotations

import configparser
import io
import re
import sys
from bisect import insort
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .automata import Automaton, Compiled
from .hoa import HoaParseError, parse_named_label
from .labels import NODE_BUDGET, CapacityError, LabelExpr, Valuation, walk
from .monitoring import Monitor, Verdict
from .records import record, replace, set_field


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


# distinct lines a trace reader keeps decoded before it empties its memo:
# a trace over k columns has at most 2**k distinct records, and the lock
# traces up to n = 16 (10 columns) stay under it
LINE_CAP = 1 << 12

_SKIP = object()  # the record of a blank or comment line


def _lines(path: str, source: TextIO) -> Iterator[str]:
    """The lines of ``source``, the trace ``path``, read one at a time.
    ``source`` is closed at its end, or when the generator is dropped: it
    does not refer to its reader, so dropping the reader drops it without
    the cycle collector."""
    with source:
        try:
            yield from source
        except UnicodeDecodeError as exc:
            raise TraceError(f"trace {path!r} is not valid UTF-8 ({exc.reason})") from None


class TraceReader:
    """Reader over one trace file, shared by every proposition bound to it.

    Format: '#' lines are comments, the first significant line names the
    propositions, every following significant line holds one 0/1 token
    per name. One record is consumed per step regardless of how many
    propositions read from it. Each distinct line is checked and decoded
    once, to one int (:meth:`next_record`), and kept in a memo from line
    text to record, emptied when it holds ``LINE_CAP`` lines; a line that
    fails its check is not kept, so each of its occurrences raises.
    Columns no proposition is bound to are checked but otherwise ignored.
    The file, standard input for the path ``-``, is read one line at a
    time, so memory does not grow with its length, and closed at its end
    or when the reader is dropped.
    """

    def __init__(self, path: str, text: str | None = None):
        self.path = path
        if text is not None:
            source: TextIO = io.StringIO(text, newline=None)
        elif path == "-":  # standard input, which stays open after the trace
            source = open(sys.stdin.fileno(), encoding="utf-8", closefd=False)
        else:
            source = open(path, encoding="utf-8")
        # (line number, line); the generator, not the reader, holds the file
        self._lines = enumerate(_lines(path, source), start=1)
        self._records: dict[str, int | object] = {}
        for _, line in self._lines:
            names = line.split()
            if names and not names[0].startswith("#"):
                self.header: tuple[str, ...] = tuple(names)
                break
        else:
            raise TraceError("trace has no header line")

    def next_record(self) -> int | None:
        """The next record, column i at bit ``len(header) - 1 - i``; None
        at end of input."""
        records = self._records
        for number, line in self._lines:
            record = records.get(line)
            if record is None:
                # a line not seen since the memo was last emptied
                tokens = line.split()
                if not tokens or tokens[0].startswith("#"):
                    record = _SKIP
                else:
                    if len(tokens) != len(self.header):
                        raise TraceError(
                            f"expected {len(self.header)} columns, found {len(tokens)}", number
                        )
                    row = "".join(tokens)
                    # every token is one character, and each of them is 0 or 1
                    if len(row) != len(tokens) or row.strip("01"):
                        bad = next(token for token in tokens if token not in ("0", "1"))
                        raise TraceError(f"expected 0 or 1, found {bad!r}", number)
                    record = int(row, 2)
                if len(records) >= LINE_CAP:
                    records.clear()
                records[line] = record
            if record is not _SKIP:
                return record
        return None


# ---------------------------------------------------------------------------
# Drivers

_TRUE_TOKENS = {"1", "t", "true"}
_FALSE_TOKENS = {"0", "f", "false"}


@record
class InteractiveSpec:
    pass


@record
class FileSpec:
    path: str


@record
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
        record = reader.next_record()
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


@record
class NondetTrigger:
    pass


@record
class DeadlockTrigger:
    pass


@record
class VerdictTrigger:
    kind: str  # good | bad | ugly | conclusive

    def matches(self, verdict: Verdict) -> bool:
        return self.kind == "conclusive" or self.kind == verdict.value


@record
class StateTrigger:
    state: int


@record
class CondTrigger:
    """Fires when the step's global valuation satisfies the condition."""

    expr: LabelExpr
    ap_names: tuple[str, ...]  # Ap(i) in expr refers to ap_names[i]


@record
class RandomChoiceAction:
    pass


@record
class PromptAction:
    pass


@record
class ResetAction:
    pass


@record
class GotoAction:
    state: int


@record
class LogAction:
    template: str


@record
class HaltAction:
    code: int


Trigger = NondetTrigger | DeadlockTrigger | VerdictTrigger | StateTrigger | CondTrigger
Action = (
    RandomChoiceAction | PromptAction | ResetAction | GotoAction | LogAction | HaltAction
)


@record
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


@record
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
_UNKNOWN = Verdict.UNKNOWN  # compared by identity on the per-step path


class Runner:
    """Tracks one automaton's current state through the execution loop.

    ``projection[i]`` is the global bit of the automaton's proposition i,
    and ``mask`` has those bits set. ``walks[q]`` is state q's table
    (``Compiled.tables``) placed at those bits, and ``targets[q]`` maps
    the leaf it reaches on an input to the sorted candidate states,
    ``unique[t]`` for t alone. ``memo`` maps ``q << shift | bits``, with
    the input's bits within ``mask``, to those candidates: ``run_loop``
    probes it, and on a miss ``step`` walks ``walks[q]`` and fills it,
    emptying it first when it holds ``MEMO_CAP`` entries. A state without
    a table, one over the node budget (``labels.NODE_BUDGET``), refuses
    the runner with ``CapacityError``.

    ``resting`` is the memo entry of a step that would change nothing but
    ``step_count``: ``unique[q]`` at the current state q when the runner
    has no state or cond: hook and observing q again is a no-op (no
    monitor, a latched verdict, or an unknown verdict at q), and otherwise
    an object no memo entry is, as when the loop starts, or after a hook
    moved the runner. The loop counts a step whose entry is ``resting``;
    the others go to ``_advance``, or on a miss or with no or several
    candidates to ``_step_in_full``.

    ``exits[q]`` is q's exit cubes (``Compiled.exits``) at the global
    bits, or None where the runner is never parked. A step that leaves
    ``resting`` at ``unique[q]`` for the state q it started from parks
    the runner under them until an input in one comes: any such step when
    q has at most one, only a memo miss when it has several, as where the
    memo missed it is likely to miss again, while once it is warm a hit
    costs less than filing the runner and waking it when it leaves.
    """

    def __init__(self, compiled: Compiled, label: str, projection: tuple[int, ...]):
        automaton = self.automaton = compiled.automaton
        self.label = label
        self.start_state = min(automaton.initial)
        self.current_state = self.start_state
        self.step_count = 0
        self.monitor: Monitor | None = None
        # the hooks in scope, by trigger class, in configuration order
        self.triggered: dict[type, list[HookSpec]] = {}
        # (placed diagram, hook) per cond: hook, True where the hook fires
        self.conditions: tuple[tuple[object, HookSpec], ...] = ()
        # whether any state or cond: hook has to be checked after a move
        self.poststep = False
        for state, table in enumerate(compiled.tables):
            if table.root is None:
                raise CapacityError(
                    f"cannot run {label}: the labels leaving state "
                    f"{automaton.display_id(state)} take a decision diagram of over "
                    f"{NODE_BUDGET} nodes"
                )
        # shared by the states, whose tables share nodes, and by the
        # runners at the same projection
        placed = compiled.diagrams.walks.setdefault(projection, {})
        self.walks = tuple(
            compiled.diagrams.placed(table.root, projection, placed) for table in compiled.tables
        )
        self.targets = compiled.targets

        def moved(bits: int) -> int:
            return sum(1 << at for i, at in enumerate(projection) if bits >> i & 1)

        placed_exits = {
            cubes: tuple((moved(care), moved(value)) for care, value in cubes)
            for cubes in set(compiled.exits) - {None}
        }
        self.exits = tuple(placed_exits.get(cubes) for cubes in compiled.exits)
        self.mask = sum(1 << position for position in projection)
        self.shift = self.mask.bit_length()
        self.memo: dict[int, tuple[int, ...]] = {}
        self.unique = compiled.unique
        self.resting: object = _MOVES


def step(runner: Runner, bits: int, ctx: _LoopContext | None = None) -> tuple[int, ...]:
    """Evaluate one input, the global valuation ``bits``, on a runner by
    walking its current state's table, and memoise the result; returns
    its candidate states, sorted.

    Exactly one candidate advances the runner (:func:`_advance`); none (a
    deadlock) or several (nondeterminism) leave the runner untouched
    until hooks decide. ``ctx`` is the loop's: without it the advance
    moves the runner and its monitor but reports nothing and runs no hook.
    """
    state = runner.current_state
    bits &= runner.mask
    found = runner.targets[state][walk(runner.walks[state], bits)]
    memo = runner.memo
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[state << runner.shift | bits] = found
    if len(found) == 1:
        _advance(runner, found[0], ctx)
    return found


def _advance(runner: Runner, state: int, ctx: _LoopContext | None) -> None:
    """Move the runner into ``state``, its one candidate, found by a memo
    hit, a walk or a hook's choice: count the step, let the monitor
    observe the state, report a latch that has just moved, run the
    post-step hooks, and set ``resting`` for the state the runner is left
    in. Without ``ctx`` nothing is reported and no hook runs. The next
    step may be counted without a call only when nothing would see it:
    no post-step hook, and no monitor that observing the state latches."""
    runner.current_state = state
    runner.step_count += 1
    monitor = runner.monitor
    if monitor is not None:
        latched = monitor.current_verdict
        if monitor.observe(state) is not latched and ctx is not None:
            _emit_verdict_change(runner, ctx)
    if runner.poststep:
        if ctx is not None:
            _fire_poststep_hooks(runner, ctx)
        runner.resting = _MOVES
        return
    state = runner.current_state
    if (
        monitor is not None
        and monitor.current_verdict is _UNKNOWN
        and monitor.verdicts[state] is not _UNKNOWN
    ):
        runner.resting = _MOVES
    else:
        runner.resting = runner.unique[state]


@record
class VerdictEvent:
    step: int
    runner: str
    verdict: Verdict

    def __init__(self, step: int, runner: str, verdict: Verdict):  # one per verdict change
        set_field(self, "step", step)
        set_field(self, "runner", runner)
        set_field(self, "verdict", verdict)


@record
class LogEvent:
    step: int
    runner: str
    message: str

    def __init__(self, step: int, runner: str, message: str):  # one per log action
        set_field(self, "step", step)
        set_field(self, "runner", runner)
        set_field(self, "message", message)


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


@record
class RunnerSummary:
    label: str
    final_state: int
    step_count: int
    final_verdict: Verdict | None

    def __init__(  # one per runner
        self, label: str, final_state: int, step_count: int, final_verdict: Verdict | None
    ):
        set_field(self, "label", label)
        set_field(self, "final_state", final_state)
        set_field(self, "step_count", step_count)
        set_field(self, "final_verdict", final_verdict)


@record
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
    compiled: Sequence[Compiled],
    universe: Sequence[str],
    hooks: Sequence[HookSpec] = (),
) -> list[Runner]:
    """Create a runner for each automaton's :class:`Compiled`, at the
    universe's positions, and attach scoped hooks, with ``cond:`` formulas
    as diagrams in the store of the first runner in scope, one per hook
    that the runners in its scope share, and the HOA text's state ids in
    ``state:`` and ``goto:`` turned into state numbers."""
    runners = []
    positions = {name: i for i, name in enumerate(universe)}
    tests: dict[int, object] = {}  # by hook number, the placed diagram of its condition
    for index, item in enumerate(compiled):
        automaton = item.automaton
        label = automaton.name if automaton.name else str(index)
        projection = tuple(positions[name] for name in automaton.aps)
        runner = Runner(item, label, projection)
        ids = automaton.display_ids or range(automaton.num_states)
        conditions = []
        for number, hook in enumerate(hooks):
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
                if number not in tests:
                    unbound = [n for n in trigger.ap_names if n not in positions]
                    if unbound:
                        raise ConfigError(
                            f"hook {hook.ident}: condition references unbound "
                            f"proposition {unbound[0]!r}"
                        )
                    _, node = item.diagrams.label(trigger.expr)
                    if node is None:
                        raise ConfigError(
                            f"hook {hook.ident}: condition takes a decision diagram of "
                            f"over {NODE_BUDGET} nodes"
                        )
                    places = tuple(positions[n] for n in trigger.ap_names)
                    tests[number] = item.diagrams.placed(node, places, {})
                conditions.append((tests[number], hook))
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

    A runner that is not parked is probed in its memo once per step. A
    hit with one candidate is advanced by one call, :func:`_advance`; a
    miss goes through :func:`step`, and no or several candidates to the
    hooks (``_step_in_full``).

    A runner parked by the rule of ``Runner`` is filed under
    ``watch[care][value]`` for each of its exit cubes, with the step its
    parking began, and costs nothing per step: each step looks its input
    up once per care mask and takes the groups it finds out of the index.
    A runner in one of them is unparked, and steps with the busy ones in
    runner order, when its entry is of the parking under way; an entry of
    a parking that another group has ended is dropped, so an input in two
    of a runner's cubes wakes it once. A parked runner's steps are counted
    when it is unparked, and when the loop ends, however it ends."""
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
    # by exit cube, the parked positions and the step each parking began: a
    # runner is filed under every exit cube of its state, and keeps its
    # entry in the others when one of them wakes it. Filing overwrites a
    # position's entry and a woken group goes, so the index holds at most
    # one entry per runner and exit cube of its automaton, however long the
    # trace.
    watch: dict[int, dict[int, dict[int, int]]] = {}
    since: dict[int, int] = {}  # a parked runner's position: its first step not counted
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
                    for position, first in woken.items():
                        if since.get(position) == first:
                            del since[position]
                            runners[position].step_count += ctx.step_index - first
                            insort(busy, position)
            for upto in busy[:]:
                runner = runners[upto]
                state = runner.current_state
                found = runner.memo.get(state << runner.shift | bits & runner.mask)
                if found is runner.resting:
                    runner.step_count += 1
                    cubes = runner.exits[state]
                    if cubes is None or len(cubes) > 1:
                        continue
                else:
                    if found is not None and len(found) == 1:
                        _advance(runner, found[0], ctx)
                    else:
                        _step_in_full(runner, bits, found, ctx)
                    states[upto] = runner.current_state
                    if runner.resting is not runner.unique[state]:
                        continue
                    cubes = runner.exits[state]
                    # under several cubes only after a memo miss
                    if cubes is None or found is not None and len(cubes) > 1:
                        continue
                first = since[upto] = ctx.step_index + 1
                for care, value in cubes:
                    watch.setdefault(care, {}).setdefault(value, {})[upto] = first
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


def _step_in_full(
    runner: Runner, bits: int, found: tuple[int, ...] | None, ctx: _LoopContext
) -> None:
    """A step that is not a memo hit with one candidate: a miss, which
    :func:`step` walks, or no or several candidates, which hooks resolve."""
    if found is None:
        found = step(runner, bits, ctx)
        if len(found) == 1:
            return
    if not _fire_resolution_hooks(runner, found, ctx):
        raise _Fatal("nondeterminism" if found else "deadlock", runner.label)


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
    for test, hook in runner.conditions:
        if walk(test, ctx.bits):
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
        _advance(runner, choice, ctx)
        return True
    # a reset or a goto moves the runner without an advance, so the next
    # step is taken in full
    if isinstance(action, ResetAction):
        runner.current_state = runner.start_state
        runner.resting = _MOVES
        if runner.monitor is not None:
            runner.monitor.reset()
        return True
    if isinstance(action, GotoAction):
        runner.current_state = action.state
        runner.resting = _MOVES
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
