"""Execution loop machinery: drivers feed valuations, runners step automata,
hooks react to nondeterminism, deadlock, verdict changes and user conditions.

Atomic propositions are shared across automata by name: every step one
global valuation is collected, and each runner projects it through its
own proposition list. All randomness flows from per-purpose streams
derived from the global seed, so identical inputs replay identically.
"""

from __future__ import annotations

import configparser
import re
import sys
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence, TextIO

from .automata import Automaton
from .labels import (
    FALSE,
    TRUE,
    And,
    Ap,
    LabelExpr,
    Not,
    Or,
    Valuation,
    compile_label,
    land,
    lor,
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


class TraceReader:
    """Reader over one trace file, shared by every proposition bound to it.

    Format: '#' lines are comments, the first significant line names the
    propositions, every following significant line holds one 0/1 token
    per name. One record is consumed per step regardless of how many
    propositions read from it.
    """

    def __init__(self, path: str, text: str | None = None):
        self.path = path
        if text is None:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        self._lines = iter(enumerate(text.splitlines(), start=1))
        header = self._next_significant()
        if header is None:
            raise TraceError("trace has no header line")
        _, header_line = header
        self.header: tuple[str, ...] = tuple(header_line.split())
        self._columns = {name: i for i, name in enumerate(self.header)}
        self._step = -1
        self._row: tuple[bool, ...] | None = None

    def _next_significant(self) -> tuple[int, str] | None:
        for number, line in self._lines:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                return number, stripped
        return None

    def row_for_step(self, step: int) -> tuple[bool, ...] | None:
        """Record for ``step``, advancing at most once; None at end of input."""
        if step == self._step:
            return self._row
        entry = self._next_significant()
        if entry is None:
            self._row = None
            self._step = step
            return None
        number, line = entry
        tokens = line.split()
        if len(tokens) != len(self.header):
            raise TraceError(
                f"expected {len(self.header)} columns, found {len(tokens)}", number
            )
        values = []
        for token in tokens:
            if token not in ("0", "1"):
                raise TraceError(f"expected 0 or 1, found {token!r}", number)
            values.append(token == "1")
        self._row = tuple(values)
        self._step = step
        return self._row

    def value(self, ap_name: str) -> bool:
        if self._row is None:
            raise TraceError("no current record")
        return self._row[self._columns[ap_name]]


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


class FileDriver:
    def __init__(self, reader: TraceReader):
        self.reader = reader

    def value(self, ap_name: str, step: int) -> bool:
        return self.reader.value(ap_name)


class InteractiveDriver:
    def __init__(self, instream: TextIO | None = None, outstream: TextIO | None = None):
        self.instream = instream if instream is not None else sys.stdin
        self.outstream = outstream if outstream is not None else sys.stderr

    def _ask(self, prompt: str) -> str:
        self.outstream.write(prompt)
        self.outstream.flush()
        line = self.instream.readline()
        if not line:
            raise InputClosedError("interactive input stream closed")
        return line.strip()

    def value(self, ap_name: str, step: int) -> bool:
        while True:
            answer = self._ask(f"[step {step}] {ap_name} (0/1/t/f/true/false)? ").lower()
            if answer in _TRUE_TOKENS:
                return True
            if answer in _FALSE_TOKENS:
                return False


Driver = RandomDriver | FileDriver | InteractiveDriver


def collect_valuation(
    bindings: Sequence[tuple[str, Driver]], step: int
) -> Valuation | None:
    """One bit per bound proposition, in binding order; None at end of input.

    All shared trace readers advance to the step's record first, so a
    finished trace is detected before any random or interactive driver
    is consulted.
    """
    seen: set[int] = set()
    for _, driver in bindings:
        if isinstance(driver, FileDriver) and id(driver.reader) not in seen:
            seen.add(id(driver.reader))
            if driver.reader.row_for_step(step) is None:
                return None
    bits = 0
    for position, (ap_name, driver) in enumerate(bindings):
        if driver.value(ap_name, step):
            bits |= 1 << position
    return Valuation(bits, len(bindings))


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


_COND_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_-]*)|(?P<str>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<punct>[!&|()]))"
)


def parse_condition(text: str) -> tuple[LabelExpr, tuple[str, ...]]:
    """Parse a Boolean formula over proposition names.

    Returns the expression plus the name table its Ap indices refer to;
    `t`/`f` are constants, quoted names allow arbitrary characters.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _COND_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ConfigError(f"bad condition syntax near {text[pos:]!r}")
            break
        tokens.append(match.group(0).strip())
        pos = match.end()
    names: list[str] = []

    def atom_for(name: str) -> LabelExpr:
        if name not in names:
            names.append(name)
        return Ap(names.index(name))

    index = 0

    def peek() -> str | None:
        return tokens[index] if index < len(tokens) else None

    def take() -> str:
        nonlocal index
        index += 1
        return tokens[index - 1]

    def parse_or(depth: int) -> LabelExpr:
        terms = [parse_and(depth)]
        while peek() == "|":
            take()
            terms.append(parse_and(depth))
        return lor(*terms)

    def parse_and(depth: int) -> LabelExpr:
        terms = [parse_atom(depth)]
        while peek() == "&":
            take()
            terms.append(parse_atom(depth))
        return land(*terms)

    def parse_atom(depth: int) -> LabelExpr:
        if depth > 100:
            raise ConfigError("condition nested too deeply")
        token = peek()
        if token is None:
            raise ConfigError("condition ended unexpectedly")
        if token == "!":
            take()
            return Not(parse_atom(depth + 1))
        if token == "(":
            take()
            inner = parse_or(depth + 1)
            if peek() != ")":
                raise ConfigError("missing ')' in condition")
            take()
            return inner
        if token == "t":
            take()
            return TRUE
        if token == "f":
            take()
            return FALSE
        if token.startswith('"'):
            take()
            return atom_for(token[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", token):
            take()
            return atom_for(token)
        raise ConfigError(f"unexpected token {token!r} in condition")

    expr = parse_or(0)
    if index != len(tokens):
        raise ConfigError(f"trailing tokens in condition: {tokens[index:]!r}")
    return expr, tuple(names)


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
        expr, names = parse_condition(text[len("cond:") :])
        return CondTrigger(expr, names)
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


@dataclass(frozen=True, slots=True)
class Advanced:
    state: int


@dataclass(frozen=True, slots=True)
class Deadlock:
    pass


@dataclass(frozen=True, slots=True)
class Nondeterministic:
    candidates: tuple[int, ...]


StepOutcome = Advanced | Deadlock | Nondeterministic


class Runner:
    """Tracks one automaton's current state through the execution loop."""

    def __init__(self, automaton: Automaton, label: str, index: int):
        self.automaton = automaton
        self.label = label
        self.index = index
        self.start_state = min(automaton.initial)
        self.current_state = self.start_state
        self.step_count = 0
        self.monitor: Monitor | None = None
        self.hooks: tuple[HookSpec, ...] = ()
        self.projection: tuple[int, ...] = ()
        self._identity_projection = True
        # per-state compiled (predicate, target) pairs for the hot path
        out: list[list[tuple[Callable[[int], object], int]]] = [
            [] for _ in range(automaton.num_states)
        ]
        for t in automaton.transitions:
            out[t.src].append((compile_label(t.label), t.dst))
        self._compiled = out

    def project(self, valuation: Valuation) -> int:
        if self._identity_projection:
            return valuation.bits
        bits = 0
        for local, global_pos in enumerate(self.projection):
            if valuation.bits >> global_pos & 1:
                bits |= 1 << local
        return bits

    def candidates(self, valuation: Valuation) -> tuple[int, ...]:
        bits = self.project(valuation)
        found: list[int] = []
        for predicate, target in self._compiled[self.current_state]:
            if predicate(bits) and target not in found:
                found.append(target)
        return tuple(sorted(found))


def step(runner: Runner, valuation: Valuation) -> StepOutcome:
    """Evaluate one input on a runner.

    Exactly one successor advances the runner (state, step count, and the
    monitor's view); zero or several successors are reported as outcomes
    and leave the runner untouched until hooks decide.
    """
    found = runner.candidates(valuation)
    if not found:
        return Deadlock()
    if len(found) > 1:
        return Nondeterministic(found)
    _advance(runner, found[0])
    return Advanced(found[0])


def _advance(runner: Runner, state: int) -> None:
    runner.current_state = state
    runner.step_count += 1
    if runner.monitor is not None:
        runner.monitor.observe(state)


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


@dataclass(frozen=True, slots=True)
class StepEvent:
    step: int
    bits: str
    states: tuple[tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class RunnerSummary:
    label: str
    final_state: int
    step_count: int
    final_verdict: Verdict | None


@dataclass(frozen=True, slots=True)
class ExitReport:
    """Outcome of a run: why it stopped plus the full verdict-event log."""

    reason: str  # end-of-input | steps-exhausted | halt | nondeterminism | deadlock
    steps: int
    runners: tuple[RunnerSummary, ...]
    verdict_events: tuple[VerdictEvent, ...]
    halt_code: int | None = None
    fatal_runner: str | None = None

    @property
    def bad_count(self) -> int:
        return sum(1 for e in self.verdict_events if e.verdict is Verdict.BAD)


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
    trace_path: str | None = None,
    trace_text: str | None = None,
    interactive_in: TextIO | None = None,
    interactive_out: TextIO | None = None,
) -> list[tuple[str, Driver]]:
    """Instantiate one driver per proposition.

    ``trace_path`` short-circuits the config and binds every proposition
    to a single shared trace reader. Random streams are seeded from the
    global seed and the binding position unless the spec pins a seed.
    """
    specs: list[tuple[str, DriverSpec]] = []
    if trace_path is not None:
        spec = FileSpec(trace_path)
        specs = [(name, spec) for name in universe]
    else:
        by_name = dict(config.drivers)
        unknown = [name for name, _ in config.drivers if name not in universe]
        if unknown:
            raise ConfigError(
                f"driver bound to unknown proposition {unknown[0]!r}"
            )
        for name in universe:
            spec = by_name.get(name, config.default_driver)
            if spec is None:
                raise ConfigError(
                    f"proposition {name!r} has no driver and no default is set"
                )
            specs.append((name, spec))

    readers: dict[str, TraceReader] = {}
    bindings: list[tuple[str, Driver]] = []
    for position, (name, spec) in enumerate(specs):
        if isinstance(spec, FileSpec):
            reader = readers.get(spec.path)
            if reader is None:
                reader = TraceReader(spec.path, text=trace_text)
                readers[spec.path] = reader
            if name not in reader.header:
                raise ConfigError(
                    f"trace {spec.path!r} has no column for proposition {name!r}"
                )
            bindings.append((name, FileDriver(reader)))
        elif isinstance(spec, RandomSpec):
            stream_seed = spec.seed if spec.seed is not None else f"{seed}:driver:{position}"
            bindings.append((name, RandomDriver(spec, Random(stream_seed))))
        else:
            bindings.append(
                (name, InteractiveDriver(interactive_in, interactive_out))
            )
    return bindings


def prepare_runners(
    automata: Sequence[Automaton],
    universe: Sequence[str],
    hooks: Sequence[HookSpec] = (),
) -> list[Runner]:
    """Create runners, resolve projections, and attach scoped hooks."""
    runners = []
    positions = {name: i for i, name in enumerate(universe)}
    for index, automaton in enumerate(automata):
        label = automaton.name if automaton.name else str(index)
        runner = Runner(automaton, label, index)
        runner.projection = tuple(positions[name] for name in automaton.aps)
        # prefix-identity projections can pass the global bits straight
        # through; compiled labels never read past their own propositions
        runner._identity_projection = runner.projection == tuple(
            range(len(automaton.aps))
        )
        matching = tuple(
            h for h in hooks if h.scope in ("*", runner.label, str(index))
        )
        for hook in matching:
            target = None
            if isinstance(hook.action, GotoAction):
                target = hook.action.state
            elif isinstance(hook.trigger, StateTrigger):
                target = hook.trigger.state
            if target is not None and not 0 <= target < automaton.num_states:
                raise ConfigError(
                    f"hook {hook.ident}: state {target} does not exist in "
                    f"automaton {label}"
                )
            if isinstance(hook.trigger, CondTrigger):
                unbound = [n for n in hook.trigger.ap_names if n not in positions]
                if unbound:
                    raise ConfigError(
                        f"hook {hook.ident}: condition references unbound "
                        f"proposition {unbound[0]!r}"
                    )
        runner.hooks = matching
        runners.append(runner)
    return runners


class _LoopContext:
    def __init__(self, bindings, seed, on_event, interactive_in, interactive_out):
        self.bindings = bindings
        self.hook_rng = Random(f"{seed}:hooks")
        self.on_event = on_event or (lambda event: None)
        self.instream = interactive_in if interactive_in is not None else sys.stdin
        self.outstream = interactive_out if interactive_out is not None else sys.stderr
        self.verdicts: list[VerdictEvent] = []
        self.step_index = 0
        self.cond_cache: dict[int, Callable[[int], object]] = {}
        self.valuation: Valuation | None = None
        self.universe_positions: dict[str, int] = {
            name: i for i, (name, _) in enumerate(bindings)
        }


def run_loop(
    runners: Sequence[Runner],
    bindings: Sequence[tuple[str, Driver]],
    *,
    seed: int = 0,
    max_steps: int | None = None,
    on_event: Callable[[object], None] | None = None,
    interactive_in: TextIO | None = None,
    interactive_out: TextIO | None = None,
) -> ExitReport:
    """Drive all runners in lockstep until input ends, steps run out, or a
    hook halts; unresolved nondeterminism or deadlock stops the run."""
    ctx = _LoopContext(bindings, seed, on_event, interactive_in, interactive_out)
    reason = "steps-exhausted"
    halt_code: int | None = None
    fatal_runner: str | None = None
    try:
        while max_steps is None or ctx.step_index < max_steps:
            valuation = collect_valuation(bindings, ctx.step_index)
            if valuation is None:
                reason = "end-of-input"
                break
            ctx.valuation = valuation
            for runner in runners:
                _step_runner(runner, valuation, ctx)
            ctx.on_event(
                StepEvent(
                    ctx.step_index,
                    valuation.bit_string(),
                    tuple(
                        (r.label, r.automaton.display_id(r.current_state))
                        for r in runners
                    ),
                )
            )
            ctx.step_index += 1
    except _Halt as halt:
        reason = "halt"
        halt_code = halt.code
    except _Fatal as fatal:
        reason = fatal.reason
        fatal_runner = fatal.runner
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
        verdict_events=tuple(ctx.verdicts),
        halt_code=halt_code,
        fatal_runner=fatal_runner,
    )


def _latched(runner: Runner) -> Verdict | None:
    return runner.monitor.current_verdict if runner.monitor is not None else None


def _step_runner(runner: Runner, valuation: Valuation, ctx: _LoopContext) -> None:
    before = _latched(runner)
    outcome = step(runner, valuation)
    if isinstance(outcome, Advanced):
        _emit_verdict_change(runner, before, ctx)
        _fire_poststep_hooks(runner, ctx)
    elif isinstance(outcome, Nondeterministic):
        if not _fire_resolution_hooks(runner, outcome, ctx):
            raise _Fatal("nondeterminism", runner.label)
    else:
        if not _fire_resolution_hooks(runner, outcome, ctx):
            raise _Fatal("deadlock", runner.label)


def _emit_verdict_change(runner: Runner, before: Verdict | None, ctx: _LoopContext) -> None:
    monitor = runner.monitor
    if monitor is None:
        return
    now = monitor.current_verdict
    if now is not before and now.conclusive:
        event = VerdictEvent(ctx.step_index, runner.label, now)
        ctx.verdicts.append(event)
        ctx.on_event(event)
        for hook in runner.hooks:
            if isinstance(hook.trigger, VerdictTrigger) and hook.trigger.matches(now):
                _apply_action(runner, hook, (), ctx)
                break


def _fire_poststep_hooks(runner: Runner, ctx: _LoopContext) -> None:
    # the state check and the condition check are separate occurrences;
    # within each, the first matching hook wins
    valuation = ctx.valuation
    for hook in runner.hooks:
        if isinstance(hook.trigger, StateTrigger) and runner.current_state == hook.trigger.state:
            _apply_action(runner, hook, (), ctx)
            break
    for hook in runner.hooks:
        if isinstance(hook.trigger, CondTrigger):
            if valuation is not None and _cond_holds(hook.trigger, valuation, ctx):
                _apply_action(runner, hook, (), ctx)
                break


def _cond_holds(trigger: CondTrigger, valuation: Valuation, ctx: _LoopContext) -> bool:
    key = id(trigger)
    predicate = ctx.cond_cache.get(key)
    if predicate is None:
        try:
            mapping = tuple(
                ctx.universe_positions[name] for name in trigger.ap_names
            )
        except KeyError as exc:
            raise ConfigError(
                f"condition references unbound proposition {exc.args[0]!r}"
            ) from None
        remapped = _remap(trigger.expr, mapping)
        predicate = compile_label(remapped)
        ctx.cond_cache[key] = predicate
    return bool(predicate(valuation.bits))


def _remap(expr: LabelExpr, mapping: tuple[int, ...]) -> LabelExpr:
    if isinstance(expr, Ap):
        return Ap(mapping[expr.index])
    if isinstance(expr, Not):
        return Not(_remap(expr.child, mapping))
    if isinstance(expr, And):
        return And(tuple(_remap(c, mapping) for c in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(_remap(c, mapping) for c in expr.children))
    return expr


def _fire_resolution_hooks(runner: Runner, outcome: StepOutcome, ctx: _LoopContext) -> bool:
    """First matching hook resolves the event; log actions observe and
    fall through. Returns False when nothing resolved it."""
    want_nondet = isinstance(outcome, Nondeterministic)
    for hook in runner.hooks:
        if want_nondet and not isinstance(hook.trigger, NondetTrigger):
            continue
        if not want_nondet and not isinstance(hook.trigger, DeadlockTrigger):
            continue
        candidates = outcome.candidates if want_nondet else ()
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
    if isinstance(action, RandomChoiceAction):
        choice = candidates[ctx.hook_rng.randrange(len(candidates))]
        before = _latched(runner)
        _advance(runner, choice)
        _emit_verdict_change(runner, before, ctx)
        _fire_poststep_hooks(runner, ctx)
        return True
    if isinstance(action, PromptAction):
        choice = _prompt_choice(runner, candidates, ctx)
        before = _latched(runner)
        _advance(runner, choice)
        _emit_verdict_change(runner, before, ctx)
        _fire_poststep_hooks(runner, ctx)
        return True
    if isinstance(action, ResetAction):
        runner.current_state = runner.start_state
        if runner.monitor is not None:
            runner.monitor.reset()
        return True
    if isinstance(action, GotoAction):
        before = _latched(runner)
        runner.current_state = action.state
        if runner.monitor is not None:
            runner.monitor.observe(action.state)
        _emit_verdict_change(runner, before, ctx)
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
        except (KeyError, IndexError, ValueError):
            message = action.template
        ctx.on_event(LogEvent(ctx.step_index, runner.label, message))
        return False
    if isinstance(action, HaltAction):
        raise _Halt(action.code)
    raise TypeError(f"unknown action {action!r}")


def _prompt_choice(runner: Runner, candidates: tuple[int, ...], ctx: _LoopContext) -> int:
    shown = ", ".join(str(runner.automaton.display_id(c)) for c in candidates)
    display_to_state = {runner.automaton.display_id(c): c for c in candidates}
    while True:
        ctx.outstream.write(
            f"[step {ctx.step_index}] {runner.label}: choose next state ({shown})? "
        )
        ctx.outstream.flush()
        line = ctx.instream.readline()
        if not line:
            raise InputClosedError("interactive input stream closed")
        try:
            picked = int(line.strip())
        except ValueError:
            continue
        if picked in display_to_state:
            return display_to_state[picked]
