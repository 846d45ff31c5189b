"""Reader and writer for the HOA v1 interchange format.

Supported subset: `HOA: v1`, `States:`, repeated `Start:` lines, `AP:`,
`Acceptance:`, `Alias:`, plus `name:`, `tool:`, `acc-name:` and
`properties:` (stored for round-tripping, never trusted). Bodies may use
explicit bracketed labels, implicit valuation-ordered edge lists, or
state labels shared by all edges leaving a state. Acceptance marks must sit on
states; marks on edges, negated set references `Fin(!k)`/`Inf(!k)`, and
universal branching are rejected with positioned diagnostics.

Edge and state labels, `Alias:` bodies, `cond:` formulas (through
:func:`parse_named_label`) and `Acceptance:` conditions are read by one
grammar, `|`-chains of `&`-chains nested at most 200 levels, and written
by one printer; each kind brings only its atoms.

Each distinct run of tokens between a body label's `[` and `]` is parsed
once per document, whatever the blanks and comments between them; later
occurrences take the label it parsed to from a memo, which is the object
a second parse would build, since the parser shares equal nodes. A run
holding a string (`"`) or an alias (`@`, which means what its own
automaton defines) is never kept, nor is one that fails to parse, so
every diagnostic is raised where it always was.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import chain, islice

from .automata import (
    AccAnd,
    AccOr,
    AcceptanceCond,
    Automaton,
    Bot,
    Fin,
    Inf,
    Top,
    Transition,
    acc_set_refs,
)
from .labels import (
    FALSE,
    TRUE,
    And,
    Ap,
    FalseLabel,
    LabelExpr,
    Not,
    Or,
    TrueLabel,
    minterm,
    postorder,
)
from .records import Uncompared, record

_MAX_NESTING = 200


@record
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class HoaParseError(Exception):
    """Carries the diagnostics produced while reading a document."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


@record
class HoaDocument:
    """Parsed automata in source order, plus non-fatal diagnostics."""

    automata: tuple[Automaton, ...]
    warnings: tuple[ParseDiagnostic, ...] = Uncompared(())


# ---------------------------------------------------------------------------
# Lexer
#
# One `findall` lexes a document, nested comments cut out first, into its
# tokens as written; a token's kind is its first character, or a trailing
# ":" for a header. A token of no kind (a stray character, a bare `@`, an
# unterminated string or comment) is refused only once the parser reaches
# it. Offsets serve diagnostics only: the text is lexed again up to the
# tokens named, and an offset, mapped back past the comments, becomes a
# 1-based line and column, where only "\n" ends a line and every other
# character, "\r" and tab included, is one column.

_TOKEN_RE = re.compile(
    r"""[][{}()!&|]|[0-9]+|[A-Za-z_][A-Za-z0-9_-]*:?|"[^"\\]*(?:\\.[^"\\]*)*"|@[A-Za-z0-9_-]+"""
    r"|--(?:BODY|END|ABORT)--|/\*|[^ \t\r\n]",
    re.DOTALL,
)
_SKIP_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|"|/\*', re.DOTALL)  # strings, comment openers
_COMMENT_DELIM_RE = re.compile(r"/\*|\*/")
_ESCAPE_RE = re.compile(r'\\(["\\])')
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR = frozenset("[]{}()!&|0123456789") | _IDENT_START  # the tokens of one character
_KINDS = dict.fromkeys(_IDENT_START, "ident") | dict.fromkeys("0123456789", "int")
_KINDS.update({"": "eof", '"': "string", "@": "aname"})
_REFUSALS = {"/*": "unterminated comment", '"': "unterminated string", "@": "malformed alias name"}


def _kind(tok: str) -> str:
    """``int``, ``ident``, ``header``, ``string``, ``aname`` or ``eof``;
    punctuation and the `--` markers are kinds of their own."""
    kind = _KINDS.get(tok[:1], tok)
    return "header" if kind == "ident" and tok[-1] == ":" else kind


def _value(tok: str) -> str:
    """What a token stands for: a string's text, an alias's name."""
    if tok[:1] == '"':
        return _ESCAPE_RE.sub(r"\1", tok[1:-1]) if "\\" in tok else tok[1:-1]
    return tok[1:] if tok[:1] == "@" else tok


def _uncomment(text: str) -> tuple[str, list[int], list[int]]:
    """``text`` with each comment cut down to one blank, and the way back:
    from each offset in the second list on, the third list's shift to the
    offset in ``text``. Strings are skipped whole; nothing is cut after an
    unterminated string, nor kept after an unterminated comment's `/*`."""
    pieces: list[str] = []
    starts, shifts = [0], [0]
    done = at = size = 0  # text[:done] is in pieces, size characters long
    while (m := _SKIP_RE.search(text, at)) is not None and m.group() != '"':
        at = m.end()
        if m.group() != "/*":  # a string
            continue
        depth = 0
        for delim in _COMMENT_DELIM_RE.finditer(text, m.start()):
            depth += 1 if delim.group() == "/*" else -1
            if depth == 0:
                break
        else:
            return "".join(pieces) + text[done:at], starts, shifts
        pieces += (text[done : m.start()], " ")
        size += m.start() - done + 1
        done = at = delim.end()
        starts.append(size)
        shifts.append(done - size)
    return "".join(pieces) + text[done:], starts, shifts


class _Abort(Exception):
    """A parse error at token index ``at``; no ``message`` refuses that token."""

    def __init__(self, at: int, message: str | None):
        self.at = at
        self.message = message


class _Source:
    """A document's tokens, with the end of input as a final ``""``, the
    index of the first token of no kind (-1 if none), and the way back from
    a token's index to its line and column."""

    def __init__(self, text: str):
        self.text = text
        cut = _uncomment(text) if "/*" in text else (text, [0], [0])
        self.lexed, self._starts, self._shifts = cut
        toks = self.toks = _TOKEN_RE.findall(self.lexed)
        odd = {t for t in set(toks) if len(t) == 1 and t not in _ONE_CHAR or t == "/*"}
        self.refused = next((i for i, t in enumerate(toks) if t in odd), -1) if odd else -1
        toks.append("")

    def diagnostics(self, found: list[tuple[int, str | None, str]]) -> list[ParseDiagnostic]:
        """Each ``(token index, message, severity)`` of ``found`` placed at
        its token, in one pass over the text."""
        if not found:
            return []
        wanted = {at for at, _, _ in found}
        offsets = dict.fromkeys(wanted, len(self.lexed))  # the end of input
        for at, m in enumerate(islice(_TOKEN_RE.finditer(self.lexed), max(wanted) + 1)):
            if at in wanted:
                offsets[at] = m.start()
        newlines = [m.start() for m in re.finditer("\n", self.text)]
        placed = []
        for at, message, severity in found:
            offset = offsets[at] + self._shifts[bisect_right(self._starts, offsets[at]) - 1]
            if message is None:
                char = "/*" if self.text.startswith("/*", offset) else self.text[offset]
                message = _REFUSALS.get(char, f"unexpected character {char!r}")
            line = bisect_left(newlines, offset)
            column = offset - newlines[line - 1] if line else offset + 1
            placed.append(ParseDiagnostic(line + 1, column, message, severity))
        return placed


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """Recursive-descent reader of a document, or with ``names`` of one
    named formula; ``tok`` is the token at index ``i``. Formula nodes are
    made once per document (:meth:`_shared`), so equal labels are one
    object, and ``_texts`` maps each run of tokens between a body label's
    brackets to its label (:meth:`_parse_bracketed`)."""

    def __init__(self, text: str, allow_empty_acc_sets: bool, names: list[str] | None = None):
        self._source = _Source(text)
        self.toks, self._refused = self._source.toks, self._source.refused
        self.i, self.tok = -1, ""  # before the first token, which _take reads
        self.allow_empty_acc_sets = allow_empty_acc_sets
        # a named formula's table of proposition names, in first-use order;
        # None for HOA text, whose label atoms are proposition indices
        self.names = names
        self.warnings: list[tuple[int, str]] = []  # (token index, message)
        self._labels: dict[tuple, LabelExpr] = {}
        self._atoms: dict[str, LabelExpr] = {"t": TRUE, "f": FALSE}
        self._negated: dict[str, LabelExpr] = {}  # by atom token, "!" and that atom
        self._texts: dict[tuple[str, ...], LabelExpr] = {}

    def _take(self) -> str:
        """The current token; the next one becomes current."""
        tok = self.tok
        i = self.i = self.i + 1
        if i == self._refused:
            raise _Abort(i, None)
        self.tok = self.toks[i]
        return tok

    def _fail(self, message: str, at: int | None = None):
        raise _Abort(self.i if at is None else at, message)

    def _warn(self, message: str, at: int) -> None:
        self.warnings.append((at, message))

    def diagnostics(self, abort: _Abort | None = None) -> list[ParseDiagnostic]:
        """The warnings so far, then ``abort``'s error, each at its token."""
        found = [(at, message, "warning") for at, message in self.warnings]
        if abort is not None:
            found.append((abort.at, abort.message, "error"))
        return self._source.diagnostics(found)

    def _expect(self, kind: str, what: str) -> str:
        if self.tok != kind and _kind(self.tok) != kind:
            self._fail_expected(what)
        return self._take()

    def _fail_expected(self, what: str):
        self._fail(f"expected {what}, found {self.tok!r}")  # as written

    def _expect_int(self, what: str) -> int:
        if not self.tok.isdigit():
            self._fail_expected(what)
        return int(self._take())

    def parse_document(self) -> list[Automaton]:
        self._take()
        automata = []
        while self.tok:
            automata.append(self._parse_automaton())
        return automata

    # -- headers

    def _parse_automaton(self) -> Automaton:
        head = self.i
        if self.tok != "HOA:":
            self._fail("expected 'HOA: v1' at start of automaton")
        self._take()
        version = _value(self._expect("ident", "format version"))
        if version != "v1":
            self._fail(f"unsupported format version {version!r}", self.i - 1)

        num_states: int | None = None
        starts: list[int] = []
        aps: list[str] = []
        acc_count: int | None = None
        condition: AcceptanceCond | None = None
        acc_at = head
        aliases: dict[str, LabelExpr] = {}
        properties: list[str] = []
        stored: dict[str, object] = {}  # name, tool and acc-name, as Automaton takes them
        seen: set[str] = set()

        while self.tok != "--BODY--":
            if not self.tok:
                self._fail("missing --BODY--", head)
            if self.tok == "--ABORT--":
                self._fail("automaton aborted by --ABORT--")
            if _kind(self.tok) != "header":
                self._fail_expected("header item")
            at = self.i
            hname = self._take()[:-1]
            if hname in ("States", "AP", "Acceptance", "name", "acc-name", "tool"):
                if hname in seen:
                    self._fail(f"duplicate header {hname}:", at)
                seen.add(hname)
            if hname == "States":
                num_states = self._expect_int("state count")
            elif hname == "Start":
                value = self._expect_int("initial state")
                if self.tok == "&":
                    self._fail("universal branching is not supported")
                if self.tok.isdigit():
                    self._fail("malformed Start: header (one state per line)")
                starts.append(value)
            elif hname == "AP":
                for _ in range(self._expect_int("proposition count")):
                    if self.tok[:1] != '"':
                        self._fail_expected("proposition name")
                    ap = _value(self._take())
                    if ap in aps:
                        self._fail(f"duplicate proposition name {ap!r}", self.i - 1)
                    aps.append(ap)
            elif hname == "Acceptance":
                acc_count = self._expect_int("acceptance set count")
                acc_at = at
                condition = self._parse_formula(_ACCEPTANCE, acc_count)
            elif hname == "Alias":
                alias = _value(self._expect("aname", "alias name"))
                if alias in aliases:
                    self._fail(f"duplicate alias @{alias}", self.i - 1)
                aliases[alias] = self._parse_formula(_LABEL, aliases)
            elif hname == "name":
                stored["name"] = _value(self._expect("string", "automaton name"))
            elif hname == "tool":
                tool = (_value(self._expect("string", "tool name")),)
                stored["tool"] = tool + (_value(self._take()),) if self.tok[:1] == '"' else tool
            elif hname == "acc-name":
                parts = []
                while _kind(self.tok) in ("ident", "int"):
                    parts.append(self._take())
                stored["acc_name"] = " ".join(parts)
            elif hname == "properties":
                while _kind(self.tok) == "ident":
                    properties.append(self._take())
            elif hname == "HOA":
                self._fail("duplicate HOA: header (missing --END--?)", at)
            elif hname[0].isupper():
                self._fail(f"unsupported header {hname}:", at)
            else:
                self._warn(f"ignoring unknown header {hname}:", at)
                while _kind(self.tok) in ("ident", "int", "string", "aname", *"!&|()"):
                    self._take()
        body_at = self.i
        self._take()

        if condition is None or acc_count is None:
            self._fail("missing Acceptance: header", head)
            raise AssertionError
        states, marks = self._parse_body(aliases, len(aps), acc_count)
        if not self.tok:  # the last automaton: free its tokens, the parse's peak, first
            self.toks.clear()
        stored.update(aps=tuple(aps), properties=tuple(properties))
        return self._build(
            head, body_at, acc_at, num_states, starts, acc_count, condition, states, marks, stored
        )

    # -- body

    def _parse_body(self, aliases, ap_count, acc_count):
        states: list[tuple[int, LabelExpr | None, int]] = []  # with the State: token's index
        edges: dict[int, list[tuple[LabelExpr | None, int]]] = {}  # source -> (label, target)
        marks: dict[int, frozenset[int]] = {}
        current: int | None = None
        while (tok := self.tok) != "--END--":
            if tok == "[" or tok.isdigit():
                if current is None:
                    self._fail("edge before any State: definition")
                label = self._parse_bracketed(aliases) if tok == "[" else None
                target = self._expect_int("target state")
                if self.tok == "&":
                    self._fail("universal branching is not supported")
                if self.tok == "{":
                    self._fail(
                        f"transition-based acceptance unsupported "
                        f"(edge of state {current} to {target})"
                    )
                out.append((label, target))
            elif tok == "State:":
                at = self.i
                self._take()
                label = self._parse_bracketed(aliases) if self.tok == "[" else None
                current = self._expect_int("state id")
                if current in edges:
                    self._fail(f"state {current} defined twice", at)
                if self.tok[:1] == '"':
                    self._take()
                    self._warn("state display names are ignored", self.i - 1)
                if self.tok == "{":
                    self._take()
                    indices = []
                    while self.tok.isdigit():
                        indices.append(self._expect_int("acceptance set index"))
                        if indices[-1] >= acc_count:
                            self._fail(f"acceptance set {indices[-1]} not declared", self.i - 1)
                    self._expect("}", "'}'")
                    marks[current] = frozenset(indices)
                states.append((current, label, at))
                out = edges[current] = []
            elif not tok or tok[-1] == ":":
                self._fail("missing --END--")
            elif tok == "--ABORT--":
                self._fail("automaton aborted by --ABORT--")
            else:
                self._fail(f"unexpected token {_value(tok)!r} in body")
        self._take()  # --END--

        minterms: list[LabelExpr] = []  # the implicit labels, one object per input for all states
        for sid, state_label, at in states:
            out = edges[sid]
            if state_label is not None:
                if any(lbl is not None for lbl, _ in out):
                    self._fail(f"state {sid} mixes a state label with edge labels", at)
                edges[sid] = [(state_label, tgt) for _, tgt in out]
            elif any(lbl is None for lbl, _ in out):
                if any(lbl is not None for lbl, _ in out):
                    self._fail(f"state {sid} mixes labeled and unlabeled edges", at)
                if len(out) != 1 << ap_count:  # implicit labels, one edge per valuation
                    self._fail(
                        f"state {sid} lists {len(out)} implicit edges, "
                        f"expected {1 << ap_count}",
                        at,
                    )
                if not minterms:
                    minterms.extend(minterm(i, ap_count) for i in range(len(out)))
                edges[sid] = [(minterms[i], tgt) for i, (_, tgt) in enumerate(out)]
        return edges, marks

    def _parse_bracketed(self, aliases: dict[str, LabelExpr]) -> LabelExpr:
        """The label from the current ``[`` to its ``]``, taking both; tokens
        between them that were parsed before are not read again."""
        toks = self.toks
        start = self.i + 1
        try:
            close = toks.index("]", start)
        except ValueError:  # refused below
            close = start
        key = tuple(toks[start:close])
        label = self._texts.get(key)
        if label is not None:  # the same tokens parsed before: none is refused
            self.i = close
            self._take()
            return label
        self._take()
        label = self._parse_formula(_LABEL, aliases)
        # a string is no label atom, and an alias means what its own
        # automaton defines
        written = "".join(key)
        if self.i == close and '"' not in written and "@" not in written:
            self._texts[key] = label
        self._expect("]", "']'")
        return label

    # -- expressions
    #
    # Labels, `cond:` formulas and acceptance conditions share one grammar:
    # a `|`-chain of `&`-chains of operands, each a formula in parentheses or
    # an atom, or for labels a `!` and an operand. A grammar (_LABEL,
    # _ACCEPTANCE) names its kind's atom reader, its chain and negation node
    # classes and what a diagnostic calls it.

    def _parse_formula(self, grammar, context):
        """One formula of ``grammar``; ``context`` goes to its atom reader,
        which leaves the atom's last token current. An operator chain
        becomes one n-ary node; a parenthesized, negated or aliased subtree
        stays a node of its own, so that serialized text reparses to a
        structurally equal tree. The `(` and `!` open around an operand are
        a stack, whose height is its depth. A label atom of one token,
        negated or not, comes from ``_atoms`` or ``_negated`` once read."""
        atom, and_cls, or_cls, negation, what = grammar
        shared, toks, refused = self._shared, self.toks, self._refused
        atoms, negated = self._atoms, self._negated
        if not negation or self.names is not None:  # only index atoms are kept
            atoms = negated = {}
        opened: list = []  # per open "(" the chains it interrupts, per "!" None
        terms: list = []
        factors: list = []
        operand = True  # an operand is due at token i, not an operator
        i, tok = self.i, self.tok
        while True:
            node = None
            if operand:
                if len(opened) > _MAX_NESTING:
                    self._fail(f"{what} nested too deeply", i)
                node = atoms.get(tok)
                if node is None and tok == "!" and len(opened) < _MAX_NESTING:
                    node = negated.get(toks[i + 1])
                    if node is not None:
                        i += 1
                if node is not None:
                    pass
                elif tok == "(":
                    opened.append((terms, factors))
                    terms, factors = [], []
                elif tok == "!" and negation:
                    opened.append(None)
                else:
                    self.i, self.tok = i, tok
                    node = atom(self, context)
                    i = self.i
            elif tok == "&":
                operand = True
            else:  # the operand before token i ends its chains
                terms.append(factors[0] if len(factors) == 1 else shared(and_cls, tuple(factors)))
                factors = []
                if tok == "|":
                    operand = True
                else:
                    node = terms[0] if len(terms) == 1 else shared(or_cls, tuple(terms))
                    self.i, self.tok = i, tok
                    if not opened:
                        return node
                    if tok != ")":
                        self._fail_expected("')'")
                    terms, factors = opened.pop()
            if node is not None:  # an operand ends at token i
                while opened and opened[-1] is None:
                    opened.pop()
                    node = shared(Not, node)
                factors.append(node)
                operand = False
            i += 1
            if i == refused:
                raise _Abort(i, None)
            tok = toks[i]

    def _shared(self, cls: type, arg):
        """The document's one node ``cls(arg)``, so that equal labels are
        one object and convert to a diagram once; children are shared
        already, so their identities make the key. Acceptance atoms are
        made afresh, so no two acceptance chains are ever one node."""
        if cls is Ap:
            key = (cls, arg)
        else:
            key = (cls, id(arg)) if cls is Not else (cls, *map(id, arg))
        node = self._labels.get(key)
        if node is None:
            node = self._labels[key] = cls(arg)
        return node

    def _parse_label_atom(self, aliases: dict[str, LabelExpr]) -> LabelExpr:
        tok = self.tok
        if self.names is None and tok.isdigit():
            node = self._atoms[tok] = self._shared(Ap, int(tok))
            self._negated[tok] = self._shared(Not, node)
            return node
        if tok[:1] == "@":
            expr = aliases.get(tok[1:])
            if expr is None:
                self._take()  # a token refused after it comes first
                self._fail(f"undefined alias {tok}", self.i - 1)
            return expr
        if tok == "t" or tok == "f":
            return TRUE if tok == "t" else FALSE
        if self.names is not None and _kind(tok) in ("ident", "string"):
            name = _value(tok)
            if name not in self.names:
                self.names.append(name)
            return self._shared(Ap, self.names.index(name))
        self._fail_expected("label expression")
        raise AssertionError

    def _parse_acceptance_atom(self, set_count: int) -> AcceptanceCond:
        tok = self.tok
        if tok == "t" or tok == "f":
            return Top() if tok == "t" else Bot()
        if tok == "Fin" or tok == "Inf":
            self._take()
            self._expect("(", "'('")
            if self.tok == "!":
                self._fail("negated acceptance-set references are not supported")
            at = self.i
            index = self._expect_int("acceptance set index")
            if index >= set_count:
                self._fail(f"acceptance set {index} not declared", at)
            if self.tok != ")":
                self._fail_expected("')'")
            return Fin(index) if tok == "Fin" else Inf(index)
        self._fail_expected("acceptance condition")
        raise AssertionError

    # -- construction

    def _build(
        self, head, body_at, acc_at, num_states, starts, acc_count, condition, states, marks, stored
    ):
        """The automaton of a parsed body; ``stored`` holds the keyword
        arguments of :class:`Automaton` that the headers give as they are."""
        # state ids in order of first mention: sources, targets, then starts
        mentioned = chain(states, (tgt for out in states.values() for _, tgt in out), starts)
        display = None
        if num_states is not None:
            beyond = next((q for q in mentioned if q >= num_states), None)
            if beyond is not None:
                self._fail(f"state id {beyond} out of declared range 0..{num_states - 1}", body_at)
            count = num_states
        else:
            mentioned = list(dict.fromkeys(mentioned))
            count = len(mentioned)
            if count == 0:
                self._fail("automaton has no states", body_at)
            if sorted(mentioned) != list(range(count)):
                display = tuple(mentioned)
        # one int object per state, for all transitions
        number = list(range(count)) if display is None else {q: i for i, q in enumerate(display)}
        if not starts:
            self._fail("at least one initial state is required (Start: missing)", head)
        transitions = tuple(
            Transition(number[q], lbl, number[tgt])
            for q in sorted(states, key=number.__getitem__)
            for lbl, tgt in states[q]
        )
        acc_sets: list[set[int]] = [set() for _ in range(acc_count)]
        for sid, indices in marks.items():
            for k in indices:
                acc_sets[k].add(number[sid])
        empty = [k for k, members in enumerate(acc_sets) if not members]
        empty_refs = sorted(acc_set_refs(condition).intersection(empty)) if empty else []
        if empty_refs:
            if not self.allow_empty_acc_sets:
                self._fail(
                    f"acceptance set {empty_refs[0]} is referenced but empty "
                    "(no state belongs to it)",
                    acc_at,
                )
            condition = _drop_empty_sets(condition, frozenset(empty_refs))

        try:
            return Automaton(
                num_states=count,
                initial=frozenset(number[q] for q in starts),
                transitions=transitions,
                acc_sets=tuple(frozenset(s) for s in acc_sets),
                condition=condition,
                display_ids=display,
                **stored,
            )
        except ValueError as exc:
            self._fail(str(exc), head)


_LABEL = (_Parser._parse_label_atom, And, Or, Not, "label expression")
_ACCEPTANCE = (_Parser._parse_acceptance_atom, AccAnd, AccOr, None, "acceptance condition")


def _drop_empty_sets(cond: AcceptanceCond, empty: frozenset[int]) -> AcceptanceCond:
    # Fin over an empty set always holds; Inf over one never does.
    if isinstance(cond, Fin):
        return Top() if cond.set_index in empty else cond
    if isinstance(cond, Inf):
        return Bot() if cond.set_index in empty else cond
    if isinstance(cond, AccAnd):
        return AccAnd(tuple(_drop_empty_sets(c, empty) for c in cond.children))
    if isinstance(cond, AccOr):
        return AccOr(tuple(_drop_empty_sets(c, empty) for c in cond.children))
    return cond


def parse(text: str, *, allow_empty_acc_sets: bool = False) -> HoaDocument:
    """Parse one or more automata; raises :class:`HoaParseError` on failure."""
    parser = _Parser(text, allow_empty_acc_sets)
    try:
        automata = parser.parse_document()
    except _Abort as abort:
        raise HoaParseError(parser.diagnostics(abort)) from None
    return HoaDocument(tuple(automata), tuple(parser.diagnostics()))


def parse_named_label(text: str) -> tuple[LabelExpr, tuple[str, ...]]:
    """Parse an HOA label whose atoms are proposition names, bare or quoted,
    in place of indices; returns it with the name table its ``Ap`` indices
    refer to, in first-use order. Raises :class:`HoaParseError` on failure."""
    parser = _Parser(text, False, [])
    try:
        parser._take()
        expr = parser._parse_formula(_LABEL, {})
        if parser.tok:
            parser._fail_expected("end of formula")
    except _Abort as abort:
        raise HoaParseError(parser.diagnostics(abort)) from None
    return expr, tuple(parser.names)


# ---------------------------------------------------------------------------
# Serialization


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_formula(root, format_atom, and_cls: type, or_cls: type, names=None) -> str:
    """A label or acceptance condition as text; ``format_atom`` writes the
    nodes that are neither chains nor negations, and a node whose id is in
    ``names`` is written as that name, an atom. `&` binds tighter than
    `|`, a chain inside a chain of the same operator keeps its
    parentheses, and a negated chain takes them. The nodes are written
    children first (:func:`labels.postorder`), so any depth prints."""
    names = names or {}
    done: dict[int, str] = dict(names)  # text by node id

    def chain(node, kinds) -> bool:
        return isinstance(node, kinds) and id(node) not in names

    for node in postorder(root, skip=names):
        if isinstance(node, Not):
            text = done[id(node.child)]
            done[id(node)] = f"!({text})" if chain(node.child, (And, Or)) else "!" + text
        elif isinstance(node, (and_cls, or_cls)):
            conjunction = isinstance(node, and_cls)
            nested = (and_cls, or_cls) if conjunction else or_cls
            parts = [
                f"({done[id(child)]})" if chain(child, nested) else done[id(child)]
                for child in node.children
            ]
            empty = "t" if conjunction else "f"
            done[id(node)] = (" & " if conjunction else " | ").join(parts) or empty
        else:
            done[id(node)] = format_atom(node)
    return done[id(root)]


def _alias_cuts(labels) -> list[LabelExpr]:
    """The subtrees of ``labels`` to write as aliases, each after those
    below it, so that no label or alias body written nests past
    ``_MAX_NESTING`` levels of `!` and parentheses, and a document that
    nests deeper only through its aliases reparses. A child whose text
    would take its parent's past the limit is cut: written as an alias
    name, an atom. Nothing is cut from labels within the limit."""
    order: dict[int, int] = {}  # by node id, its place in postorder
    depth: dict[int, int] = {}  # by node id, the levels its text nests
    cuts: dict[int, LabelExpr] = {}
    for place, node in enumerate(postorder(*labels)):
        order[id(node)] = place
        if isinstance(node, Not):  # `!x`, or `!(x)` for a chain x
            below, children, parenthesized = 1, (node.child,), (And, Or)
        elif isinstance(node, (And, Or)):
            below, children = 0, node.children
            parenthesized = (And, Or) if isinstance(node, And) else Or
        else:
            depth[id(node)] = 0
            continue
        deepest = below
        for child in children:
            if id(child) not in cuts:
                level = below + depth[id(child)] + isinstance(child, parenthesized)
                if level > _MAX_NESTING:
                    cuts[id(child)] = child
                else:
                    deepest = max(deepest, level)
        depth[id(node)] = deepest
    return sorted(cuts.values(), key=lambda node: order[id(node)])


def _format_label_atom(expr: LabelExpr) -> str:
    if isinstance(expr, TrueLabel):
        return "t"
    if isinstance(expr, FalseLabel):
        return "f"
    if isinstance(expr, Ap):
        return str(expr.index)
    raise TypeError(f"not a label expression: {expr!r}")


def _format_acceptance_atom(cond: AcceptanceCond) -> str:
    if isinstance(cond, Top):
        return "t"
    if isinstance(cond, Bot):
        return "f"
    if isinstance(cond, (Fin, Inf)):
        return f"{type(cond).__name__}({cond.set_index})"
    raise TypeError(f"not an acceptance condition: {cond!r}")


def format_label(expr: LabelExpr) -> str:
    """Concrete label syntax; `&` binds tighter than `|`."""
    return _format_formula(expr, _format_label_atom, And, Or)


def format_acceptance(cond: AcceptanceCond) -> str:
    return _format_formula(cond, _format_acceptance_atom, AccAnd, AccOr)


def serialize_automaton(automaton: Automaton) -> str:
    """Emit normalized HOA v1 text for one automaton.

    Labels are always explicit and state ids are the dense internal ones,
    so reparsing yields a structurally equal automaton. Subtrees that would
    nest a label past the parser's limit are written as `Alias:` headers.
    """
    lines = ["HOA: v1"]
    if automaton.name is not None:
        lines.append(f"name: {_quote(automaton.name)}")
    if automaton.tool is not None:
        lines.append("tool: " + " ".join(_quote(t) for t in automaton.tool))
    lines.append(f"States: {automaton.num_states}")
    for q in sorted(automaton.initial):
        lines.append(f"Start: {q}")
    lines.append(
        f"AP: {len(automaton.aps)}"
        + "".join(" " + _quote(name) for name in automaton.aps)
    )
    names: dict[int, str] = {}  # the aliases written so far, by node id
    for node in _alias_cuts([t.label for t in automaton.transitions]):
        body = _format_formula(node, _format_label_atom, And, Or, names)
        names[id(node)] = f"@a{len(names)}"
        lines.append(f"Alias: {names[id(node)]} {body}")
    if automaton.acc_name is not None:
        lines.append(f"acc-name: {automaton.acc_name}")
    lines.append(
        f"Acceptance: {len(automaton.acc_sets)} {format_acceptance(automaton.condition)}"
    )
    if automaton.properties:
        lines.append("properties: " + " ".join(automaton.properties))
    lines.append("--BODY--")
    by_state: dict[int, list[Transition]] = {q: [] for q in range(automaton.num_states)}
    for t in automaton.transitions:
        by_state[t.src].append(t)
    for q in range(automaton.num_states):
        sets = [k for k, members in enumerate(automaton.acc_sets) if q in members]
        sig = " {" + " ".join(str(k) for k in sets) + "}" if sets else ""
        lines.append(f"State: {q}{sig}")
        for t in by_state[q]:
            label = _format_formula(t.label, _format_label_atom, And, Or, names)
            lines.append(f"[{label}] {t.dst}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def serialize(doc: HoaDocument) -> str:
    """Emit a whole document; inverse of :func:`parse` up to normalization."""
    return "".join(serialize_automaton(a) for a in doc.automata)
