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
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

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

_MAX_NESTING = 200


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class HoaDocument:
    """Parsed automata in source order, plus non-fatal diagnostics."""

    automata: tuple[Automaton, ...]
    warnings: tuple[ParseDiagnostic, ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# Tokenizer
#
# One regex, matched at the current offset, skips blanks and reads one token.
# Tokens carry their offset; a diagnostic turns it into a 1-based line and
# column, where only "\n" ends a line and every other character, "\r" and
# tab included, is one column.


@dataclass(slots=True)
class _Token:
    kind: str
    value: str
    offset: int


# m.lastgroup names the token's kind and its group holds the value; the
# empty group "at" marks where the token begins, after blanks
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?P<at>)(?:
        (?P<header>[A-Za-z_][A-Za-z0-9_-]*):
      | (?P<ident>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<int>[0-9]+)
      | (?P<punct>[][{}()!&|])
      | "(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"
      | (?P<body>--BODY--) | (?P<end>--END--) | (?P<abort>--ABORT--)
      | @(?P<aname>[A-Za-z0-9_-]*)
      | (?P<comment>/\*)
      | (?P<eof>\Z)
      | (?P<other>.)
    )""",
    re.VERBOSE | re.DOTALL,
)
_COMMENT_DELIM_RE = re.compile(r"/\*|\*/")
_ESCAPE_RE = re.compile(r'\\(["\\])')


class _Abort(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._newlines: list[int] | None = None

    def diagnostic(self, offset: int, message: str, severity: str = "error") -> ParseDiagnostic:
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self._newlines, offset)
        column = offset - self._newlines[line - 1] if line else offset + 1
        return ParseDiagnostic(line + 1, column, message, severity)

    def _fail(self, message: str, offset: int):
        raise _Abort(self.diagnostic(offset, message))

    def next_token(self) -> _Token:
        text = self.text
        m = _TOKEN_RE.match(text, self.pos)
        while m.lastgroup == "comment":
            # comments nest: go on after the "*/" that closes this one
            depth = 0
            for delim in _COMMENT_DELIM_RE.finditer(text, m.start("at")):
                depth += 1 if delim.group() == "/*" else -1
                if depth == 0:
                    break
            else:
                self._fail("unterminated comment", m.start("at"))
            m = _TOKEN_RE.match(text, delim.end())
        self.pos = m.end()
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "punct":
            kind = value
        elif kind == "string":
            value = _ESCAPE_RE.sub(r"\1", value)
        elif kind == "aname" and not value:
            self._fail("malformed alias name", m.start("at"))
        elif kind == "other":
            if value == '"':
                self._fail("unterminated string", m.start("at"))
            self._fail(f"unexpected character {value!r}", m.start("at"))
        return _Token(kind, value, m.start("at"))


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, allow_empty_acc_sets: bool, names: list[str] | None = None):
        self._tz = _Tokenizer(text)
        self.tok = self._tz.next_token()
        self.allow_empty_acc_sets = allow_empty_acc_sets
        # a named formula's table of proposition names, in first-use order;
        # None for HOA text, whose label atoms are proposition indices
        self.names = names
        self.warnings: list[ParseDiagnostic] = []
        self._labels: dict[tuple, LabelExpr] = {}

    def _take(self) -> _Token:
        tok = self.tok
        self.tok = self._tz.next_token()
        return tok

    def _fail(self, message: str, tok: _Token | None = None):
        raise _Abort(self._tz.diagnostic((tok or self.tok).offset, message))

    def _warn(self, message: str, tok: _Token) -> None:
        self.warnings.append(self._tz.diagnostic(tok.offset, message, "warning"))

    def _expect(self, kind: str, what: str) -> _Token:
        if self.tok.kind != kind:
            self._fail_expected(what)
        return self._take()

    def _fail_expected(self, what: str):
        """Refuse the current token, quoted as written: ``q:`` for a header
        token, ``"p"`` for a string, ``@a`` for an alias."""
        written = _TOKEN_RE.match(self._tz.text, self.tok.offset).group()
        self._fail(f"expected {what}, found {written!r}")

    def _expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self._expect("int", what)
        return int(tok.value), tok

    def parse_document(self) -> tuple[list[Automaton], list[ParseDiagnostic]]:
        automata = []
        while self.tok.kind != "eof":
            automata.append(self._parse_automaton())
        return automata, self.warnings

    # -- headers

    def _parse_automaton(self) -> Automaton:
        head = self.tok
        if self.tok.kind != "header" or self.tok.value != "HOA":
            self._fail("expected 'HOA: v1' at start of automaton")
        self._take()
        version = self._expect("ident", "format version")
        if version.value != "v1":
            self._fail(f"unsupported format version {version.value!r}", version)

        num_states: int | None = None
        starts: list[tuple[int, _Token]] = []
        aps: list[str] | None = None
        acc_count: int | None = None
        condition: AcceptanceCond | None = None
        acc_tok: _Token | None = None
        aliases: dict[str, LabelExpr] = {}
        name: str | None = None
        acc_name: str | None = None
        tool: tuple[str, ...] | None = None
        properties: list[str] = []
        seen: set[str] = set()

        while self.tok.kind != "body":
            if self.tok.kind == "eof":
                self._fail("missing --BODY--", head)
            if self.tok.kind == "abort":
                self._fail("automaton aborted by --ABORT--")
            if self.tok.kind != "header":
                self._fail_expected("header item")
            htok = self._take()
            hname = htok.value
            if hname in ("States", "AP", "Acceptance", "name", "acc-name", "tool"):
                if hname in seen:
                    self._fail(f"duplicate header {hname}:", htok)
                seen.add(hname)
            if hname == "States":
                num_states, _ = self._expect_int("state count")
            elif hname == "Start":
                value, vtok = self._expect_int("initial state")
                if self.tok.kind == "&":
                    self._fail("universal branching is not supported")
                if self.tok.kind == "int":
                    self._fail("malformed Start: header (one state per line)")
                starts.append((value, vtok))
            elif hname == "AP":
                count, _ = self._expect_int("proposition count")
                aps = []
                for _ in range(count):
                    stok = self._expect("string", "proposition name")
                    if stok.value in aps:
                        self._fail(f"duplicate proposition name {stok.value!r}", stok)
                    aps.append(stok.value)
            elif hname == "Acceptance":
                acc_count, _ = self._expect_int("acceptance set count")
                acc_tok = htok
                condition = self._parse_formula(_ACCEPTANCE, acc_count)
            elif hname == "Alias":
                atok = self._expect("aname", "alias name")
                if atok.value in aliases:
                    self._fail(f"duplicate alias @{atok.value}", atok)
                aliases[atok.value] = self._parse_formula(_LABEL, aliases)
            elif hname == "name":
                name = self._expect("string", "automaton name").value
            elif hname == "tool":
                first = self._expect("string", "tool name")
                if self.tok.kind == "string":
                    tool = (first.value, self._take().value)
                else:
                    tool = (first.value,)
            elif hname == "acc-name":
                parts = []
                while self.tok.kind in ("ident", "int"):
                    parts.append(self._take().value)
                acc_name = " ".join(parts)
            elif hname == "properties":
                while self.tok.kind == "ident":
                    properties.append(self._take().value)
            elif hname == "HOA":
                self._fail("duplicate HOA: header (missing --END--?)", htok)
            elif hname[0].isupper():
                self._fail(f"unsupported header {hname}:", htok)
            else:
                self._warn(f"ignoring unknown header {hname}:", htok)
                while self.tok.kind in ("ident", "int", "string", "aname", "!", "&", "|", "(", ")"):
                    self._take()
        body_tok = self._take()

        if condition is None or acc_count is None:
            self._fail("missing Acceptance: header", head)
            raise AssertionError
        ap_count = len(aps) if aps is not None else 0

        states, marks = self._parse_body(aliases, ap_count, acc_count)
        return self._build(
            head,
            body_tok,
            num_states,
            starts,
            tuple(aps or ()),
            acc_count,
            condition,
            acc_tok,
            states,
            marks,
            name,
            acc_name,
            tool,
            tuple(properties),
        )

    # -- body

    def _parse_body(self, aliases, ap_count, acc_count):
        states: list[tuple[int, LabelExpr | None, _Token]] = []
        defined: set[int] = set()
        # edges: source id -> list of (label or None, target, token)
        edges: dict[int, list[tuple[LabelExpr | None, int, _Token]]] = {}
        marks: dict[int, frozenset[int]] = {}
        current: int | None = None
        while self.tok.kind != "end":
            if self.tok.kind in ("eof", "header") and not (
                self.tok.kind == "header" and self.tok.value == "State"
            ):
                self._fail("missing --END--")
            if self.tok.kind == "abort":
                self._fail("automaton aborted by --ABORT--")
            if self.tok.kind == "header":  # State:
                stok = self._take()
                label = None
                if self.tok.kind == "[":
                    self._take()
                    label = self._parse_formula(_LABEL, aliases)
                    self._expect("]", "']'")
                sid, _ = self._expect_int("state id")
                if sid in defined:
                    self._fail(f"state {sid} defined twice", stok)
                defined.add(sid)
                if self.tok.kind == "string":
                    ntok = self._take()
                    self._warn("state display names are ignored", ntok)
                if self.tok.kind == "{":
                    marks[sid] = frozenset(self._parse_acc_sig(acc_count))
                states.append((sid, label, stok))
                current = sid
                edges.setdefault(sid, [])
            elif self.tok.kind in ("[", "int"):
                if current is None:
                    self._fail("edge before any State: definition")
                etok = self.tok
                label = None
                if self.tok.kind == "[":
                    self._take()
                    label = self._parse_formula(_LABEL, aliases)
                    self._expect("]", "']'")
                target, _ = self._expect_int("target state")
                if self.tok.kind == "&":
                    self._fail("universal branching is not supported")
                if self.tok.kind == "{":
                    self._fail(
                        f"transition-based acceptance unsupported "
                        f"(edge of state {current} to {target})"
                    )
                edges[current].append((label, target, etok))
            else:
                self._fail(f"unexpected token {self.tok.value!r} in body")
        self._take()  # --END--

        resolved: dict[int, list[tuple[LabelExpr, int]]] = {}
        minterms: list[LabelExpr] = []  # the implicit labels, one object per input for all states
        for sid, state_label, stok in states:
            out = edges[sid]
            if state_label is not None:
                if any(lbl is not None for lbl, _, _ in out):
                    self._fail(
                        f"state {sid} mixes a state label with edge labels", stok
                    )
                resolved[sid] = [(state_label, tgt) for _, tgt, _ in out]
            elif all(lbl is not None for lbl, _, _ in out):
                resolved[sid] = [(lbl, tgt) for lbl, tgt, _ in out]
            elif any(lbl is not None for lbl, _, _ in out):
                self._fail(f"state {sid} mixes labeled and unlabeled edges", stok)
            else:  # implicit labels, one edge per valuation
                if len(out) != 1 << ap_count:
                    self._fail(
                        f"state {sid} lists {len(out)} implicit edges, "
                        f"expected {1 << ap_count}",
                        stok,
                    )
                if not minterms:
                    minterms.extend(minterm(i, ap_count) for i in range(len(out)))
                resolved[sid] = [(minterms[i], tgt) for i, (_, tgt, _) in enumerate(out)]
        return resolved, marks

    def _parse_acc_sig(self, acc_count: int) -> list[int]:
        self._expect("{", "'{'")
        indices = []
        while self.tok.kind == "int":
            value, tok = self._expect_int("acceptance set index")
            if value >= acc_count:
                self._fail(f"acceptance set {value} not declared", tok)
            indices.append(value)
        self._expect("}", "'}'")
        return indices

    # -- expressions
    #
    # Labels, `cond:` formulas and acceptance conditions share one grammar:
    # a `|`-chain of `&`-chains of operands, each a formula in parentheses or
    # an atom. A grammar (_LABEL, _ACCEPTANCE) names its kind's atom reader,
    # its chain node classes and what a diagnostic calls it.

    def _parse_formula(self, grammar, context, depth: int = 0, operand: bool = False):
        """One formula, or with ``operand`` one operand, of ``grammar``;
        ``context`` goes to its atom reader. An operator chain becomes one
        n-ary node; a parenthesized or aliased subtree stays a node of its
        own, so that serialized text reparses to a structurally equal tree."""
        atom, and_cls, or_cls, what = grammar
        terms = []
        factors = []
        while True:
            if depth > _MAX_NESTING:
                self._fail(f"{what} nested too deeply")
            if self.tok.kind == "(":
                self._take()
                node = self._parse_formula(grammar, context, depth + 1)
                self._expect(")", "')'")
            else:
                node = atom(self, context, depth)
            if operand:
                return node
            factors.append(node)
            kind = self.tok.kind
            if kind == "&":
                self._take()
                continue
            terms.append(factors[0] if len(factors) == 1 else self._shared(and_cls, tuple(factors)))
            if kind != "|":
                return terms[0] if len(terms) == 1 else self._shared(or_cls, tuple(terms))
            self._take()
            factors = []

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

    def _parse_label_atom(self, aliases: dict[str, LabelExpr], depth: int) -> LabelExpr:
        tok = self.tok
        if tok.kind == "!":
            self._take()
            return self._shared(Not, self._parse_formula(_LABEL, aliases, depth + 1, True))
        if tok.kind == "int" and self.names is None:
            self._take()
            return self._shared(Ap, int(tok.value))
        if tok.kind == "aname":
            self._take()
            expr = aliases.get(tok.value)
            if expr is None:
                self._fail(f"undefined alias @{tok.value}", tok)
            return expr
        if tok.kind == "ident" and tok.value in ("t", "f"):
            self._take()
            return TRUE if tok.value == "t" else FALSE
        if tok.kind in ("ident", "string") and self.names is not None:
            self._take()
            if tok.value not in self.names:
                self.names.append(tok.value)
            return self._shared(Ap, self.names.index(tok.value))
        self._fail_expected("label expression")
        raise AssertionError

    def _parse_acceptance_atom(self, set_count: int, depth: int) -> AcceptanceCond:
        tok = self.tok
        if tok.kind == "ident" and tok.value in ("t", "f"):
            self._take()
            return Top() if tok.value == "t" else Bot()
        if tok.kind == "ident" and tok.value in ("Fin", "Inf"):
            self._take()
            self._expect("(", "'('")
            if self.tok.kind == "!":
                self._fail("negated acceptance-set references are not supported")
            index, itok = self._expect_int("acceptance set index")
            if index >= set_count:
                self._fail(f"acceptance set {index} not declared", itok)
            self._expect(")", "')'")
            return Fin(index) if tok.value == "Fin" else Inf(index)
        self._fail_expected("acceptance condition")
        raise AssertionError

    # -- construction

    def _build(
        self,
        head,
        body_tok,
        num_states,
        starts,
        aps,
        acc_count,
        condition,
        acc_tok,
        states,
        marks,
        name,
        acc_name,
        tool,
        properties,
    ) -> Automaton:
        mentioned: list[int] = []
        seen_ids: set[int] = set()
        for sid in states:
            if sid not in seen_ids:
                seen_ids.add(sid)
                mentioned.append(sid)
        for sid in states:
            for _, tgt in states[sid]:
                if tgt not in seen_ids:
                    seen_ids.add(tgt)
                    mentioned.append(tgt)
        for value, _ in starts:
            if value not in seen_ids:
                seen_ids.add(value)
                mentioned.append(value)

        if num_states is not None:
            for sid in mentioned:
                if sid >= num_states:
                    self._fail(
                        f"state id {sid} out of declared range 0..{num_states - 1}",
                        body_tok,
                    )
            count = num_states
            renumber = {i: i for i in range(count)}
            display = None
        else:
            count = len(mentioned)
            if count == 0:
                self._fail("automaton has no states", body_tok)
            if sorted(mentioned) == list(range(count)):
                renumber = {i: i for i in range(count)}
                display = None
            else:
                renumber = {orig: i for i, orig in enumerate(mentioned)}
                display = tuple(mentioned)

        if not starts:
            self._fail("at least one initial state is required (Start: missing)", head)
        initial = frozenset(renumber[value] for value, _ in starts)

        transitions = []
        for sid in sorted(states, key=lambda s: renumber[s]):
            for label, tgt in states[sid]:
                transitions.append(Transition(renumber[sid], label, renumber[tgt]))

        acc_sets: list[set[int]] = [set() for _ in range(acc_count)]
        for sid, indices in marks.items():
            for k in indices:
                acc_sets[k].add(renumber[sid])

        refs = acc_set_refs(condition)
        empty_refs = sorted(k for k in refs if not acc_sets[k])
        if empty_refs:
            if not self.allow_empty_acc_sets:
                self._fail(
                    f"acceptance set {empty_refs[0]} is referenced but empty "
                    "(no state belongs to it)",
                    acc_tok or head,
                )
            condition = _drop_empty_sets(condition, frozenset(empty_refs))

        try:
            return Automaton(
                aps=aps,
                num_states=count,
                initial=initial,
                transitions=tuple(transitions),
                acc_sets=tuple(frozenset(s) for s in acc_sets),
                condition=condition,
                name=name,
                acc_name=acc_name,
                tool=tool,
                properties=properties,
                display_ids=display,
            )
        except ValueError as exc:
            self._fail(str(exc), head)


_LABEL = (_Parser._parse_label_atom, And, Or, "label expression")
_ACCEPTANCE = (_Parser._parse_acceptance_atom, AccAnd, AccOr, "acceptance condition")


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
    parser = None
    try:
        parser = _Parser(text, allow_empty_acc_sets)
        automata, warnings = parser.parse_document()
    except _Abort as abort:
        earlier = list(parser.warnings) if parser is not None else []
        raise HoaParseError(earlier + [abort.diagnostic]) from None
    return HoaDocument(tuple(automata), tuple(warnings))


def parse_named_label(text: str) -> tuple[LabelExpr, tuple[str, ...]]:
    """Parse an HOA label whose atoms are proposition names, bare or quoted,
    in place of indices; returns it with the name table its ``Ap`` indices
    refer to, in first-use order. Raises :class:`HoaParseError` on failure."""
    try:
        parser = _Parser(text, False, [])
        expr = parser._parse_formula(_LABEL, {})
        if parser.tok.kind != "eof":
            parser._fail_expected("end of formula")
    except _Abort as abort:
        raise HoaParseError([abort.diagnostic]) from None
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
