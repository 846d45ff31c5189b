import re
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, load_fixture
from helpers import same_labels
from hoarun.automata import BOT, TOP, AccAnd, AccOr, Fin, Inf, Top, acc_and, acc_or
from hoarun.hoa import (
    HoaParseError,
    _Parser,
    format_acceptance,
    format_label,
    parse,
    serialize,
)
from hoarun.labels import Ap, Not, land, lor, minterm

GOOD_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.hoa"))
BAD_FIXTURES = sorted(p.name for p in (FIXTURES / "bad").glob("*.hoa"))

MINIMAL = """\
HOA: v1
States: 1
Start: 0
AP: 1 "p"
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[0] 0
[!0] 0
--END--
"""


def test_minimal_document():
    doc = parse(MINIMAL)
    assert len(doc.automata) == 1
    aut = doc.automata[0]
    assert aut.num_states == 1
    assert len(aut.transitions) == 2
    assert aut.condition == Inf(0)
    assert aut.acc_sets == (frozenset({0}),)
    assert aut.aps == ("p",)
    assert aut.initial == frozenset({0})


def test_acceptance_conjunction():
    doc = parse(load_fixture("compound.hoa"))
    assert doc.automata[0].condition == AccAnd((Fin(0), Inf(1)))


def test_edge_acceptance_marks_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/edge-marks.hoa"))
    assert "transition-based acceptance" in str(err.value)


def test_negated_set_reference_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/negated-accset.hoa"))
    assert "negated" in str(err.value)


def test_undefined_alias_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/undefined-alias.hoa"))
    assert "undefined alias" in str(err.value)


def test_state_out_of_range_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/out-of-range.hoa"))
    assert "out of declared range" in str(err.value)


def test_missing_end_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/no-end.hoa"))
    assert "--END--" in str(err.value)


def test_universal_branching_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/alternating.hoa"))
    assert "universal branching" in str(err.value)


def test_missing_start_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/no-start.hoa"))
    assert "initial state" in str(err.value)


def test_unknown_capitalized_header_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/unknown-upper.hoa"))
    assert "unsupported header" in str(err.value)


def test_duplicate_header_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/dup-header.hoa"))
    assert "duplicate header" in str(err.value)


def test_version_check():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/bad-version.hoa"))
    assert "version" in str(err.value)


def test_mixed_label_styles_rejected():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/mixed-labels.hoa"))
    assert "mixes" in str(err.value)


def test_empty_acceptance_set_rejected_by_default():
    with pytest.raises(HoaParseError) as err:
        parse(load_fixture("bad/empty-accset.hoa"))
    assert "empty" in str(err.value)


def test_empty_acceptance_set_escape_hatch():
    doc = parse(load_fixture("bad/empty-accset.hoa"), allow_empty_acc_sets=True)
    # Inf over an empty set can never hold
    from hoarun.automata import Bot

    assert doc.automata[0].condition == Bot()


def test_diagnostics_carry_positions():
    text = MINIMAL.replace("[!0] 0", "[!0] 7")
    with pytest.raises(HoaParseError) as err:
        parse(text)
    diag = err.value.diagnostics[-1]
    assert diag.line >= 1 and diag.column >= 1
    assert diag.severity == "error"


def _diagnostic_lines(text):
    try:
        return [str(d) for d in parse(text).warnings]
    except HoaParseError as err:
        return [str(d) for d in err.diagnostics]


BAD_FIXTURE_DIAGNOSTICS = {
    "alternating.hoa": "8:6: error: universal branching is not supported",
    "bad-version.hoa": "1:6: error: unsupported format version 'v2'",
    "dup-header.hoa": "3:1: error: duplicate header States:",
    "edge-marks.hoa": "8:7: error: transition-based acceptance unsupported "
    "(edge of state 0 to 0)",
    "empty-accset.hoa": "5:1: error: acceptance set 0 is referenced but empty "
    "(no state belongs to it)",
    "mixed-labels.hoa": "7:1: error: state 0 mixes labeled and unlabeled edges",
    "negated-accset.hoa": "5:19: error: negated acceptance-set references are not supported",
    "no-end.hoa": "9:1: error: missing --END--",
    "no-start.hoa": "1:1: error: at least one initial state is required (Start: missing)",
    "out-of-range.hoa": "6:1: error: state id 5 out of declared range 0..1",
    "undefined-alias.hoa": "8:2: error: undefined alias @nope",
    "unknown-upper.hoa": "4:1: error: unsupported header Mystery:",
}


@pytest.mark.parametrize("name", BAD_FIXTURES)
def test_bad_fixture_diagnostics_are_pinned(name):
    assert _diagnostic_lines(load_fixture(f"bad/{name}")) == [BAD_FIXTURE_DIAGNOSTICS[name]]


_HEAD = 'HOA: v1\nStates: 1\nStart: 0\nAP: 1 "p"\nAcceptance: 1 Inf(0)\n'


@pytest.mark.parametrize(
    "text, expected",
    [
        # an unterminated comment is reported where it opens
        (_HEAD + "/* open /* nested */\n--BODY--\n", ["6:1: error: unterminated comment"]),
        # an unterminated string, also one ending in a backslash: its opening quote
        ('HOA: v1\nname:  "abc', ["2:8: error: unterminated string"]),
        ('HOA: v1\nname: "abc\\', ["2:7: error: unterminated string"]),
        (_HEAD + "Alias: @ 0\n--BODY--\n", ["6:8: error: malformed alias name"]),
        # only \n starts a line; \r and a tab each count as one column
        ("HOA: v1\r\nStates: 1\r\r$", ["2:12: error: unexpected character '$'"]),
        ("HOA: v1\n\t\t$", ["2:3: error: unexpected character '$'"]),
        # after a multi-line nested comment, and after a string spanning lines
        (
            "HOA: v1 /* a\n/* b\n*/ c */ States: x",
            ["3:17: error: expected state count, found 'x'"],
        ),
        ('HOA: v1\nname: "a\nb" $', ["3:4: error: unexpected character '$'"]),
        # the end of input, after trailing blank lines
        ("HOA: v1\nStates:   \n\n", ["4:1: error: expected state count, found ''"]),
        # warnings come before the error that ends the parse
        (
            _HEAD + 'fancy: 1 "x" @a\n--BODY--\nState: 0 "zero" {0}\n[0] 0\n[!0] 0\n'
            "State: 0\n--END--\n",
            [
                "6:1: warning: ignoring unknown header fancy:",
                "8:10: warning: state display names are ignored",
                "11:1: error: state 0 defined twice",
            ],
        ),
        (
            _HEAD + 'note:\n--BODY--\nState: 0 "zero" {0}\n[t] 0\n--END--\n',
            [
                "6:1: warning: ignoring unknown header note:",
                "8:10: warning: state display names are ignored",
            ],
        ),
        # labels and acceptance conditions nest at most 200 levels; the
        # error points at the innermost atom
        (MINIMAL.replace("[0] 0", "[" + "(" * 200 + "0" + ")" * 200 + "] 0"), []),
        (MINIMAL.replace("[0] 0", "[" + "!" * 200 + "0] 0"), []),
        (
            MINIMAL.replace("[0] 0", "[" + "(" * 201 + "0" + ")" * 201 + "] 0"),
            ["8:203: error: label expression nested too deeply"],
        ),
        (
            MINIMAL.replace("[0] 0", "[" + "!" * 201 + "0] 0"),
            ["8:203: error: label expression nested too deeply"],
        ),
        (MINIMAL.replace("Inf(0)\n", "(" * 200 + "Inf(0)" + ")" * 200 + "\n"), []),
        (
            MINIMAL.replace("Inf(0)\n", "(" * 201 + "Inf(0)" + ")" * 201 + "\n"),
            ["5:216: error: acceptance condition nested too deeply"],
        ),
        (MINIMAL.replace("[0] 0", "[] 0"), ["8:2: error: expected label expression, found ']'"]),
        (
            MINIMAL.replace("1 Inf(0)", "1 !Inf(0)"),
            ["5:15: error: expected acceptance condition, found '!'"],
        ),
        # a token of no kind is refused only when the parse reaches it: an
        # error earlier in the text, in the headers or the body, wins
        (_HEAD.replace("States: 1", "States: x") + "$\n", ["2:9: error: expected state count, found 'x'"]),
        ('HOA: v2\nname: "abc', ["1:6: error: unsupported format version 'v2'"]),
        (_HEAD + "--BODY--\nState: 0\nState: 0 {0}\n/* open\n", ["8:1: error: state 0 defined twice"]),
        # with the warnings before it
        (
            _HEAD + 'note: 1\n--BODY--\nState: 0 "zero" {0}\n[0] 0 {0} $ "open\n',
            [
                "6:1: warning: ignoring unknown header note:",
                "8:10: warning: state display names are ignored",
                "9:7: error: transition-based acceptance unsupported (edge of state 0 to 0)",
            ],
        ),
        # reached, it is refused as soon as it follows the token read, before
        # what that token would lead to: a warning, an undefined alias
        (
            _HEAD + 'note:\n--BODY--\nState: 0 "zero" $\n',
            ["6:1: warning: ignoring unknown header note:", "8:17: error: unexpected character '$'"],
        ),
        (_HEAD + "--BODY--\nState: 0 {0}\n[@x$] 0\n", ["8:4: error: unexpected character '$'"]),
        # in a second automaton, after the first's warnings
        (
            _HEAD + 'note: 1\n--BODY--\nState: 0 "zero" {0}\n[t] 0\n--END--\nHOA: v1\nStates: 2 "x\n',
            [
                "6:1: warning: ignoring unknown header note:",
                "8:10: warning: state display names are ignored",
                "12:11: error: unterminated string",
            ],
        ),
    ],
)
def test_diagnostic_positions_are_pinned(text, expected):
    assert _diagnostic_lines(text) == expected


def test_multiple_automata_per_stream():
    doc = parse(load_fixture("multi.hoa"))
    assert [a.name for a in doc.automata] == ["first", "second"]


def test_alias_substitution():
    doc = parse(load_fixture("aliases.hoa"))
    aut = doc.automata[0]
    labels = {t.label for t in aut.transitions if t.src == 0}
    assert land(Ap(0), Ap(1)) in labels
    assert Not(land(Ap(0), Ap(1))) in labels


def test_implicit_labels_expand_to_minterms():
    doc = parse(load_fixture("implicit.hoa"))
    aut = doc.automata[0]
    got = [(t.label, t.dst) for t in aut.transitions if t.src == 0]
    assert got == [
        (minterm(0, 2), 0),
        (minterm(1, 2), 1),
        (minterm(2, 2), 1),
        (minterm(3, 2), 0),
    ]


def test_alias_self_reference_is_undefined():
    text = MINIMAL.replace("--BODY--", "Alias: @a @a | 0\n--BODY--")
    with pytest.raises(HoaParseError) as err:
        parse(text)
    assert "undefined alias" in str(err.value)


def test_duplicate_alias_rejected():
    text = MINIMAL.replace("--BODY--", "Alias: @a 0\nAlias: @a !0\n--BODY--")
    with pytest.raises(HoaParseError) as err:
        parse(text)
    assert "duplicate alias" in str(err.value)


def test_properties_lines_accumulate():
    text = MINIMAL.replace(
        "--BODY--", "properties: trans-labels\nproperties: state-acc\n--BODY--"
    )
    doc = parse(text)
    assert doc.automata[0].properties == ("trans-labels", "state-acc")
    assert parse(serialize(doc)).automata == doc.automata


def test_implicit_labels_wrong_count():
    text = load_fixture("implicit.hoa").replace("0\n1\n1\n0\n", "0\n1\n", 1)
    with pytest.raises(HoaParseError) as err:
        parse(text)
    assert "implicit" in str(err.value)


def test_state_labels_apply_to_all_outgoing_edges():
    doc = parse(load_fixture("statelabel.hoa"))
    aut = doc.automata[0]
    assert [(t.src, t.label, t.dst) for t in aut.transitions] == [
        (0, Ap(0), 1),
        (1, Not(Ap(0)), 0),
    ]


def test_names_with_quotes_and_escapes():
    doc = parse(load_fixture("names.hoa"))
    aut = doc.automata[0]
    assert aut.name == 'quoted "name" with spaces'
    assert aut.aps == ("signal a", "b\\c")
    assert aut.tool == ("handwritten", "0.1")


def test_properties_are_stored_not_trusted():
    text = MINIMAL.replace("--BODY--", "properties: deterministic complete\n--BODY--")
    # make it nondeterministic despite the property tokens
    text = text.replace("[!0] 0", "[t] 0")
    doc = parse(text)
    aut = doc.automata[0]
    assert aut.properties == ("deterministic", "complete")
    from hoarun.automata import Compiled, is_deterministic

    assert not is_deterministic(Compiled(aut))


def test_unknown_lowercase_header_warns():
    text = MINIMAL.replace("--BODY--", "fancy: 1 2 3\n--BODY--")
    doc = parse(text)
    assert any("fancy" in w.message for w in doc.warnings)


def test_nested_comments():
    doc = parse(load_fixture("comments.hoa"))
    assert doc.automata[0].num_states == 2


def test_states_header_optional():
    text = MINIMAL.replace("States: 1\n", "")
    doc = parse(text)
    assert doc.automata[0].num_states == 1


def test_sparse_ids_renumbered_with_display_map():
    text = """\
HOA: v1
Start: 4
AP: 1 "p"
Acceptance: 1 Inf(0)
--BODY--
State: 4 {0}
[t] 9
State: 9
[t] 4
--END--
"""
    doc = parse(text)
    aut = doc.automata[0]
    assert aut.num_states == 2
    assert aut.display_ids == (4, 9)
    assert aut.display_id(0) == 4
    assert aut.initial == frozenset({0})


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_round_trip_fixtures(name):
    first = parse(load_fixture(name))
    again = parse(serialize(first))
    assert again.automata == first.automata


def test_serialize_single_state_block():
    text = serialize(parse(MINIMAL))
    assert text.count("State:") == 1


def test_serialize_preserves_quoting():
    text = serialize(parse(load_fixture("names.hoa")))
    assert '"signal a"' in text
    assert '"b\\\\c"' in text


def test_format_label_precedence():
    expr = lor(land(Ap(0), Not(Ap(1))), Ap(2))
    assert format_label(expr) == "0 & !1 | 2"
    assert format_label(Not(lor(Ap(0), Ap(1)))) == "!(0 | 1)"
    assert format_label(land(lor(Ap(0), Ap(1)), Ap(2))) == "(0 | 1) & 2"
    # labels built through aliases nest deeper than the parser's limit
    deep = Ap(0)
    for _ in range(900):
        deep = Not(deep)
    assert format_label(deep) == "!" * 900 + "0"


def test_format_label_alternating_negations_and_chains_without_recursion():
    # `!(!(0 & 1) & 1)`, ..., 2,000 levels of `!` and `&` by turns, as
    # aliases can nest them; each level is one more chain or negation
    deep, expected = Ap(0), "0"
    for level in range(2000):
        if level % 2:
            deep, expected = Not(deep), f"!({expected})"
        else:
            deep, expected = land(deep, Ap(1)), f"{expected} & 1"
    assert format_label(deep) == expected
    # acceptance conditions go through the same printer: a conjunction
    # inside a disjunction needs no parentheses, and the reverse does
    cond, text = acc_and(Fin(0), Inf(1)), "Fin(0) & Inf(1)"
    for level in range(1, 2000):
        if level % 2:
            cond, text = acc_or(cond, Inf(1)), f"{text} | Inf(1)"
        else:
            cond, text = acc_and(cond, Inf(1)), f"({text}) & Inf(1)"
    assert format_acceptance(cond) == text


def test_nested_same_operator_shapes_survive_round_trips():
    from hoarun.labels import Or

    nested = Or((Or((Ap(0), Ap(1))), Ap(2)))
    assert format_label(nested) == "(0 | 1) | 2"
    flat = lor(Ap(0), Ap(1), Ap(2))
    assert format_label(flat) == "0 | 1 | 2"
    text = MINIMAL.replace("[0] 0", "[(0 | 0) | 0] 0").replace("[!0] 0", "[!((0 | 0) | 0)] 0")
    doc = parse(text)
    labels = [t.label for t in doc.automata[0].transitions]
    assert labels[0] == Or((Or((Ap(0), Ap(0))), Ap(0)))
    assert parse(serialize(doc)).automata == doc.automata


def test_format_acceptance_precedence():
    cond = acc_and(Fin(0), Inf(1))
    assert format_acceptance(cond) == "Fin(0) & Inf(1)"
    assert format_acceptance(Top()) == "t"
    # a parenthesized disjunction stays its own node, as in labels
    text = MINIMAL.replace("1 Inf(0)", "3 (Fin(0) | Inf(1)) | Fin(2)").replace("{0}", "{0 1 2}")
    doc = parse(text)
    nested = AccOr((AccOr((Fin(0), Inf(1))), Fin(2)))
    assert doc.automata[0].condition == nested
    assert parse(serialize(doc)).automata[0].condition == nested
    assert format_acceptance(nested) == "(Fin(0) | Inf(1)) | Fin(2)"
    # the builders flatten, and give the neutral element or the one child
    assert acc_and() is TOP and acc_or() is BOT
    child = AccOr((Fin(0), Inf(1)))
    atom = Fin(3)
    assert acc_and(child) is child and acc_or(atom) is atom and acc_and(atom) is atom
    assert acc_and(AccAnd((Fin(0), Inf(1))), Fin(2)) == AccAnd((Fin(0), Inf(1), Fin(2)))
    assert acc_or(child, Fin(2)) == AccOr((Fin(0), Inf(1), Fin(2)))


def test_parse_never_crashes_on_mutations():
    # quick fuzz smoke; the long-running fuzz lives in the acceptance suite
    import random

    rng = random.Random(42)
    base = load_fixture("compound.hoa")
    for _ in range(300):
        text = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(text))
            text[pos] = chr(rng.randrange(32, 127))
        try:
            parse("".join(text))
        except HoaParseError:
            pass


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.text(max_size=300))
def test_parse_total_on_arbitrary_text(text):
    try:
        parse(text)
    except HoaParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_automata(seed):
    from random import Random

    from helpers import random_det_complete_automaton
    from hoarun.hoa import HoaDocument

    doc = HoaDocument((random_det_complete_automaton(Random(seed)),))
    assert parse(serialize(doc)).automata == doc.automata


def _deep_operand(rng, inner, chain, levels):
    """``inner``, a formula (a chain when ``chain``), under ``levels`` more
    levels of `!` and parentheses, chosen by ``rng``: returns the text and
    whether it is a chain."""
    while levels:
        kind = rng.randrange(3)
        if kind == 0 and levels >= 2 - (not chain):
            inner = f"!({inner})" if chain else "!" + inner
            levels -= 2 if chain else 1
            chain = False
        elif kind == 1:
            inner, chain = f"({inner}) & {rng.randrange(2)}", True
            levels -= 1
        else:
            inner, chain = f"{rng.randrange(2)} | ({inner})", True
            levels -= 1
    return inner, chain


def alias_deep_document(rng) -> str:
    """An automaton whose aliases each nest up to the parser's limit of
    200 levels, each over the one before, so that its labels nest far
    past it once the aliases are written inline."""
    aliases = []
    last = "0"
    for k in range(rng.randint(1, 4)):
        body, _ = _deep_operand(rng, last, False, rng.randint(150, 200))
        aliases.append(f"Alias: @x{k} {body}\n")
        last = f"@x{k}"
    lines = []
    for q in range(2):
        lines.append(f"State: {q}{' {0}' if q == 0 else ''}\n")
        for _ in range(rng.randint(1, 3)):
            label, _ = _deep_operand(rng, last, False, rng.randint(0, 200))
            lines.append(f"[{label}] {rng.randrange(2)}\n")
    return (
        'HOA: v1\nStates: 2\nStart: 0\nAP: 2 "p" "q"\n' + "".join(aliases)
        + "Acceptance: 1 Inf(0)\n--BODY--\n" + "".join(lines) + "--END--\n"
    )


def _round_trips(text: str) -> str:
    """The serialized text of ``text``, after checking that it reparses to
    structurally equal automata and serializes again to itself."""
    doc = parse(text)
    written = serialize(doc)
    again = parse(written)
    assert again.automata == doc.automata
    assert serialize(again) == written
    return written


def test_labels_nested_past_the_limit_through_aliases_round_trip():
    # 150 + 150 `!` through two aliases: 301 levels written inline, where
    # the parser stops at 200
    text = MINIMAL.replace(
        "Acceptance:", f"Alias: @a {'!' * 150}0\nAlias: @b {'!' * 150}@a\nAcceptance:"
    ).replace("[0] 0\n[!0] 0", "[@b] 0\n[!@b] 0")
    written = _round_trips(text)
    assert written.count("Alias:") == 1
    # `0 & (1 | (0 & ...))` 190 levels deep in each of two stacked aliases
    # and in the label: 570 levels
    def chain(inner):
        for level in range(190):
            inner = f"0 & ({inner})" if level % 2 == 0 else f"1 | ({inner})"
        return inner

    label = chain("@b")
    text = MINIMAL.replace('AP: 1 "p"', 'AP: 2 "p" "q"').replace(
        "Acceptance:", f"Alias: @a {chain('0')}\nAlias: @b {chain('@a')}\nAcceptance:"
    ).replace("[0] 0\n[!0] 0", f"[{label}] 0\n[!({label})] 0")
    assert "Alias:" in _round_trips(text)
    # within the limit, nothing is written as an alias
    label = chain("0")
    text = MINIMAL.replace('AP: 1 "p"', 'AP: 2 "p" "q"').replace(
        "[0] 0\n[!0] 0", f"[{label}] 0\n[!({label})] 0"
    )
    assert "Alias:" not in _round_trips(text)


def test_alias_deep_documents_round_trip():
    rng = Random(2024)
    aliased = 0
    for _ in range(40):
        aliased += "Alias:" in _round_trips(alias_deep_document(rng))
    assert aliased > 20  # most are too deep to write inline


def test_labels_past_the_recursion_limit_compare_hash_and_print():
    # two aliases of 200 `!` each: labels 401 levels deep, which the
    # a recursive ==, hash and repr could not take
    text = MINIMAL.replace(
        "Acceptance:", f"Alias: @a {'!' * 200}0\nAlias: @b {'!' * 200}@a\nAcceptance:"
    ).replace("[0] 0\n[!0] 0", "[@b] 0\n[!@b] 0")
    first, second = parse(text).automata, parse(text).automata
    assert first == second and hash(first) == hash(second)
    label = first[0].transitions[0].label
    assert repr(label) == "Not(child=" * 400 + "Ap(index=0)" + ")" * 400
    assert label != first[0].transitions[1].label


# -- the document's memo from label text to label


def _automaton(body: str, header: str = 'AP: 2 "p" "q"\n') -> str:
    return (
        "HOA: v1\nStates: 1\nStart: 0\n" + header
        + "Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n" + body + "--END--\n"
    )


def test_repeated_label_texts_are_one_object():
    state_label = _automaton("0\n").replace("State: 0 {0}", "State: [0 & !1] 0 {0}")
    text = (
        _automaton("[0 & !1] 0\n[0 & !1] 0\n")
        + _automaton("[0 & !1] 0\n", 'AP: 3 "a" "b" "c"\n')
        + state_label
    )
    labels = [t.label for a in parse(text).automata for t in a.transitions]
    assert len(labels) == 4 and all(label is labels[0] for label in labels)
    assert labels[0] == land(Ap(0), Not(Ap(1)))


def test_each_automaton_reads_its_own_alias():
    text = _automaton("[@a] 0\n[!@a] 0\n", 'AP: 2 "p" "q"\nAlias: @a 0\n') + _automaton(
        "[@a] 0\n[!@a] 0\n", 'AP: 2 "p" "q"\nAlias: @a 1 | 0\n'
    )
    first, second = parse(text).automata
    assert [t.label for t in first.transitions] == [Ap(0), Not(Ap(0))]
    assert [t.label for t in second.transitions] == [lor(Ap(1), Ap(0)), Not(lor(Ap(1), Ap(0)))]


def test_a_comment_may_hide_a_closing_bracket():
    (automaton,) = parse(_automaton("[0 /* ] */ & 1] 0\n[0 /* ] */ & 1] 0\n")).automata
    assert [t.label for t in automaton.transitions] == [land(Ap(0), Ap(1))] * 2
    # the text before the first `]` is the same, but the comment is not closed
    with pytest.raises(HoaParseError) as err:
        parse(_automaton("[0 /* ] */ & 1] 0\n[0 /* ] 0\n"))
    assert str(err.value) == "9:4: error: unterminated comment"


@pytest.mark.parametrize(
    "body, expected",
    [
        # the second label is a memo hit; the error is in what follows it
        ("[0 & 1] 0\n[0 & 1] x\n", "9:9: error: expected target state, found 'x'"),
        ("[0 & 1] 0\n[0 & 1]\n", "10:1: error: expected target state, found '--END--'"),
        ("[0 & 1] 0\n[0 & 1] 0 {0}\n", "9:11: error: transition-based acceptance unsupported (edge of state 0 to 0)"),
        ("[0 & 1] 0\n[0 & 1 0\n", "9:8: error: expected ']', found '0'"),
        # after a comment that spans a line and hides a `]`
        ("[0 & 1] 0\n[0 & 1] 0\n[0 /* a\n] */ & $] 1\n", "11:8: error: unexpected character '$'"),
        (
            "[0 /* a\n] */ & 1] 0\n[0 /* b\n] */ & 1] 0\n[0 & 1] 0 {0}\n",
            "12:11: error: transition-based acceptance unsupported (edge of state 0 to 0)",
        ),
    ],
)
def test_diagnostics_after_a_memo_hit_are_unchanged(body, expected):
    with pytest.raises(HoaParseError) as err:
        parse(_automaton(body))
    assert str(err.value) == expected


def test_label_tokens_are_one_memo_entry_whatever_the_blanks_and_comments():
    text = _automaton("[0&1] 0\n[0 & 1] 0\n[0 /* c */ & 1] 0\n[\t0\n&\n1 ] 0\n")
    parser = _Parser(text, False)
    (automaton,) = parser.parse_document()
    labels = [t.label for t in automaton.transitions]
    assert labels == [land(Ap(0), Ap(1))] * 4 and all(label is labels[0] for label in labels)
    assert list(parser._texts) == [("0", "&", "1")]


def test_a_label_out_of_range_in_one_automaton_only_is_refused():
    text = _automaton("[1] 0\n") + _automaton("[0] 0\n[1] 0\n", 'AP: 1 "p"\n')
    with pytest.raises(HoaParseError) as err:
        parse(text)
    assert str(err.value) == "10:1: error: label references undeclared proposition 1"


_BLANKS = ("", " ", " ", "  ", "\t", "\n", " /* ] */ ")


def _spaced(rng, label_text: str) -> str:
    """``label_text`` with random blanks around its tokens, and its atoms
    `1` as the alias `@a` now and then."""
    tokens = re.findall(r"[0-9]+|[tf]|[!&|()]", label_text)
    tokens = ["@a" if tok == "1" and rng.random() < 0.4 else tok for tok in tokens]
    return "".join(rng.choice(_BLANKS) + tok for tok in tokens) + rng.choice(_BLANKS)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_repeated_label_texts_parse_as_each_on_its_own(seed):
    # a few label texts, repeated across the edges and automata of one
    # document, each automaton with its own alias @a: every label must
    # equal its text parsed in a one-edge document of its own
    from helpers import random_label

    rng = Random(seed)
    pool = [_spaced(rng, format_label(random_label(rng, 2, 3))) for _ in range(rng.randint(1, 4))]
    headers, written = [], []
    for _ in range(rng.randint(1, 3)):
        headers.append(f'AP: 2 "p" "q"\nAlias: @a {format_label(random_label(rng, 2, 2))}\n')
        written.append([rng.choice(pool) for _ in range(rng.randint(1, 6))])
    text = "".join(
        _automaton("".join(f"[{label}] 0\n" for label in labels), header)
        for header, labels in zip(headers, written)
    )
    for automaton, header, labels in zip(parse(text).automata, headers, written):
        assert len(automaton.transitions) == len(labels)
        for t, label in zip(automaton.transitions, labels):
            (alone,) = parse(_automaton(f"[{label}] 0\n", header)).automata
            assert same_labels(t.label, alone.transitions[0].label)
