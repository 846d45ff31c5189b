import pytest
from hypothesis import given
from hypothesis import strategies as st

from hoarun.automata import Automaton, Inf, Transition, is_complete, is_deterministic
from hoarun.cli import main
from hoarun.hoa import parse
from hoarun.labels import (
    FALSE,
    TRUE,
    And,
    Ap,
    CapacityError,
    Not,
    Or,
    Valuation,
    ValuationWidthError,
    are_disjoint,
    cover,
    covers_all,
    evaluate,
    holds,
    hull,
    land,
    lor,
    minterm,
    occurring_aps,
    remap,
)


def exprs(max_aps: int = 5):
    leaves = st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.integers(0, max_aps - 1).map(Ap),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        ),
        max_leaves=12,
    )


def valuations(width: int = 5):
    return st.integers(0, (1 << width) - 1).map(lambda bits: Valuation(bits, width))


def test_evaluate_examples():
    v10 = Valuation.from_bools([True, False])
    assert evaluate(land(Ap(0), Not(Ap(1))), v10) is True
    assert evaluate(TRUE, Valuation(0, 0)) is True
    assert evaluate(lor(Ap(0), Not(Ap(0))), Valuation(0, 1)) is True


def test_evaluate_width_error():
    with pytest.raises(ValuationWidthError):
        evaluate(Ap(3), Valuation(0, 2))


def test_are_disjoint_examples():
    assert are_disjoint(Ap(0), Not(Ap(0)), 1) is True
    assert are_disjoint(Ap(0), land(Ap(0), Ap(1)), 2) is False
    assert are_disjoint(FALSE, land(Ap(0), Ap(1)), 2) is True


def test_covers_all_examples():
    assert covers_all([Ap(0), Not(Ap(0))], 1) is True
    assert covers_all([land(Ap(0), Ap(1))], 2) is False
    assert covers_all([TRUE], 0) is True
    assert covers_all([], 0) is False


def test_capacity_cap():
    wide = land(*(Ap(i) for i in range(17)))
    with pytest.raises(CapacityError):
        are_disjoint(wide, TRUE, 20)
    with pytest.raises(CapacityError):
        covers_all([wide], 20)
    # the automaton checks enumerate through the same cap
    aut = Automaton(
        aps=tuple(f"p{i}" for i in range(17)),
        num_states=1,
        initial=frozenset({0}),
        transitions=(Transition(0, wide, 0), Transition(0, Not(wide), 0)),
        acc_sets=(frozenset({0}),),
        condition=Inf(0),
    )
    with pytest.raises(CapacityError):
        is_deterministic(aut)
    with pytest.raises(CapacityError):
        is_complete(aut)


def test_precondition_on_ap_count():
    with pytest.raises(ValueError):
        are_disjoint(Ap(4), TRUE, 2)


@given(exprs(), valuations())
def test_negation_involution(expr, valuation):
    assert evaluate(Not(expr), valuation) == (not evaluate(expr, valuation))


@given(exprs(), exprs())
def test_disjointness_matches_enumeration(a, b):
    expected = not any(
        evaluate(a, v) and evaluate(b, v)
        for v in (Valuation(bits, 5) for bits in range(32))
    )
    assert are_disjoint(a, b, 5) == expected


@given(st.lists(exprs(), max_size=4))
def test_covering_matches_enumeration(labels):
    expected = all(
        any(evaluate(label, v) for label in labels)
        for v in (Valuation(bits, 5) for bits in range(32))
    )
    assert covers_all(labels, 5) == expected


def _satisfies(cubes, bits):
    return any(bits & care == value for care, value in cubes)


@given(exprs())
def test_hull_is_the_smallest_cube_holding_a_cover(expr):
    # the bits that every valuation satisfying the cover shares, with
    # their values; a cover without cubes has no hull
    assert hull(((3, 1), (3, 3), (7, 1))) == (1, 1)
    _, cubes = cover(expr)
    satisfying = [bits for bits in range(32) if cubes is not None and _satisfies(cubes, bits)]
    if not satisfying:
        return
    care = 31
    for bits in satisfying:
        care &= ~(bits ^ satisfying[0])
    assert hull(cubes) == (care, satisfying[0] & care)


@given(exprs(), valuations(), st.permutations(range(8)), st.integers(0, 255))
def test_compiled_agrees_with_evaluate(expr, valuation, order, noise):
    expected = evaluate(expr, valuation)
    mask, cubes = cover(expr)
    assert mask == sum(1 << i for i in occurring_aps(expr))
    # the runtime's cubes and its walk read Ap(i) from bit positions[i]
    # of a wider vector whose other bits are noise
    positions = tuple(order[:5])
    wide = noise
    for i, position in enumerate(positions):
        wide &= ~(1 << position)
        wide |= (valuation.bits >> i & 1) << position
    if cubes is not None:
        assert _satisfies(cubes, valuation.bits) == expected
        moved = remap(cubes, positions)
        assert _satisfies(moved, wide) == expected
    # the walk, taken for labels past the cube cap
    assert holds(expr, valuation.bits) == expected
    assert holds(expr, wide, positions) == expected


def test_compiled_deep_negation_chain():
    # 300 nested negations, as aliases can build: deeper than Python's
    # recursion takes
    expr = Ap(0)
    for _ in range(300):
        expr = Not(expr)
    assert cover(expr) == (1, ((1, 1),))
    assert cover(Not(expr)) == (1, ((1, 0),))
    assert holds(expr, 1) is True
    assert holds(Not(expr), 1) is False


def test_compiled_deep_alternation_through_aliases(tmp_path, capsys):
    # `0 & (1 | (0 & ...))` 190 levels deep in each of two stacked aliases
    # and in the label: 570 levels, too deep to convert or walk by
    # recursion
    def chain(inner):
        for level in range(190):
            inner = f"0 & ({inner})" if level % 2 == 0 else f"1 | ({inner})"
        return inner

    label = chain("@b")
    text = (
        'HOA: v1\nStates: 1\nStart: 0\nAP: 2 "p" "q"\n'
        f"Alias: @a {chain('0')}\nAlias: @b {chain('@a')}\n"
        f"Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {{0}}\n[{label}] 0\n[!({label})] 0\n--END--\n"
    )
    (automaton,) = parse(text).automata
    _, cubes = cover(automaton.transitions[0].label)
    for bits in range(4):
        p, q = bits & 1, bits >> 1 & 1
        expected = p
        for _ in range(3):
            for level in range(190):
                expected = (p and expected) if level % 2 == 0 else (q or expected)
        assert _satisfies(cubes, bits) == bool(expected)
        assert holds(automaton.transitions[0].label, bits) == bool(expected)
    hoa = tmp_path / "deep.hoa"
    hoa.write_text(text)
    trace = tmp_path / "deep.trace"
    trace.write_text("p q\n0 1\n1 1\n")
    assert main(["check", str(hoa)]) == 0
    assert "deterministic=yes complete=yes" in capsys.readouterr().out
    assert main(["run", str(hoa), "--monitor", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "VERDICT 0 good @0\n"


def test_minterm_hits_exactly_one_valuation():
    for index in range(8):
        expr = minterm(index, 3)
        hits = [bits for bits in range(8) if evaluate(expr, Valuation(bits, 3))]
        assert hits == [index]


def test_minterm_zero_aps_is_true():
    assert minterm(0, 0) is TRUE


def test_constructors_flatten_nested_same_op():
    nested = land(land(Ap(0), Ap(1)), Ap(2))
    assert nested == And((Ap(0), Ap(1), Ap(2)))
    assert lor(lor(Ap(0)), Ap(1)) == Or((Ap(0), Ap(1)))
    assert land() is TRUE and lor() is FALSE
    assert land(Ap(1)) == Ap(1)


def test_occurring_aps():
    expr = lor(land(Ap(0), Not(Ap(3))), TRUE)
    assert occurring_aps(expr) == frozenset({0, 3})


def test_valuation_bit_string():
    assert Valuation.from_bools([True, False, True]).bit_string() == "101"


def test_enumeration_only_over_occurring_props():
    # 30 declared propositions but only two occur: must not hit the cap
    a = land(Ap(7), Not(Ap(23)))
    assert are_disjoint(a, Not(a), 30) is True
    assert covers_all([a, Not(a)], 30) is True
