import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import covers_all, pairwise_disjoint, same_labels, valuation_from_bools
from hoarun.automata import (
    Automaton,
    Compiled,
    Inf,
    Transition,
    is_complete,
    is_deterministic,
)
from hoarun.cli import main
from hoarun.hoa import parse
from hoarun.labels import (
    FALSE,
    TRUE,
    And,
    Ap,
    CapacityError,
    Diagrams,
    LabelTable,
    Not,
    Or,
    Valuation,
    ValuationWidthError,
    evaluate,
    land,
    lor,
    minterm,
    occurring_aps,
    walk,
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
    v10 = valuation_from_bools([True, False])
    assert evaluate(land(Ap(0), Not(Ap(1))), v10) is True
    assert evaluate(TRUE, Valuation(0, 0)) is True
    assert evaluate(lor(Ap(0), Not(Ap(0))), Valuation(0, 1)) is True


def test_evaluate_width_error():
    with pytest.raises(ValuationWidthError):
        evaluate(Ap(3), Valuation(0, 2))


def test_are_disjoint_examples():
    assert pairwise_disjoint((Ap(0), Not(Ap(0))), 1) is True
    assert pairwise_disjoint((Ap(0), land(Ap(0), Ap(1))), 2) is False
    assert pairwise_disjoint((FALSE, land(Ap(0), Ap(1))), 2) is True


def test_covers_all_examples():
    assert covers_all([Ap(0), Not(Ap(0))], 1) is True
    assert covers_all([land(Ap(0), Ap(1))], 2) is False
    assert covers_all([TRUE], 0) is True
    assert covers_all([], 0) is False


def test_capacity_cap():
    wide = land(*(Ap(i) for i in range(17)))
    with pytest.raises(CapacityError):
        pairwise_disjoint((wide, TRUE), 20)
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
        is_deterministic(Compiled(aut))
    with pytest.raises(CapacityError):
        is_complete(Compiled(aut))


def _one_state(labels, ap_count):
    return Compiled(
        Automaton(
            aps=tuple(f"p{i}" for i in range(ap_count)),
            num_states=1,
            initial=frozenset({0}),
            transitions=tuple(Transition(0, label, 0) for label in labels),
            acc_sets=(frozenset({0}),),
            condition=Inf(0),
        )
    )


def test_the_cap_applies_to_pairs_in_order():
    # determinism goes through the pairs in order, and the first pair
    # that meets or is over the cap decides: Ap(0) meets 0 & 1 before
    # either is paired with the 17-proposition label
    wide = land(*(Ap(i) for i in range(17)))
    early = [Ap(0), land(Ap(0), Ap(1)), wide]
    assert pairwise_disjoint(early, 20) is False
    assert is_deterministic(_one_state(early, 20)) is False
    late = [wide, Ap(0), land(Ap(0), Ap(1))]
    with pytest.raises(CapacityError):
        pairwise_disjoint(late, 20)
    with pytest.raises(CapacityError):
        is_deterministic(_one_state(late, 20))
    # completeness takes all the state's labels at once: two halves of
    # the 17 propositions are over the cap together, though the first
    # two labels already hold on every input
    halves = [
        Ap(0),
        Not(Ap(0)),
        land(*(Ap(i) for i in range(9))),
        land(*(Ap(i) for i in range(9, 17))),
    ]
    with pytest.raises(CapacityError):
        covers_all(halves, 20)
    with pytest.raises(CapacityError):
        is_complete(_one_state(halves, 20))


def _bus(n):
    # p_i & p_(n+i) for each i: with the inputs numbered before the
    # outputs, the diagram of the disjunction in the fixed proposition
    # order has about 2 ** n nodes
    return lor(*(land(Ap(i), Ap(n + i)) for i in range(n)))


def test_diagrams_past_the_node_budget_are_refused():
    store = Diagrams()
    size = len(store.nodes)
    mask, node = store.label(_bus(20))
    assert mask == (1 << 40) - 1 and node is None
    # every node the label added is taken back, with the memo entries that
    # held them, and the store stays hash-consed
    assert len(store.nodes) == size
    assert all(n is None or n < size for _, n in store.memo.values())
    assert all(store.node(*key) == n for n, key in enumerate(store.nodes) if key[2] is not None)
    # within the cap no operation reaches the budget
    assert store.label(_bus(8))[1] is not None
    # twenty labels of one proposition each meet in 2 ** 20 ways; the
    # table gives back its nodes, the labels' stay
    singles = [Ap(i) for i in range(20)]
    for single in singles:
        store.label(single)
    size = len(store.nodes)
    table = LabelTable(store, singles)
    assert table.root is None and table.leaves is None
    assert len(store.nodes) == size


def test_checks_past_the_node_budget_answer_through_the_cap():
    # the checks answer as if every diagram were there: a pair the cap
    # lets through has its diagrams, and the cap refuses the others
    bus = _bus(20)
    with pytest.raises(CapacityError):
        is_deterministic(_one_state([bus, Not(bus)], 40))
    with pytest.raises(CapacityError):
        is_complete(_one_state([bus, Not(bus)], 40))
    singles = [Ap(i) for i in range(20)]
    assert is_deterministic(_one_state(singles, 20)) is False
    with pytest.raises(CapacityError):
        covers_all(singles, 20)
    bus = _bus(8)
    assert is_deterministic(_one_state([bus, Not(bus)], 16))
    assert is_complete(_one_state([bus, Not(bus)], 16))


def test_precondition_on_ap_count():
    with pytest.raises(ValueError):
        pairwise_disjoint((Ap(4), TRUE), 2)


@given(exprs(), valuations())
def test_negation_involution(expr, valuation):
    assert evaluate(Not(expr), valuation) == (not evaluate(expr, valuation))


@given(exprs(), exprs())
def test_disjointness_matches_enumeration(a, b):
    expected = not any(
        evaluate(a, v) and evaluate(b, v)
        for v in (Valuation(bits, 5) for bits in range(32))
    )
    assert pairwise_disjoint((a, b), 5) == expected


@given(st.lists(exprs(), max_size=4))
def test_covering_matches_enumeration(labels):
    expected = all(
        any(evaluate(label, v) for label in labels)
        for v in (Valuation(bits, 5) for bits in range(32))
    )
    assert covers_all(labels, 5) == expected


def _nodes(store, root):
    reachable = {}
    store.fold(root, lambda value: None, lambda var, low, high: None, reachable)
    return len(reachable)


@given(exprs())
def test_hull_is_the_smallest_cube_holding_a_label(expr):
    # the bits that every valuation satisfying the label shares, with
    # their values; an unsatisfiable label has no hull
    store = Diagrams()
    _, node = store.label(expr)
    satisfying = [bits for bits in range(32) if evaluate(expr, Valuation(bits, 5))]
    if not satisfying:
        assert node == store.false
        return
    care = 31
    for bits in satisfying:
        care &= ~(bits ^ satisfying[0])
    assert store.hull(node) == (care, satisfying[0] & care)
    # one disjoint cube per path to true, unless there are more paths
    # than nodes
    paths = store.paths(node)
    if paths is not None:
        assert len(paths) <= _nodes(store, node)
        for bits in range(32):
            assert sum(bits & c == v for c, v in paths) == (bits in satisfying)


@given(
    st.lists(exprs(), max_size=5),
    st.integers(0, 31),
    st.permutations(range(8)),
    st.integers(0, 255),
)
def test_a_state_table_holds_the_labels_that_evaluate_true(labels, bits, order, noise):
    # the table of a state's labels, placed at permuted positions of a
    # wider input whose other bits are noise, reaches the set of the
    # positions of the labels that hold
    store = Diagrams()
    table = LabelTable(store, labels)
    valuation = Valuation(bits, 5)
    holding = frozenset(j for j, label in enumerate(labels) if evaluate(label, valuation))
    positions = tuple(order[:5])
    wide = noise
    for i, position in enumerate(positions):
        wide &= ~(1 << position)
        wide |= (bits >> i & 1) << position
    assert walk(store.placed(table.root, positions, {}), wide) == holding
    assert holding in table.leaves
    for (mask, node), label in zip(table.labels, labels):
        assert mask == sum(1 << i for i in occurring_aps(label))
        assert walk(store.placed(node, positions, {}), wide) == evaluate(label, valuation)
    # the read-offs are the brute-force answers
    every = [
        frozenset(j for j, label in enumerate(labels) if evaluate(label, Valuation(b, 5)))
        for b in range(32)
    ]
    assert table.leaves == set(every)
    assert table.disjoint(5) == all(len(hold) < 2 for hold in every)
    assert table.covering(5) == all(every)


def test_deep_negation_chain():
    # 300 nested negations, as aliases can build: deeper than Python's
    # recursion takes
    expr = Ap(0)
    for _ in range(300):
        expr = Not(expr)
    store = Diagrams()
    mask, node = store.label(expr)
    assert (mask, node) == (1, store.node(0, store.false, store.true))
    assert store.label(Not(expr)) == (1, store.node(0, store.true, store.false))


def test_deep_alternation_through_aliases(tmp_path, capsys):
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
    store = Diagrams()
    table = LabelTable(store, [t.label for t in automaton.transitions])
    placed = store.placed(table.root, (0, 1), {})
    for bits in range(4):
        p, q = bits & 1, bits >> 1 & 1
        expected = p
        for _ in range(3):
            for level in range(190):
                expected = (p and expected) if level % 2 == 0 else (q or expected)
        assert walk(placed, bits) == frozenset({0 if expected else 1})
    assert _nodes(store, table.root) <= 5
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


@given(exprs(2), exprs(2))
def test_equality_and_hash_are_structural(a, b):
    # the explicit-stack == against the pairwise reference, on small labels
    # where equal ones occur
    assert (a == b) == same_labels(a, b) == (not a != b)
    assert hash(a) == hash(b) or a != b


def test_repr_is_the_dataclass_form():
    assert repr(Ap(0)) == "Ap(index=0)" and repr(TRUE) == "TrueLabel()"
    assert repr(And((Not(Ap(1)),))) == "And(children=(Not(child=Ap(index=1)),))"
    assert repr(Or((FALSE, And(())))) == "Or(children=(FalseLabel(), And(children=())))"
    assert repr(Transition(0, Ap(2), 1)) == "Transition(src=0, label=Ap(index=2), dst=1)"


def test_occurring_aps():
    expr = lor(land(Ap(0), Not(Ap(3))), TRUE)
    assert occurring_aps(expr) == frozenset({0, 3})


def test_valuation_bit_string():
    assert valuation_from_bools([True, False, True]).bit_string() == "101"


def test_enumeration_only_over_occurring_props():
    # 30 declared propositions but only two occur: must not hit the cap
    a = land(Ap(7), Not(Ap(23)))
    assert pairwise_disjoint((a, Not(a)), 30) is True
    assert covers_all([a, Not(a)], 30) is True
