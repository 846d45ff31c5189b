"""Boolean formulas over atomic propositions, used as transition labels.

A formula is an immutable tree; a valuation assigns one bit per
proposition index, and :func:`evaluate` is the tree-walking reference.
The checks and the runtime use one compiled form, decision diagrams
(:class:`Diagrams`): one per label, and per state a table of the labels
that hold on each input (:class:`LabelTable`), which determinism and
completeness are read off. One store holds the diagrams that a run
builds, with a computed table (Brace, Rudell and Bryant, DAC 1990) of
the operations' results, so that two sub-diagrams are combined once per
run. The checks refuse more than ``DEFAULT_ENUM_CAP`` occurring
propositions, as a rule, and no step in building a diagram adds more
than ``NODE_BUDGET`` nodes, which within the cap none reaches.
"""

from __future__ import annotations

import sys
from typing import Callable, Container, Iterable, Iterator, Sequence

from .records import record, set_field

DEFAULT_ENUM_CAP = 16

# the nodes that one operation on decision diagrams may add to their store:
# more than a diagram over DEFAULT_ENUM_CAP propositions can have (fewer
# than 2 ** (cap + 1), leaves included), so no operation within the cap
# ever reaches it, and past it the diagrams of some labels grow
# exponentially with the order of their propositions
NODE_BUDGET = 2 << DEFAULT_ENUM_CAP


class LabelError(Exception):
    """Base class for label-level errors."""


class CapacityError(LabelError):
    """A semantic check would enumerate more propositions than the cap allows."""


class ValuationWidthError(LabelError):
    """A formula refers to a proposition outside the valuation's width.

    Signals a mismatch between an automaton's proposition list and the
    inputs being fed to it.
    """


class LabelExpr:
    """Base class for formula nodes. Instances are immutable and shareable.

    Equality, hashing and ``repr`` are structural, as a record's, but
    read the formula from an explicit stack, so that labels nested past
    the recursion limit (which `Alias:` bodies reach) compare, hash and
    print; a shared node is hashed and printed once."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelExpr):
            return NotImplemented
        pairs = [(self, other)]
        seen: set[tuple[int, int]] = set()
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, Ap):
                if a.index != b.index:
                    return False
                continue
            children, others = _children(a), _children(b)
            if len(children) != len(others):
                return False
            pairs.extend(zip(children, others))
        return True

    def __hash__(self) -> int:
        done: dict[int, int] = {}  # hash by node id
        for node in postorder(self):
            if isinstance(node, Ap):
                done[id(node)] = hash((Ap, node.index))
            else:
                done[id(node)] = hash((node.__class__, *(done[id(c)] for c in _children(node))))
        return done[id(self)]

    def __repr__(self) -> str:
        done: dict[int, str] = {}  # text by node id
        for node in postorder(self):
            name = node.__class__.__qualname__
            if isinstance(node, Ap):
                done[id(node)] = f"{name}(index={node.index!r})"
            elif isinstance(node, Not):
                done[id(node)] = f"{name}(child={done[id(node.child)]})"
            elif isinstance(node, (And, Or)):
                parts = [done[id(child)] for child in node.children]
                comma = "," if len(parts) == 1 else ""  # as a 1-tuple prints
                done[id(node)] = f"{name}(children=({', '.join(parts)}{comma}))"
            else:
                done[id(node)] = f"{name}()"
        return done[id(self)]


# eq, hash and repr come from LabelExpr; the nodes are built in bulk (an
# implicit-labelled automaton's minterms, every parsed label), so each
# has a plain constructor


@record
class TrueLabel(LabelExpr):
    pass


@record
class FalseLabel(LabelExpr):
    pass


@record
class Ap(LabelExpr):
    index: int

    def __init__(self, index: int):
        set_field(self, "index", index)


@record
class Not(LabelExpr):
    child: LabelExpr

    def __init__(self, child: LabelExpr):
        set_field(self, "child", child)


@record
class And(LabelExpr):
    children: tuple[LabelExpr, ...]

    def __init__(self, children: tuple[LabelExpr, ...]):
        set_field(self, "children", children)


@record
class Or(LabelExpr):
    children: tuple[LabelExpr, ...]

    def __init__(self, children: tuple[LabelExpr, ...]):
        set_field(self, "children", children)


TRUE = TrueLabel()
FALSE = FalseLabel()


def chain(cls: type, children, unit):
    """The n-ary ``cls`` node over ``children``, taking the children of a
    child that is a ``cls`` node itself; ``unit`` for no children and the
    child itself for one. Never simplifies."""
    flat = []
    for child in children:
        if isinstance(child, cls):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def land(*children: LabelExpr) -> LabelExpr:
    """n-ary conjunction; flattens nested conjunctions, never simplifies."""
    return chain(And, children, TRUE)


def lor(*children: LabelExpr) -> LabelExpr:
    """n-ary disjunction; flattens nested disjunctions, never simplifies."""
    return chain(Or, children, FALSE)


@record
class Valuation:
    """Truth assignment as a bit vector: bit i holds proposition i's value."""

    bits: int
    width: int

    def __getitem__(self, index: int) -> bool:
        if not 0 <= index < self.width:
            raise ValuationWidthError(
                f"proposition index {index} outside valuation width {self.width}"
            )
        return bool(self.bits >> index & 1)

    def bit_string(self) -> str:
        """Bits as text, proposition 0 first."""
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.width))


def evaluate(expr: LabelExpr, valuation: Valuation) -> bool:
    """Standard Boolean semantics of ``expr`` under ``valuation``."""
    if isinstance(expr, Ap):
        return valuation[expr.index]
    if isinstance(expr, TrueLabel):
        return True
    if isinstance(expr, FalseLabel):
        return False
    if isinstance(expr, Not):
        return not evaluate(expr.child, valuation)
    if isinstance(expr, And):
        return all(evaluate(c, valuation) for c in expr.children)
    if isinstance(expr, Or):
        return any(evaluate(c, valuation) for c in expr.children)
    raise TypeError(f"not a label expression: {expr!r}")


def postorder(*roots, skip: Container[int] = ()) -> Iterator:
    """Every node of the formulas ``roots`` once, after its children (a
    ``child`` or ``children``), from an explicit stack: any depth is
    walked without recursion, and a shared node is visited once. Nodes
    whose ids are in ``skip`` are left out, with all below them."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in seen or id(node) in skip:
            stack.pop()
            continue
        children = _children(node)
        pending = [child for child in children if id(child) not in seen and id(child) not in skip]
        if pending:
            stack.extend(pending)
            continue
        seen.add(id(node))
        stack.pop()
        yield node


def _children(node) -> tuple:
    """The nodes right below a formula node: a ``child`` or ``children``."""
    return (node.child,) if isinstance(node, Not) else getattr(node, "children", ())


def occurring_aps(*exprs: LabelExpr) -> frozenset[int]:
    """Indices of all propositions occurring in the given formulas."""
    return gathered(exprs, Ap, "index")


def gathered(roots, kind, field: str) -> frozenset:
    """The ``field`` of every node of class ``kind`` in the trees ``roots``,
    whose other nodes have a ``child`` or ``children`` (formulas, and
    acceptance conditions), from an explicit stack: any depth is walked
    without recursion, and a shared node once, in no order."""
    values, seen, stack = set(), set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, kind):
            values.add(getattr(node, field))
        else:
            stack += _children(node)
    return frozenset(values)


# a cube (care, value) holds on the valuation bits b with b & care == value
Cube = tuple[int, int]

# the proposition a leaf counts as testing: past every real one, so the
# least that some nodes test is an inner node's unless all are leaves
_LEAF = sys.maxsize


class Diagrams:
    """Reduced ordered decision diagrams (Bryant, IEEE TC 1986) over the
    propositions 0, 1, ..., tested in that order and hash-consed in one
    store: a node is an int, and equal diagrams are the same int.

    ``nodes[n]`` is ``(var, low, high)`` for an inner node, which tests
    proposition var and goes on to low when it is false, to high when it
    is true, and ``(_LEAF, value, None)`` for a leaf. A leaf's value may
    be anything (the multi-terminal diagrams of Bahar et al., ICCAD
    1993): a label's diagram has the leaves ``false`` and ``true``, a
    table sets of labels (:meth:`table`). No pass recurses, and the
    passes that may grow large run :meth:`bounded`, so the node budget
    holds per build step, however many automata share the store.

    One store serves a whole run, every automaton and document it loads,
    and owns the caches through which a label, state table, exit cube or
    placement that automata share is built once: ``memo`` (:meth:`label`), and
    ``tables``, ``filed`` and ``walks``, which ``automata.Compiled`` and
    ``runtime.Runner`` fill. A refused build leaves none of them naming
    a node it took back.

    ``computed`` is the computed table of BDD packages (Brace, Rudell and
    Bryant, DAC 1990): the node that :meth:`apply` made for a pair of
    sub-diagrams and an operation, and a node's complement, kept for every
    later operation. A cache hit returns a node that is there already, so
    the budget still counts only new nodes. :meth:`truncate` empties it,
    as it may name the nodes taken back, and so does an operation that
    starts with more than NODE_BUDGET entries in it.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._limit = sys.maxsize  # the length past which node refuses to grow the store
        # by formula node id, its mask and diagram; _held keeps the formulas
        # alive, so that no id in it or in tables is reused while it is there
        self.memo: dict[int, tuple[int, int | None]] = {}
        self._held: list[LabelExpr] = []
        self.tables: dict[tuple[int, ...], LabelTable] = {}  # by the ids of their labels
        self.filed: dict[int, list[Cube] | None] = {}  # exit cubes, by label diagram
        self.walks: dict[tuple[int, ...], dict] = {}  # placed diagrams, by projection
        # apply's nodes by (x, y, op), and complements by node (join's x is a
        # label, added's a table, so their keys never meet)
        self.computed: dict = {}
        self.false = self.leaf(False)
        self.true = self.leaf(True)

    def leaf(self, value) -> int:
        """The leaf holding ``value``."""
        return self.node(_LEAF, value, None)

    def node(self, var, low, high) -> int:
        """The node testing ``var``, or ``low`` when both children are it."""
        if low == high:
            return low
        node = self._ids.get((var, low, high))
        if node is None:
            if len(self.nodes) >= self._limit:
                raise CapacityError(f"over {NODE_BUDGET} new decision diagram nodes")
            node = self._ids[var, low, high] = len(self.nodes)
            self.nodes.append((var, low, high))
        return node

    def truncate(self, length: int) -> None:
        """Take back every node past the first ``length``, and empty the
        computed table, which may name them."""
        for key in self.nodes[length:]:
            del self._ids[key]
        del self.nodes[length:]
        self.computed.clear()

    def _computed(self) -> dict:
        """The computed table, emptied first past NODE_BUDGET entries."""
        if len(self.computed) > NODE_BUDGET:
            self.computed.clear()
        return self.computed

    def bounded(self, build: Callable, *args):
        """``build(*args)``, or None, with the store as it was, when that
        would add more than NODE_BUDGET nodes to it."""
        start = len(self.nodes)
        self._limit = start + NODE_BUDGET
        try:
            return build(*args)
        except CapacityError:
            self.truncate(start)
            return None
        finally:
            self._limit = sys.maxsize

    def fold(self, root: int, at_leaf: Callable, at_node: Callable, done: dict):
        """``root``'s value, from its leaves up: ``at_leaf(value)`` values a
        leaf and ``at_node(var, low's value, high's value)`` an inner node,
        each once, kept in ``done`` (which may hold some already)."""
        nodes = self.nodes
        stack = [root]
        while stack:
            node = stack.pop()
            if node in done:
                continue
            var, low, high = nodes[node]
            if var == _LEAF:
                done[node] = at_leaf(low)
            elif low in done and high in done:
                done[node] = at_node(var, done[low], done[high])
            else:
                stack += (node, low, high)
        return done[root]

    def label(self, expr: LabelExpr) -> tuple[int, int | None]:
        """The mask of the propositions in ``expr``, and its diagram, or
        None when a step in building it is over the budget (:meth:`bounded`),
        as it never is within the cap; then every node the label added is
        taken back, with the entries of ``memo`` that held them. ``memo``
        keeps each formula node's by its id, and the store holds ``expr``."""
        memo = self.memo
        if id(expr) in memo:
            return memo[id(expr)]
        self._held.append(expr)
        start = len(self.nodes)
        for node in postorder(expr, skip=memo):
            if isinstance(node, Ap):
                memo[id(node)] = 1 << node.index, self.node(node.index, self.false, self.true)
            elif isinstance(node, Not):
                mask, child = memo[id(node.child)]
                if child is not None:
                    done = self._computed()  # complements by node
                    child = self.bounded(
                        self.fold, child, lambda value: self.leaf(not value), self.node, done
                    )
                memo[id(node)] = mask, child
            elif isinstance(node, (And, Or, TrueLabel, FalseLabel)):
                children = [memo[id(child)] for child in getattr(node, "children", ())]
                memo[id(node)] = self._joined(isinstance(node, (And, TrueLabel)), children)
            else:
                raise TypeError(f"not a label expression: {node!r}")
        if memo[id(expr)][1] is None:
            self.truncate(start)
            for key in [key for key, (_, n) in memo.items() if n is not None and n >= start]:
                del memo[key]
        return memo[id(expr)]

    def _joined(self, both: bool, values: list[tuple]) -> tuple[int, int | None]:
        """The union of the masks in ``values``, and their diagrams joined
        (:meth:`join`) from those testing the last propositions, so that a
        conjunction of literals grows a node at a time; None when one of
        them is None or a join is over the budget."""
        mask, result = 0, self.true if both else self.false
        for child_mask, _ in values:
            mask |= child_mask
        if any(node is None for _, node in values):
            return mask, None
        for _, node in sorted(values, key=lambda value: -self.nodes[value[1]][0]):
            result = self.bounded(self.join, result, node, both)
            if result is None:
                break
        return mask, result

    def apply(self, a: int, b: int, op, known: Callable) -> int:
        """The diagram that combines ``a`` and ``b`` input by input by the
        operation ``op``: ``known(x, y, done)`` is the node for a pair of
        their subdiagrams, from the computed table ``done`` at ``(x, y,
        op)`` if an operation has made it, or None where both are expanded
        on the least proposition either tests."""
        nodes, done = self.nodes, self._computed()
        root = known(a, b, done)
        if root is not None:
            return root
        stack = [(a, b, op)]
        while stack:
            x, y, _ = stack[-1]
            var = min(nodes[x][0], nodes[y][0])
            x0, x1 = nodes[x][1:] if nodes[x][0] == var else (x, x)
            y0, y1 = nodes[y][1:] if nodes[y][0] == var else (y, y)
            low, high = known(x0, y0, done), known(x1, y1, done)
            if low is None:
                stack.append((x0, y0, op))
            if high is None:
                stack.append((x1, y1, op))
            if low is not None and high is not None:
                done[stack.pop()] = self.node(var, low, high)
        return done[a, b, op]

    def join(self, a: int, b: int, both: bool) -> int:
        """The label diagram of ``a & b`` when ``both``, else of ``a | b``."""
        stop, unit = (self.false, self.true) if both else (self.true, self.false)

        def known(x: int, y: int, done: dict) -> int | None:
            if x == stop or y == stop:
                return stop
            if x == unit or x == y:
                return y
            return x if y == unit else done.get((x, y, both))

        return self.apply(a, b, both, known)

    def table(self, roots: Sequence[int]) -> tuple[int, frozenset] | None:
        """The diagram that maps each input to the frozenset of the
        positions j at which the label diagram ``roots[j]`` is true, and
        the values of its leaves; None, with every node the table added
        taken back, when adding a label to the table of those before it
        (:meth:`added`) is over the budget."""
        start = len(self.nodes)
        table = self.leaf(frozenset())
        for j, root in enumerate(roots):
            if root != self.false:
                table = self.bounded(self.added, table, root, j)
                if table is None:
                    self.truncate(start)
                    return None
        leaves: set[frozenset] = set()
        self.fold(table, leaves.add, lambda *_: None, {})
        return table, frozenset(leaves)

    def added(self, table: int, label: int, j: int) -> int:
        """The table ``table`` with position ``j`` put in the leaves it
        reaches on the inputs where the label diagram ``label`` is true;
        the label's false branches are not walked."""
        nodes, false, true = self.nodes, self.false, self.true

        def known(x: int, y: int, done: dict) -> int | None:
            if y == false:
                return x
            if y == true and nodes[x][0] == _LEAF:
                return self.leaf(nodes[x][1] | {j})
            return done.get((x, y, j))

        return self.apply(table, label, j, known)

    def hull(self, root: int) -> Cube:
        """The smallest cube holding the inputs on which the label diagram
        ``root`` is true, of which there is one at least."""
        return self.fold(root, lambda value: (0, 0) if value else None, _hull_node, {})

    def paths(self, root: int) -> list[Cube] | None:
        """A cube per path from ``root``, a label diagram, to ``true``; None
        when there are more such paths than nodes reachable from it."""
        reachable: dict = {}
        if self.fold(root, int, lambda _, low, high: low + high, reachable) > len(reachable):
            return None
        return self.fold(root, lambda value: [(0, 0)] if value else [], _paths_node, {})

    def placed(self, root: int, positions: Sequence[int], done: dict):
        """``root``'s diagram as nested lists for :func:`walk`, reading bit
        ``positions[i]`` of a wider input for proposition i: an inner node
        as ``[1 << positions[var], low, high]``, a leaf as its value;
        ``done`` keeps them by node, for diagrams that share parts."""
        return self.fold(
            root, lambda value: value, lambda var, low, high: [1 << positions[var], low, high], done
        )


def _hull_node(var: int, low: Cube | None, high: Cube | None) -> Cube | None:
    bit = 1 << var
    if low is None or high is None:
        care, value = low or high
        return care | bit, value | (bit if low is None else 0)
    care = low[0] & high[0] & ~(low[1] ^ high[1])
    return care, low[1] & care


def _paths_node(var: int, low: list[Cube], high: list[Cube]) -> list[Cube]:
    bit = 1 << var
    return [(care | bit, value) for care, value in low] + [
        (care | bit, value | bit) for care, value in high
    ]


def walk(node, bits: int):
    """The value of the leaf that a placed diagram (:meth:`Diagrams.placed`)
    reaches on the input ``bits``."""
    while node.__class__ is list:
        node = node[2] if bits & node[0] else node[1]
    return node


def _check_mask(mask: int, ap_count: int) -> None:
    """Refuse a check over ``mask``: out of range or over the cap."""
    if mask.bit_length() > ap_count:
        raise ValueError(
            f"formula references proposition {mask.bit_length() - 1} "
            f"but only {ap_count} declared"
        )
    if mask.bit_count() > DEFAULT_ENUM_CAP:
        raise CapacityError(
            f"check would enumerate {mask.bit_count()} propositions "
            f"(cap {DEFAULT_ENUM_CAP})"
        )


class LabelTable:
    """The labels leaving one state, as diagrams in ``store``
    (:meth:`Diagrams.label`): ``labels`` holds each one's ``(mask, node)``, in
    order, ``mask`` their union, and ``root`` and ``leaves`` their table
    (:meth:`Diagrams.table`), or None when a label's diagram or the table
    is over the budget (:meth:`Diagrams.bounded`). They are pairwise
    disjoint when no leaf has two positions, and cover every input when
    none is empty; the checks read those answers through the cap, within
    which nothing is over the budget, so they do not depend on the
    diagrams' shape.
    """

    def __init__(self, store: Diagrams, exprs: Iterable[LabelExpr]):
        self.store = store
        self.labels = tuple(store.label(expr) for expr in exprs)
        self.mask = 0
        for mask, _ in self.labels:
            self.mask |= mask
        roots = [node for _, node in self.labels]
        table = None if None in roots else store.table(roots)
        self.root, self.leaves = table or (None, None)

    def disjoint(self, ap_count: int) -> bool:
        """True iff no valuation satisfies two of the labels. Each pair's
        union mask goes through the cap, in order, and the first pair that
        meets or is refused decides: the table answers when all the labels
        together are within the cap, and so is every pair; past it, a pair
        the cap lets through has both diagrams."""
        mask = self.mask
        if mask.bit_length() <= ap_count and mask.bit_count() <= DEFAULT_ENUM_CAP:
            return all(len(leaf) < 2 for leaf in self.leaves)
        for i, (mask_a, a) in enumerate(self.labels):
            for mask_b, b in self.labels[i + 1 :]:
                _check_mask(mask_a | mask_b, ap_count)
                if self.store.join(a, b, True) != self.store.false:
                    return False
        return True

    def covering(self, ap_count: int) -> bool:
        """True iff every valuation satisfies one of the labels; their
        union mask goes through the cap."""
        _check_mask(self.mask, ap_count)
        return all(self.leaves)


def minterm(index: int, ap_count: int) -> LabelExpr:
    """Conjunction of literals for valuation ``index``, proposition 0 as LSB."""
    literals: list[LabelExpr] = []
    for i in range(ap_count):
        literals.append(Ap(i) if index >> i & 1 else Not(Ap(i)))
    return land(*literals)
