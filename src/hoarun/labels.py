"""Boolean formulas over atomic propositions, used as transition labels.

A formula is an immutable tree; a valuation assigns one bit per
proposition index. Semantic checks (disjointness, covering) enumerate
assignments of the propositions that actually occur in the formulas
under test: unreferenced propositions cannot affect the result, so the
checks stay exact while touching at most 2**k cases for k occurring
propositions. A hard cap keeps that enumeration predictable. The checks
and the runtime evaluate formulas through :func:`compile_label`;
:func:`evaluate` is the tree-walking reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

DEFAULT_ENUM_CAP = 16


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
    """Base class for formula nodes. Instances are immutable and shareable."""

    # weakly referenced by compile_label's memo, which forgets a formula with it
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class TrueLabel(LabelExpr):
    pass


@dataclass(frozen=True, slots=True)
class FalseLabel(LabelExpr):
    pass


@dataclass(frozen=True, slots=True)
class Ap(LabelExpr):
    index: int


@dataclass(frozen=True, slots=True)
class Not(LabelExpr):
    child: LabelExpr


@dataclass(frozen=True, slots=True)
class And(LabelExpr):
    children: tuple[LabelExpr, ...]


@dataclass(frozen=True, slots=True)
class Or(LabelExpr):
    children: tuple[LabelExpr, ...]


TRUE = TrueLabel()
FALSE = FalseLabel()


def land(*children: LabelExpr) -> LabelExpr:
    """n-ary conjunction; flattens nested conjunctions, never simplifies."""
    flat: list[LabelExpr] = []
    for child in children:
        if isinstance(child, And):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def lor(*children: LabelExpr) -> LabelExpr:
    """n-ary disjunction; flattens nested disjunctions, never simplifies."""
    flat: list[LabelExpr] = []
    for child in children:
        if isinstance(child, Or):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


@dataclass(frozen=True, slots=True)
class Valuation:
    """Truth assignment as a bit vector: bit i holds proposition i's value."""

    bits: int
    width: int

    @classmethod
    def from_bools(cls, values: Iterable[bool]) -> "Valuation":
        bits = 0
        width = 0
        for width, value in enumerate(values, start=1):
            if value:
                bits |= 1 << (width - 1)
        return cls(bits, width)

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


def occurring_aps(*exprs: LabelExpr) -> frozenset[int]:
    """Indices of all propositions occurring in the given formulas."""
    found: set[int] = set()
    stack: list[LabelExpr] = list(exprs)
    while stack:
        node = stack.pop()
        if isinstance(node, Ap):
            found.add(node.index)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
    return frozenset(found)


def _ap_mask(exprs: Iterable[LabelExpr]) -> int:
    """Bit mask of the propositions occurring in ``exprs``."""
    return sum(1 << index for index in occurring_aps(*exprs))


def _check_mask(mask: int, ap_count: int) -> None:
    """Refuse an enumeration over ``mask``: out of range or over the cap."""
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


def _assignments(mask: int) -> Iterator[int]:
    """Every valuation whose true propositions lie within ``mask``."""
    bits = 0
    while True:
        yield bits
        if bits == mask:
            return
        bits = (bits - mask) & mask  # next subset of mask, in increasing order


def pairwise_disjoint(labels: Iterable[LabelExpr], ap_count: int) -> bool:
    """True iff no valuation satisfies two of the labels.

    Each label's proposition mask and predicate are computed once; every
    pair enumerates the union of its two masks, under the cap, in order.
    """
    compiled = [(_ap_mask((label,)), compile_label(label)) for label in labels]
    for i, (mask_a, holds_a) in enumerate(compiled):
        for mask_b, holds_b in compiled[i + 1 :]:
            mask = mask_a | mask_b
            _check_mask(mask, ap_count)
            if any(holds_a(bits) and holds_b(bits) for bits in _assignments(mask)):
                return False
    return True


def are_disjoint(a: LabelExpr, b: LabelExpr, ap_count: int) -> bool:
    """True iff no valuation satisfies both formulas."""
    return pairwise_disjoint((a, b), ap_count)


def covers_all(labels: Iterable[LabelExpr], ap_count: int) -> bool:
    """True iff every valuation satisfies at least one of the labels."""
    labels = tuple(labels)
    mask = _ap_mask(labels)
    _check_mask(mask, ap_count)
    predicates = [compile_label(label) for label in labels]
    return all(
        any(holds(bits) for holds in predicates) for bits in _assignments(mask)
    )


def minterm(index: int, ap_count: int) -> LabelExpr:
    """Conjunction of literals for valuation ``index``, proposition 0 as LSB."""
    literals: list[LabelExpr] = []
    for i in range(ap_count):
        literals.append(Ap(i) if index >> i & 1 else Not(Ap(i)))
    return land(*literals)


_Key = tuple[int, tuple[int, ...] | None]

# compiled predicates, by (id(formula), positions) next to a weak
# reference to the formula, for as long as the formula lives; and by
# generated source, so that equal formulas share one code object
_BY_LABEL: dict[_Key, tuple[weakref.ref, Callable[[int], object]]] = {}
_BY_SOURCE: dict[str, Callable[[int], object]] = {}

# operator nesting at which a subformula is compiled as its own helper:
# Python's parser gives up on expressions a few hundred levels deep
_HELPER_DEPTH = 50


def compile_label(
    expr: LabelExpr, positions: tuple[int, ...] | None = None
) -> Callable[[int], object]:
    """Compile a formula into one code object over the valuation bits.

    The result is truthy iff the formula holds; equivalent to
    :func:`evaluate` but without width checks. ``Ap(i)`` reads bit
    ``positions[i]`` of the valuation, or bit ``i`` when ``positions`` is
    None, so a formula over an automaton's own propositions runs directly
    on a valuation over a wider, differently ordered proposition list.
    Memoised by the formula object while it lives and by the generated
    source, so no formula is hashed or compared node by node and one of
    any depth compiles; equal formulas share one code object (the parser
    gives equal labels one object, so they compile once). The memo keeps
    one entry per live formula and positions, and one code object per
    distinct source.
    """
    key = (id(expr), positions)
    entry = _BY_LABEL.get(key)
    if entry is None or entry[0]() is not expr:
        source = _py_source(expr, positions)
        holds = _BY_SOURCE.get(source)
        if holds is None:
            namespace: dict[str, object] = {"__builtins__": {}}
            exec(source, namespace)
            holds = _BY_SOURCE[source] = namespace["holds"]
        entry = _BY_LABEL[key] = (weakref.ref(expr, _forget(key)), holds)
    return entry[1]


def _forget(key: _Key) -> Callable[[weakref.ref], None]:
    """Callback that drops the memo entry ``key`` when its formula dies."""

    def forget(ref: weakref.ref) -> None:
        if _BY_LABEL.get(key, (None,))[0] is ref:
            del _BY_LABEL[key]

    return forget


def _py_source(expr: LabelExpr, positions: tuple[int, ...] | None) -> str:
    """Source that binds ``holds`` to the formula's predicate.

    Built bottom-up from an explicit stack. Parenthesised only where
    precedence needs it (`not` binds tighter than `and`, `and` than
    `or`). A subformula nested ``_HELPER_DEPTH`` operators deep becomes a
    helper function of its own, defined on an earlier line and called by
    name, so no line nests deeper than that.
    """
    helpers: list[str] = []
    # id(node) -> (source, operator nesting, loosest operator at its top)
    done: dict[int, tuple[str, int, type | None]] = {}
    stack: list[LabelExpr] = [expr]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        children = _children(node)
        pending = [c for c in children if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        entry = _node_source(node, positions, [done[id(c)] for c in children])
        if entry[1] >= _HELPER_DEPTH:
            helpers.append(f"h{len(helpers)} = lambda b: {entry[0]}")
            entry = (f"h{len(helpers) - 1}(b)", 0, None)
        done[id(node)] = entry
    return "\n".join(helpers + [f"holds = lambda b: {done[id(expr)][0]}"])


def _children(node: LabelExpr) -> tuple[LabelExpr, ...]:
    if isinstance(node, Not):
        return (node.child,)
    if isinstance(node, (And, Or)):
        return node.children
    return ()


def _node_source(
    node: LabelExpr,
    positions: tuple[int, ...] | None,
    children: list[tuple[str, int, type | None]],
) -> tuple[str, int, type | None]:
    """Source, operator nesting and top operator of one node, given its
    children's."""
    if isinstance(node, Ap):
        bit = node.index if positions is None else positions[node.index]
        return f"b >> {bit} & 1", 0, None
    if isinstance(node, TrueLabel):
        return "True", 0, None
    if isinstance(node, FalseLabel):
        return "False", 0, None
    if not isinstance(node, (Not, And, Or)):
        raise TypeError(f"not a label expression: {node!r}")
    if not children:
        return ("True" if isinstance(node, And) else "False"), 0, None
    depth = max(d for _, d, _ in children) + 1
    if isinstance(node, Not):
        ((child, _, top),) = children
        return (f"not ({child})" if top in (And, Or) else f"not {child}"), depth, Not
    if isinstance(node, And):
        terms = (f"({t})" if top is Or else t for t, _, top in children)
        return " and ".join(terms), depth, And
    return " or ".join(t for t, _, _ in children), depth, Or
