"""Boolean formulas over atomic propositions, used as transition labels.

A formula is an immutable tree; a valuation assigns one bit per
proposition index. The checks and the runtime use one compiled form of
a formula, its cover (:func:`cover`): a disjunction of cubes. A formula
whose cover would exceed ``CUBE_CAP`` cubes is walked (:func:`holds`),
and the checks enumerate assignments for it. Either way the checks
refuse more than ``DEFAULT_ENUM_CAP`` occurring propositions, so their
answers do not depend on the way taken. :func:`evaluate` is the
tree-walking reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_ENUM_CAP = 16

# cubes a cover may hold: past it a formula is walked, not covered
CUBE_CAP = 64


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

    __slots__ = ()


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


# a cube (care, value) holds on the valuation bits b with b & care ==
# value, and a cover, a tuple of cubes, where one of them holds
Cube = tuple[int, int]
Cover = tuple[Cube, ...]
_TRUE_COVER: Cover = ((0, 0),)


def _nnf_fold(
    expr: LabelExpr, literal: Callable, conjoin: Callable, disjoin: Callable, done: dict
):
    """Fold ``expr`` with its negations pushed to the literals (De Morgan).

    ``(node, positive)`` is the node, or its negation when not positive:
    ``literal(index, positive)`` values a proposition, ``conjoin`` or
    ``disjoin`` the values of a node's children (none for a constant).
    Each is valued once, from an explicit stack, so any depth folds
    without recursion; ``done`` keeps them by ``(id(node), positive)``.
    """
    stack = [(expr, True)]
    while stack:
        node, positive = stack[-1]
        if (id(node), positive) in done:
            stack.pop()
            continue
        if isinstance(node, Not):
            children: tuple = ((node.child, not positive),)
        else:
            children = tuple((child, positive) for child in getattr(node, "children", ()))
        pending = [item for item in children if (id(item[0]), item[1]) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        values = [done[id(child), sign] for child, sign in children]
        if isinstance(node, Not):
            done[id(node), positive] = values[0]
        elif isinstance(node, Ap):
            done[id(node), positive] = literal(node.index, positive)
        elif isinstance(node, (And, Or, TrueLabel, FalseLabel)):
            fold = conjoin if isinstance(node, (And, TrueLabel)) == positive else disjoin
            done[id(node), positive] = fold(values)
        else:
            raise TypeError(f"not a label expression: {node!r}")
    return done[id(expr), True]


def holds(expr: LabelExpr, bits: int, positions: Sequence[int] | None = None) -> bool:
    """:func:`evaluate` by one walk, without recursion or width check;
    ``Ap(i)`` reads bit ``positions[i]``, or bit ``i`` when it is None."""

    def literal(index: int, positive: bool) -> bool:
        return bool(bits >> (index if positions is None else positions[index]) & 1) == positive

    return _nnf_fold(expr, literal, all, any, {})


def cover(expr: LabelExpr, memo: dict | None = None) -> tuple[int, Cover | None]:
    """The mask of the propositions in ``expr``, and its cover over bit i
    for proposition i, or None when a subformula's has over CUBE_CAP cubes.

    ``memo`` keeps the result of every node by id: give the labels of one
    automaton one memo, which they outlive, so each node converts once.
    """
    return _nnf_fold(expr, _literal, _conjoin, _disjoin, {} if memo is None else memo)


def _literal(index: int, positive: bool) -> tuple[int, Cover]:
    return 1 << index, ((1 << index, positive << index),)


def _conjoin(children: list[tuple[int, Cover | None]]) -> tuple[int, Cover | None]:
    mask, result = 0, _TRUE_COVER
    for child_mask, cubes in children:
        mask |= child_mask
        result = None if result is None or cubes is None else _capped(
            (care_a | care_b, value_a | value_b)
            for care_a, value_a in result
            for care_b, value_b in cubes
            if not (value_a ^ value_b) & care_a & care_b
        )
    return mask, result


def _disjoin(children: list[tuple[int, Cover | None]]) -> tuple[int, Cover | None]:
    mask, result = 0, ()
    for child_mask, cubes in children:
        mask |= child_mask
        result = None if result is None or cubes is None else _capped(result + cubes)
    return mask, result


def _capped(cubes: Iterable[Cube]) -> Cover | None:
    """The distinct cubes that no other one contains; None past CUBE_CAP."""
    distinct = dict.fromkeys(cubes)
    if len(distinct) > CUBE_CAP:
        return None
    return tuple(
        (care, value)
        for care, value in distinct
        if not any(c != care and c & care == c and value & c == v for c, v in distinct)
    )


def remap(cubes: Cover, positions: Sequence[int]) -> Cover:
    """``cubes`` with bit i moved to bit ``positions[i]``."""

    def move(bits: int) -> int:
        return sum(1 << position for i, position in enumerate(positions) if bits >> i & 1)

    return tuple((move(care), move(value)) for care, value in cubes)


def _tautology(cubes: list[Cube]) -> bool:
    """True iff the cubes hold on every valuation, by Shannon splitting on
    a proposition with literals of both signs until a branch has a cube
    without care bits. A branch with no such proposition fails, as the
    valuation opposing every literal satisfies none of its cubes: the
    unate recursive paradigm of Espresso."""
    stack = [cubes]
    while stack:
        cubes = stack.pop()
        if all(care for care, _ in cubes):
            positive = negative = 0
            for care, value in cubes:
                positive, negative = positive | value, negative | care & ~value
            if not positive & negative:
                return False
            bit = positive & negative & -(positive & negative)
            stack.append([(care & ~bit, value) for care, value in cubes if not value & bit])
            stack.append([(c & ~bit, v & ~bit) for c, v in cubes if not c & ~v & bit])
    return True


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


def _assignments(mask: int) -> Iterator[int]:
    """Every valuation whose true propositions lie within ``mask``."""
    bits = 0
    while True:
        yield bits
        if bits == mask:
            return
        bits = (bits - mask) & mask  # next subset of mask, in increasing order


def pairwise_disjoint(
    labels: Iterable[LabelExpr], ap_count: int, memo: dict | None = None
) -> bool:
    """True iff no valuation satisfies two of the labels.

    Every pair's union mask goes through the cap, in order. Two covers
    (:func:`cover`, through ``memo``) meet iff two of their cubes agree
    where both care; a pair with a label that has none is enumerated.
    """
    labels = tuple(labels)
    compiled = [cover(label, memo) for label in labels]
    for i, (mask_a, cubes_a) in enumerate(compiled):
        for label_b, (mask_b, cubes_b) in zip(labels[i + 1 :], compiled[i + 1 :]):
            _check_mask(mask_a | mask_b, ap_count)
            if cubes_a is None or cubes_b is None:
                meet = any(
                    holds(labels[i], bits) and holds(label_b, bits)
                    for bits in _assignments(mask_a | mask_b)
                )
            else:
                meet = any(not (va ^ vb) & ca & cb for ca, va in cubes_a for cb, vb in cubes_b)
            if meet:
                return False
    return True


def are_disjoint(a: LabelExpr, b: LabelExpr, ap_count: int) -> bool:
    """True iff no valuation satisfies both formulas."""
    return pairwise_disjoint((a, b), ap_count)


def covers_all(labels: Iterable[LabelExpr], ap_count: int, memo: dict | None = None) -> bool:
    """True iff every valuation satisfies at least one of the labels.

    Their union mask goes through the cap; their covers (:func:`cover`,
    through ``memo``) are checked for a tautology, labels of which one
    has none by enumeration.
    """
    labels = tuple(labels)
    compiled = [cover(label, memo) for label in labels]
    mask = 0
    for label_mask, _ in compiled:
        mask |= label_mask
    _check_mask(mask, ap_count)
    if any(cubes is None for _, cubes in compiled):
        return all(any(holds(label, bits) for label in labels) for bits in _assignments(mask))
    return _tautology([cube for _, cubes in compiled for cube in cubes])


def minterm(index: int, ap_count: int) -> LabelExpr:
    """Conjunction of literals for valuation ``index``, proposition 0 as LSB."""
    literals: list[LabelExpr] = []
    for i in range(ap_count):
        literals.append(Ap(i) if index >> i & 1 else Not(Ap(i)))
    return land(*literals)
