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

from dataclasses import dataclass
from functools import cache
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


def _occurring_or_raise(exprs: Iterable[LabelExpr], ap_count: int) -> int:
    """Bit mask of the propositions occurring in ``exprs``, within the cap."""
    occ = occurring_aps(*exprs)
    if occ and max(occ) >= ap_count:
        raise ValueError(
            f"formula references proposition {max(occ)} but only {ap_count} declared"
        )
    if len(occ) > DEFAULT_ENUM_CAP:
        raise CapacityError(
            f"check would enumerate {len(occ)} propositions (cap {DEFAULT_ENUM_CAP})"
        )
    return sum(1 << index for index in occ)


def _assignments(mask: int) -> Iterator[int]:
    """Every valuation whose true propositions lie within ``mask``."""
    bits = 0
    while True:
        yield bits
        if bits == mask:
            return
        bits = (bits - mask) & mask  # next subset of mask, in increasing order


def are_disjoint(a: LabelExpr, b: LabelExpr, ap_count: int) -> bool:
    """True iff no valuation satisfies both formulas."""
    mask = _occurring_or_raise((a, b), ap_count)
    holds_a, holds_b = compile_label(a), compile_label(b)
    return not any(holds_a(bits) and holds_b(bits) for bits in _assignments(mask))


def covers_all(labels: Iterable[LabelExpr], ap_count: int) -> bool:
    """True iff every valuation satisfies at least one of the labels."""
    labels = tuple(labels)
    mask = _occurring_or_raise(labels, ap_count)
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


@cache
def compile_label(
    expr: LabelExpr, positions: tuple[int, ...] | None = None
) -> Callable[[int], object]:
    """Compile a formula into one code object over the valuation bits.

    The result is truthy iff the formula holds; equivalent to
    :func:`evaluate` but without width checks. ``Ap(i)`` reads bit
    ``positions[i]`` of the valuation, or bit ``i`` when ``positions`` is
    None, so a formula over an automaton's own propositions runs directly
    on a valuation over a wider, differently ordered proposition list.
    Each distinct (formula, positions) pair is compiled once per process
    and the code object is shared; the memo holds one entry per pair
    asked for, so it is bounded by the labels and conditions loaded.
    """
    return eval(f"lambda b: {_py_source(expr, positions)}", {"__builtins__": {}})


def _py_source(expr: LabelExpr, positions: tuple[int, ...] | None) -> str:
    # parenthesised only where precedence needs it (`not` binds tighter
    # than `and`, `and` than `or`): the parser allows 200 nested
    # parentheses, and chains of negations through aliases run deeper
    if isinstance(expr, Ap):
        bit = expr.index if positions is None else positions[expr.index]
        return f"b >> {bit} & 1"
    if isinstance(expr, TrueLabel):
        return "True"
    if isinstance(expr, FalseLabel):
        return "False"
    if isinstance(expr, Not):
        child = _py_source(expr.child, positions)
        return f"not ({child})" if isinstance(expr.child, (And, Or)) else f"not {child}"
    if isinstance(expr, And):
        if not expr.children:
            return "True"
        terms = []
        for c in expr.children:
            term = _py_source(c, positions)
            terms.append(f"({term})" if isinstance(c, Or) else term)
        return " and ".join(terms)
    if isinstance(expr, Or):
        if not expr.children:
            return "False"
        return " or ".join(_py_source(c, positions) for c in expr.children)
    raise TypeError(f"not a label expression: {expr!r}")
