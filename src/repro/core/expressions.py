"""Boolean expressions over named bulk-bitwise operands.

Flash-Cosmos computes expressions like

    {A1 + (B1 . B2 . B3 . B4)} . (C1 + C3) . (D2 + D4)      (Equation 4)

over page-sized bit vectors.  This module provides the expression AST,
reference evaluation (the oracle every functional test compares MWS
results against), and normalization helpers (flattening, double
negation, De Morgan push-down) the planner uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np


class Expression:
    """Base class for boolean expressions (immutable)."""

    def __and__(self, other: "Expression") -> "And":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Or":
        return Or(self, other)

    def __xor__(self, other: "Expression") -> "Xor":
        return Xor(self, other)

    def __invert__(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True)
class Operand(Expression):
    """A named page-sized bit vector stored in the chip."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operand name must be non-empty")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Expression):
    expr: Expression

    def __repr__(self) -> str:
        return f"~{self.expr!r}"


class _Nary(Expression):
    """Shared behaviour of associative-commutative connectives."""

    symbol = "?"

    def __init__(self, *terms: Expression) -> None:
        if len(terms) < 2:
            raise ValueError(
                f"{type(self).__name__} needs at least two terms"
            )
        flattened: list[Expression] = []
        for term in terms:
            if isinstance(term, type(self)):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms = tuple(flattened)
        self._hash: int | None = None  # else every probe rehashes the tree

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.terms))
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickled as a constructor call: str hashes are per process.
        return type(self), self.terms

    def __repr__(self) -> str:
        inner = f" {self.symbol} ".join(repr(t) for t in self.terms)
        return f"({inner})"


class And(_Nary):
    symbol = "&"


class Or(_Nary):
    symbol = "|"


@dataclass(frozen=True)
class Xor(Expression):
    left: Expression
    right: Expression

    def __repr__(self) -> str:
        return f"({self.left!r} ^ {self.right!r})"


def Xnor(left: Expression, right: Expression) -> Expression:
    """XNOR sugar: realized as NOT(XOR) (Equation 2)."""
    return Not(Xor(left, right))


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def evaluate(
    expr: Expression, env: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Reference (host-side) evaluation against named bit vectors."""
    if isinstance(expr, Operand):
        try:
            return np.asarray(env[expr.name], dtype=np.uint8)
        except KeyError:
            raise KeyError(f"operand {expr.name!r} not bound") from None
    if isinstance(expr, Not):
        return (1 - evaluate(expr.expr, env)).astype(np.uint8)
    if isinstance(expr, And):
        return np.bitwise_and.reduce(
            [evaluate(t, env) for t in expr.terms]
        ).astype(np.uint8)
    if isinstance(expr, Or):
        return np.bitwise_or.reduce(
            [evaluate(t, env) for t in expr.terms]
        ).astype(np.uint8)
    if isinstance(expr, Xor):
        return (evaluate(expr.left, env) ^ evaluate(expr.right, env)).astype(
            np.uint8
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def operand_shape(expr: Expression) -> tuple[object, list[str]]:
    """The expression with each operand replaced by its first-appearance
    slot (nested tuples, hashable), and the names in slot order -- one
    walk.  Expressions that differ only in operand names share a shape."""
    slots: dict[str, int] = {}

    def walk(node: Expression) -> object:
        if isinstance(node, Operand):
            return slots.setdefault(node.name, len(slots))
        if isinstance(node, _Nary):
            return (node.symbol, *map(walk, node.terms))
        if isinstance(node, Not):
            return ("~", walk(node.expr))
        if isinstance(node, Xor):
            return ("^", walk(node.left), walk(node.right))
        raise TypeError(f"unknown expression node {type(node).__name__}")

    shape = walk(expr)
    return shape, list(slots)


def operand_names(expr: Expression) -> frozenset[str]:
    """All operand names referenced by an expression."""
    return frozenset(operand_shape(expr)[1])


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------


def rename_operands(
    expr: Expression, mapping: Mapping[str, str]
) -> Expression:
    """Rebuild ``expr`` with operand names substituted per ``mapping``
    (names absent from the mapping are kept).

    This is the expression-tree counterpart of template binding: where
    :meth:`repro.core.planner.PlanTemplate.bind` relocates a *plan*,
    this relocates the *expression* -- useful for replanning fallbacks
    and for reproducing the legacy per-chunk-replan path in benchmarks.
    """
    if isinstance(expr, Operand):
        return Operand(mapping.get(expr.name, expr.name))
    if isinstance(expr, Not):
        return Not(rename_operands(expr.expr, mapping))
    if isinstance(expr, And):
        return And(*(rename_operands(t, mapping) for t in expr.terms))
    if isinstance(expr, Or):
        return Or(*(rename_operands(t, mapping) for t in expr.terms))
    if isinstance(expr, Xor):
        return Xor(
            rename_operands(expr.left, mapping),
            rename_operands(expr.right, mapping),
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def to_nnf(expr: Expression) -> Expression:
    """Negation normal form: NOT appears only on operands or XOR.

    Uses De Morgan's laws -- the same identities Flash-Cosmos exploits
    to lift MWS placement constraints (Section 6.1, Equation 3).
    """
    if isinstance(expr, Operand):
        return expr
    if isinstance(expr, And):
        return And(*(to_nnf(t) for t in expr.terms))
    if isinstance(expr, Or):
        return Or(*(to_nnf(t) for t in expr.terms))
    if isinstance(expr, Xor):
        return Xor(to_nnf(expr.left), to_nnf(expr.right))
    if isinstance(expr, Not):
        inner = expr.expr
        if isinstance(inner, Not):
            return to_nnf(inner.expr)
        if isinstance(inner, And):
            return Or(*(to_nnf(Not(t)) for t in inner.terms))
        if isinstance(inner, Or):
            return And(*(to_nnf(Not(t)) for t in inner.terms))
        if isinstance(inner, (Operand, Xor)):
            return Not(to_nnf(inner))
        raise TypeError(f"unknown expression node {type(inner).__name__}")
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def and_all(terms: Iterable[Expression]) -> Expression:
    """AND of arbitrarily many terms (identity for a single term)."""
    items = list(terms)
    if not items:
        raise ValueError("and_all of no terms")
    if len(items) == 1:
        return items[0]
    return And(*items)


def or_all(terms: Iterable[Expression]) -> Expression:
    """OR of arbitrarily many terms (identity for a single term)."""
    items = list(terms)
    if not items:
        raise ValueError("or_all of no terms")
    if len(items) == 1:
        return items[0]
    return Or(*items)
