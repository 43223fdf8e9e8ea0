"""Temporal core: symbols, formulas, traces, and finite-trace evaluation.

The logic is a small metric temporal language over a bounded window of
instants 0..k.  Its operators:

* boolean connectives (``Not``, ``And``, ``Or``, ``Implies``),
* ``Dist(f, d)`` -- f evaluated d instants away (signed d; instants outside
  [0, k] make Dist false, the pessimistic finite-trace reading),
* ``Alw(f)`` / ``Som(f)`` -- f at every / some instant of the whole window,
  regardless of the current evaluation instant.

Atomic formulas are propositions and equality of a finite-domain variable
with a constant.  ``evaluate`` is pure and is the ground truth the bounded
SAT encoding is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "DIGITS",
    "check_ident",
    "check_value",
    "Proposition",
    "FiniteVariable",
    "SymbolTable",
    "Formula",
    "Atom",
    "Eq",
    "Not",
    "And",
    "Or",
    "Implies",
    "Alw",
    "Som",
    "Dist",
    "Trace",
    "conjoin",
    "disjoin",
    "evaluate",
    "free_symbols",
]

# What a name and an integer are, written once and ASCII only: the symbol
# table, the trace reader and the scenario loader build on these patterns.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
DIGITS = r"[0-9]+"
INTEGER = rf"-?{DIGITS}"

IDENT_RE = re.compile(rf"{NAME}\Z")
_VALUE_RE = re.compile(rf"(?:{INTEGER}|{NAME})\Z")


def check_ident(name: str) -> str:
    """The name, if a symbol may bear it; else ``ValueError``."""
    if not IDENT_RE.match(name):
        raise ValueError(f"invalid identifier: {name!r}")
    return name


def check_value(value: str) -> str:
    """The constant, if a domain may hold it (a name or an integer such as a risk level)."""
    if not _VALUE_RE.match(value):
        raise ValueError(f"invalid domain value: {value!r}")
    return value


@dataclass(frozen=True)
class Proposition:
    """A named boolean signal, true or false at each instant."""

    name: str

    def __post_init__(self) -> None:
        check_ident(self.name)


@dataclass(frozen=True)
class FiniteVariable:
    """A named variable taking exactly one value of a finite domain per instant."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        check_ident(self.name)
        if not self.domain:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate domain values")
        for value in self.domain:
            check_value(value)


class SymbolTable:
    """Declared propositions and finite variables, unique by name."""

    def __init__(self) -> None:
        self._by_name: dict[str, Proposition | FiniteVariable] = {}

    def add_proposition(self, name: str) -> Proposition:
        prop = Proposition(name)
        self._declare(prop)
        return prop

    def add_variable(self, name: str, domain: tuple[str, ...] | list[str]) -> FiniteVariable:
        var = FiniteVariable(name, tuple(domain))
        self._declare(var)
        return var

    def _declare(self, symbol: Proposition | FiniteVariable) -> None:
        if symbol.name in self._by_name:
            raise ValueError(f"symbol {symbol.name!r} already declared")
        self._by_name[symbol.name] = symbol

    def lookup(self, name: str) -> Proposition | FiniteVariable | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def propositions(self) -> tuple[Proposition, ...]:
        return tuple(s for s in self._by_name.values() if isinstance(s, Proposition))

    @property
    def variables(self) -> tuple[FiniteVariable, ...]:
        return tuple(s for s in self._by_name.values() if isinstance(s, FiniteVariable))


class Formula:
    """Base class of the formula AST. Nodes are immutable and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Eq(Formula):
    var: str
    value: str

    def __str__(self) -> str:
        return f"{self.var} = {self.value}"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class Alw(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"Alw({self.operand})"


@dataclass(frozen=True)
class Som(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"Som({self.operand})"


@dataclass(frozen=True)
class Dist(Formula):
    operand: Formula
    offset: int

    def __str__(self) -> str:
        return f"Dist({self.operand}, {self.offset})"


def conjoin(formulas) -> Formula:
    """Balanced And-fold of one or more formulas (keeps tree depth logarithmic)."""
    return _fold(list(formulas), And)


def disjoin(formulas) -> Formula:
    """Balanced Or-fold of one or more formulas."""
    return _fold(list(formulas), Or)


def _fold(items: list[Formula], op) -> Formula:
    if not items:
        raise ValueError("cannot fold an empty formula list")
    while len(items) > 1:
        items = [
            op(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


@dataclass(frozen=True)
class Trace:
    """A total assignment of every symbol at every instant 0..bound."""

    bound: int
    propositions: dict[str, tuple[bool, ...]]
    variables: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("trace bound must be >= 0")
        n = self.bound + 1
        for name, values in self.propositions.items():
            if len(values) != n:
                raise ValueError(f"proposition {name!r} has {len(values)} values, expected {n}")
        for name, values in self.variables.items():
            if len(values) != n:
                raise ValueError(f"variable {name!r} has {len(values)} values, expected {n}")

    def var_value(self, name: str, t: int) -> str:
        return self.variables[name][t]

    @property
    def symbol_names(self) -> tuple[str, ...]:
        return tuple(self.propositions) + tuple(self.variables)


def free_symbols(f: Formula) -> set[str]:
    """Names of propositions and finite variables occurring in f (not constants).

    A connective shared by object is walked once, so the walk is linear in
    the distinct nodes of f, as the evaluator and the encoder are.  The walk
    keeps its own work list, so no nesting depth is too deep for it.
    """
    out: set[str] = set()
    seen: set[int] = set()  # ids of the connectives walked
    todo = [f]
    for f in todo:  # a node's operands are appended, and so walked in turn
        cls = type(f)
        if cls is Eq:
            out.add(f.var)
            continue
        if cls is Atom:
            out.add(f.name)
            continue
        i = id(f)
        if i in seen:
            continue
        seen.add(i)
        if cls is And or cls is Or or cls is Implies:
            todo.append(f.left)
            todo.append(f.right)
        elif cls is Dist or cls is Alw or cls is Not or cls is Som:
            todo.append(f.operand)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return out


def evaluate(f: Formula, tr: Trace, t: int) -> bool:
    """Truth of f on tr at instant t.

    Dist(f, d) at t is true iff 0 <= t+d <= bound and f holds at t+d;
    Alw/Som quantify over the whole window 0..bound independent of t.

    Each subformula's truth row over the whole window is one int bitset, bit
    t for instant t, so a node costs one integer operation.  The evaluator
    shares no code with the encoder, which is checked against it.
    """
    if not 0 <= t <= tr.bound:
        raise ValueError(f"instant {t} outside trace window [0, {tr.bound}]")
    return bool(_truth_rows(tr, {})(f) >> t & 1)


_EXPANDED = object()  # _truth_rows's stack marker: the node under it has its operands' rows


def _truth_rows(tr: Trace, memo: dict[int, int]) -> Callable[[Formula], int]:
    """A function giving a formula's truth row on tr as an int: bit t is instant t.

    It stores the row of every node it evaluates in memo, keyed on the node's
    id, so a node shared by object is evaluated once.  A variable's rows of
    "equals this value" are built on its first use.  Operands are evaluated
    left to right, before their node, on an explicit stack, so no nesting is
    too deep.
    """
    full = (1 << (tr.bound + 1)) - 1
    value_rows: dict[str, dict[str, int]] = {}

    def values(name: str) -> dict[str, int]:
        rows = value_rows.get(name)
        if rows is None:
            try:
                column = tr.variables[name]
            except KeyError:
                raise ValueError(f"variable {name!r} missing from trace") from None
            rows = value_rows[name] = {}
            for t, value in enumerate(column):
                rows[value] = rows.get(value, 0) | 1 << t
        return rows

    def row(f: Formula) -> int:
        todo = [f]  # nodes to evaluate; _EXPANDED marks the node under it as expanded
        done: list[int] = []  # rows evaluated, the latest last
        while todo:
            f = todo.pop()
            if f is _EXPANDED:
                f = todo.pop()
                cls = type(f)
                if cls is And or cls is Or or cls is Implies:
                    right = done.pop()
                    left = done[-1]
                    if cls is And:
                        bits = left & right
                    elif cls is Or:
                        bits = left | right
                    else:
                        bits = (full ^ left) | right
                else:
                    sub = done[-1]
                    if cls is Dist:
                        d = f.offset
                        bits = sub >> d if d >= 0 else (sub << -d) & full
                    elif cls is Alw:
                        bits = full if sub == full else 0
                    elif cls is Not:
                        bits = full ^ sub
                    else:  # Som
                        bits = full if sub else 0
                done[-1] = memo[id(f)] = bits
                continue
            bits = memo.get(id(f))
            if bits is not None:
                done.append(bits)
                continue
            cls = type(f)  # most frequent kinds first
            if cls is And or cls is Or or cls is Implies:
                todo += f, _EXPANDED, f.right, f.left
                continue
            if cls is Eq:
                bits = values(f.var).get(f.value, 0)
            elif cls is Dist or cls is Alw or cls is Not or cls is Som:
                todo += f, _EXPANDED, f.operand
                continue
            elif cls is Atom:
                try:
                    column = tr.propositions[f.name]
                except KeyError:
                    raise ValueError(f"proposition {f.name!r} missing from trace") from None
                bits = sum(1 << t for t, holds in enumerate(column) if holds)
            else:
                raise TypeError(f"not a formula: {f!r}")
            done.append(bits)
            memo[id(f)] = bits
        return done[0]

    return row
