"""Temporal core: symbols, formulas, traces, and finite-trace evaluation.

The logic is a small metric temporal language over a bounded window of
instants 0..k.  Its operators:

* boolean connectives (``Not``, ``And``, ``Or``, ``Implies``),
* ``Dist(f, d)`` -- f evaluated d instants away (signed d; instants outside
  [0, k] make Dist false, the pessimistic finite-trace reading),
* ``Alw(f)`` / ``Som(f)`` -- f at every / some instant of the whole window,
  regardless of the current evaluation instant.

Atomic formulas are propositions and equality of a finite-domain variable
with a constant or with another variable.  ``evaluate`` is pure and is the ground
truth the bounded SAT encoding is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "IDENT_RE",
    "Proposition",
    "FiniteVariable",
    "SymbolTable",
    "Formula",
    "Atom",
    "Eq",
    "EqVar",
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

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VALUE_RE = re.compile(r"(-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*)\Z")


def _check_ident(name: str) -> str:
    if not IDENT_RE.match(name):
        raise ValueError(f"invalid identifier: {name!r}")
    return name


def _check_value(value: str) -> str:
    # Domain constants may be identifiers or integer literals (risk levels).
    if not _VALUE_RE.match(value):
        raise ValueError(f"invalid domain value: {value!r}")
    return value


@dataclass(frozen=True)
class Proposition:
    """A named boolean signal, true or false at each instant."""

    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name)


@dataclass(frozen=True)
class FiniteVariable:
    """A named variable taking exactly one value of a finite domain per instant."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_ident(self.name)
        if not self.domain:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate domain values")
        for value in self.domain:
            _check_value(value)


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
class EqVar(Formula):
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


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

    def prop_value(self, name: str, t: int) -> bool:
        return self.propositions[name][t]

    def var_value(self, name: str, t: int) -> str:
        return self.variables[name][t]

    @property
    def symbol_names(self) -> tuple[str, ...]:
        return tuple(self.propositions) + tuple(self.variables)


def free_symbols(f: Formula) -> set[str]:
    """Names of propositions and finite variables occurring in f (not constants)."""
    out: set[str] = set()
    _collect_symbols(f, out)
    return out


def _collect_symbols(f: Formula, out: set[str]) -> None:
    if isinstance(f, Atom):
        out.add(f.name)
    elif isinstance(f, Eq):
        out.add(f.var)
    elif isinstance(f, EqVar):
        out.add(f.left)
        out.add(f.right)
    elif isinstance(f, (Not, Alw, Som, Dist)):
        _collect_symbols(f.operand, out)
    elif isinstance(f, (And, Or, Implies)):
        _collect_symbols(f.left, out)
        _collect_symbols(f.right, out)
    else:
        raise TypeError(f"not a formula: {f!r}")


def evaluate(f: Formula, tr: Trace, t: int) -> bool:
    """Truth of f on tr at instant t.

    Dist(f, d) at t is true iff 0 <= t+d <= bound and f holds at t+d;
    Alw/Som quantify over the whole window 0..bound independent of t.
    """
    if not 0 <= t <= tr.bound:
        raise ValueError(f"instant {t} outside trace window [0, {tr.bound}]")
    return _truth_row(f, tr, {})[t]


def _truth_row(f: Formula, tr: Trace, memo: dict[int, tuple[bool, ...]]) -> tuple[bool, ...]:
    """Truth value of f at every instant, computed bottom-up with sharing."""
    key = id(f)
    cached = memo.get(key)
    if cached is not None:
        return cached

    n = tr.bound + 1
    if isinstance(f, Atom):
        try:
            row = tr.propositions[f.name]
        except KeyError:
            raise ValueError(f"proposition {f.name!r} missing from trace") from None
    elif isinstance(f, Eq):
        row = tuple(v == f.value for v in _var_row(tr, f.var))
    elif isinstance(f, EqVar):
        left, right = _var_row(tr, f.left), _var_row(tr, f.right)
        row = tuple(a == b for a, b in zip(left, right))
    elif isinstance(f, Not):
        row = tuple(not v for v in _truth_row(f.operand, tr, memo))
    elif isinstance(f, And):
        row = tuple(a and b for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo)))
    elif isinstance(f, Or):
        row = tuple(a or b for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo)))
    elif isinstance(f, Implies):
        row = tuple(
            (not a) or b
            for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo))
        )
    elif isinstance(f, Alw):
        row = (all(_truth_row(f.operand, tr, memo)),) * n
    elif isinstance(f, Som):
        row = (any(_truth_row(f.operand, tr, memo)),) * n
    elif isinstance(f, Dist):
        sub = _truth_row(f.operand, tr, memo)
        row = tuple(sub[t + f.offset] if 0 <= t + f.offset <= tr.bound else False for t in range(n))
    else:
        raise TypeError(f"not a formula: {f!r}")

    memo[key] = row
    return row


def _var_row(tr: Trace, name: str) -> tuple[str, ...]:
    try:
        return tr.variables[name]
    except KeyError:
        raise ValueError(f"variable {name!r} missing from trace") from None
