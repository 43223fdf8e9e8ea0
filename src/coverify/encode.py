"""Bounded satisfiability encoding: formula over k+1 instants -> CNF and back.

Every declared proposition gets one SAT variable per instant; every finite
variable gets a one-hot block per instant with exactly-one constraints.

The encoder works on whole windows: ``_Encoder.row`` gives any node its
literals at instants 0..k as one list.  ``And``, ``Or``, ``Implies``,
``EqVar`` and ``LeConst`` own one variable per instant; ``Alw`` and ``Som``
own one in all, since their value does not depend on the instant, and its
literal fills the row.  Each owned variable is bi-implied to its
definition.  ``Not`` and ``Dist`` own none: ``Not`` negates its operand's
row and ``Dist`` shifts it, reading one constant-false literal (a variable
fixed by a unit clause) at instants shifted out of the window; an operand no
instant reaches (|offset| > k) is never defined.  So in every model each
literal of a row holds exactly when its subformula does at that instant.
A node is defined when a parent first asks for its row: it numbers its own
variables, asks for its children's rows left to right, then emits its
clauses.  Nodes are keyed on identity, so an occurrence shared by object is
defined once.

A formula is satisfiable over bound k iff the CNF conjoined with the unit
clause asserting the root at instant 0 is satisfiable; ``decode`` turns a
model back into a trace and ``check`` glues encode/solve/decode together and
re-checks every witness against the evaluator.  ``check`` pauses the
cyclic garbage collector while it runs: the clause tuples and solver lists it
allocates hold no reference cycles, so a collection would find nothing and
only re-scan them.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import combinations

from . import sat
from .logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    EqVar,
    FiniteVariable,
    Formula,
    Implies,
    LeConst,
    Not,
    Or,
    Som,
    SymbolTable,
    Trace,
    evaluate,
    free_symbols,
)

__all__ = ["DEFAULT_BOUND", "VarMap", "CheckResult", "EncodingError", "encode", "decode", "check"]

DEFAULT_BOUND = 30


class EncodingError(RuntimeError):
    """A decoded model violates encoder-owned structure (an internal bug)."""


@dataclass
class VarMap:
    """Injective map from (symbol, instant) to the SAT variables a trace is decoded from.

    Subformulas have no entries: their literals are either variables of their
    own or their operand's literals, and only ``_Encoder.row`` knows which.
    """

    bound: int
    prop_vars: dict[tuple[str, int], int]
    value_vars: dict[tuple[str, int, str], int]
    num_vars: int

    def prop_var(self, name: str, t: int) -> int:
        return self.prop_vars[(name, t)]

    def value_var(self, name: str, t: int, value: str) -> int:
        return self.value_vars[(name, t, value)]


@dataclass(frozen=True)
class CheckResult:
    """A witness trace satisfying the formula at instant 0, or unsatisfiable."""

    trace: Trace | None

    @property
    def satisfiable(self) -> bool:
        return self.trace is not None


class _Encoder:
    """Whole-window encoder: ``row`` maps every node to its literals over instants 0..k."""

    def __init__(self, symbols: SymbolTable, k: int):
        if k < 0:
            raise ValueError("bound must be >= 0")
        self.symbols = symbols
        self.k = k
        self.next_var = 1
        self.prop_vars: dict[tuple[str, int], int] = {}
        self.value_vars: dict[tuple[str, int, str], int] = {}
        self.clauses: list[tuple[int, ...]] = []
        self._prop_rows: dict[str, list[int]] = {}
        self._value_rows: dict[tuple[str, str], list[int]] = {}
        self._node_rows: dict[int, list[int]] = {}  # id of a composite node -> its row
        self._false: int | None = None

        n = k + 1
        for prop in symbols.propositions:
            row = self._fresh_row(n)
            self._prop_rows[prop.name] = row
            self.prop_vars.update(zip([(prop.name, t) for t in range(n)], row))
        for var in symbols.variables:
            width = len(var.domain)
            block = self._fresh_row(n * width)  # value i at instant t: block[t * width + i]
            for t in range(n):
                bits = block[t * width:(t + 1) * width]
                self.value_vars.update(zip([(var.name, t, value) for value in var.domain], bits))
                self.clauses.append(tuple(bits))
                self.clauses.extend([(-a, -b) for a, b in combinations(bits, 2)])
            for i, value in enumerate(var.domain):
                self._value_rows[(var.name, value)] = block[i::width]

    def _fresh_row(self, n: int) -> list[int]:
        # A list, not a range: every clause then shares the variable's int object.
        first = self.next_var
        self.next_var += n
        return list(range(first, first + n))

    def _false_literal(self) -> int:
        """The one literal fixed false by a unit clause, numbered on first use."""
        if self._false is None:
            self._false = self._fresh_row(1)[0]
            self.clauses.append((-self._false,))
        return self._false

    def _variable(self, name: str) -> FiniteVariable:
        symbol = self.symbols.lookup(name)
        if not isinstance(symbol, FiniteVariable):
            raise ValueError(f"{name!r} is not a declared finite variable")
        return symbol

    def row(self, f: Formula) -> list[int]:
        """Literals equivalent to 'f holds at t' for t = 0..k; defines f on first use."""
        if isinstance(f, Atom):
            row = self._prop_rows.get(f.name)
            if row is None:
                raise ValueError(f"{f.name!r} is not a declared proposition")
            return row
        if isinstance(f, Eq):
            row = self._value_rows.get((f.var, f.value))
            if row is None:
                self._variable(f.var)  # raises first if f.var is no finite variable
                raise ValueError(f"{f.value!r} is not in the domain of {f.var!r}")
            return row
        row = self._node_rows.get(id(f))
        if row is None:
            row = self._node_rows[id(f)] = self._define(f)
        return row

    def _define(self, f: Formula) -> list[int]:
        k = self.k
        if isinstance(f, Not):
            return [-a for a in self.row(f.operand)]
        if isinstance(f, Dist):
            # Out-of-window instants read false; an operand out of reach is never defined.
            d = f.offset
            if d == 0:
                return self.row(f.operand)
            false = self._false_literal()
            if abs(d) > k:
                return [false] * (k + 1)
            operand = self.row(f.operand)
            return operand[d:] + [false] * d if d > 0 else [false] * -d + operand[:d]

        clauses = self.clauses
        append = clauses.append
        if isinstance(f, (Alw, Som)):
            # The value does not depend on the instant: one variable fills the row.
            head = self._fresh_row(1)[0]
            subs = self.row(f.operand)
            if isinstance(f, Alw):
                clauses.extend([(-head, sub) for sub in subs])
                append((head, *[-sub for sub in subs]))
            else:
                append((-head, *subs))
                clauses.extend([(head, -sub) for sub in subs])
            return [head] * (k + 1)

        own = self._fresh_row(k + 1)
        if isinstance(f, EqVar):
            left, right = self._variable(f.left), self._variable(f.right)
            right_values = set(right.domain)
            if right_values.isdisjoint(left.domain):
                raise ValueError(
                    f"variables {f.left!r} and {f.right!r} have disjoint domains"
                )
            pairs = [
                (self._value_rows[(f.left, value)],
                 self._value_rows[(f.right, value)] if value in right_values else None)
                for value in left.domain
            ]
            for t, e in enumerate(own):
                for a_row, b_row in pairs:
                    a = a_row[t]
                    if b_row is not None:
                        b = b_row[t]
                        append((-e, -a, b))
                        append((e, -a, -b))
                    else:
                        append((-e, -a))
        elif isinstance(f, LeConst):
            var = self._variable(f.var)
            try:
                sat_values = [value for value in var.domain if int(value) <= f.bound]
            except ValueError:
                raise ValueError(
                    f"variable {f.var!r} has non-integer domain values; <= not applicable"
                ) from None
            rows = [self._value_rows[(f.var, value)] for value in sat_values]
            for t, e in enumerate(own):
                bits = [row[t] for row in rows]
                append((-e, *bits))
                clauses.extend([(e, -bit) for bit in bits])
        elif isinstance(f, And):
            lefts, rights = self.row(f.left), self.row(f.right)
            for e, a, b in zip(own, lefts, rights):
                append((-e, a))
                append((-e, b))
                append((e, -a, -b))
        elif isinstance(f, (Or, Implies)):
            lefts, rights = self.row(f.left), self.row(f.right)
            if isinstance(f, Implies):
                lefts = [-a for a in lefts]
            for e, a, b in zip(own, lefts, rights):
                append((-e, a, b))
                append((e, -a))
                append((e, -b))
        else:
            raise TypeError(f"not a formula: {f!r}")
        return own


def encode(f: Formula, symbols: SymbolTable, k: int) -> tuple[sat.CnfFormula, VarMap]:
    """CNF equisatisfiable with 'some trace over [0, k] satisfies f at instant 0'."""
    for name in sorted(free_symbols(f)):
        if name not in symbols:
            raise ValueError(f"undeclared symbol {name!r} in formula")
    enc = _Encoder(symbols, k)
    root = enc.row(f)[0]
    enc.clauses.append((root,))
    cnf = sat.CnfFormula(enc.next_var - 1, tuple(enc.clauses))
    vm = VarMap(k, enc.prop_vars, enc.value_vars, cnf.num_vars)
    return cnf, vm


def decode(model: dict[int, bool], vm: VarMap, symbols: SymbolTable, k: int) -> Trace:
    """Read a trace off a SAT model; one-hot violations signal an encoder bug."""
    props: dict[str, tuple[bool, ...]] = {}
    for prop in symbols.propositions:
        props[prop.name] = tuple(model[vm.prop_var(prop.name, t)] for t in range(k + 1))
    variables: dict[str, tuple[str, ...]] = {}
    for var in symbols.variables:
        values = []
        for t in range(k + 1):
            hot = [value for value in var.domain if model[vm.value_var(var.name, t, value)]]
            if len(hot) != 1:
                raise EncodingError(
                    f"one-hot block of {var.name!r} at instant {t} has {len(hot)} true bits"
                )
            values.append(hot[0])
        variables[var.name] = tuple(values)
    return Trace(k, props, variables)


def check(f: Formula, symbols: SymbolTable, k: int | None = None) -> CheckResult:
    """Satisfiability of f over [0, k]; witnesses are re-validated by evaluate."""
    bound = DEFAULT_BOUND if k is None else k
    # Nothing below makes a reference cycle, so the cyclic collector would only
    # re-scan the clause tuples and solver lists; the caller's setting comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        cnf, vm = encode(f, symbols, bound)
        result = sat.solve(cnf)
        if not result.satisfiable:
            return CheckResult(None)
        assert result.model is not None
        trace = decode(result.model, vm, symbols, bound)
        if not evaluate(f, trace, 0):
            raise EncodingError("decoded witness fails the evaluator; encoder and semantics disagree")
        return CheckResult(trace)
    finally:
        if collecting:
            gc.enable()
