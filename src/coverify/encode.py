"""Bounded satisfiability encoding: formula over k+1 instants -> CNF and back.

Every declared proposition the formula reads gets one SAT variable per
instant; every finite variable it reads gets a one-hot block per instant.
The numbering is kept once, as rows over t = 0..k: one per proposition and
one per (variable, value) pair.  ``Atom`` and ``Eq`` read their literals off
these rows, and ``VarMap`` hands the same rows to ``decode``.  The encoder
hands each one-hot block over as one exactly-one block
(``CnfFormula.one_hot``), not as its at-least-one clause and pairwise
at-most-one clauses; ``CnfFormula.clauses`` still spells those out, ahead of
the other clauses.  A declared symbol the formula never reads gets no
variable: ``decode`` gives it its first domain value (false for a
proposition), which satisfies the formula as well as any other value would.

The formula becomes clauses by polarity, after Plaisted & Greenbaum ("A
Structure-preserving Clause Form Translation", JSC 1986), one whole window
at a time.  ``_Encoder.lits(f, pos)`` gives, for each instant 0..k, a
fragment: a tuple of literals whose disjunction implies f (``pos``) or not-f
(not ``pos``) at that instant, or None where that holds anyway.  A fragment
may stand for f wherever f occurs at that polarity inside a clause.

* ``Atom`` and ``Eq`` read their symbol's literals and own no variable.
* ``Not`` flips the polarity and ``Dist`` shifts the row.  Outside the
  window ``Dist`` is false: an empty fragment at positive polarity, None at
  negative.  An operand no instant reaches (|offset| > k) is never looked at.
* A disjunctive shape (``Or`` positive, ``And`` negative, ``Implies``
  positive) joins its parts' fragments and owns no variable.
* A conjunctive shape (``And`` positive, ``Or`` negative, ``Implies``
  negative) owns one variable y at each instant where two or more parts
  remain, with one clause "not y, or this part" per part: y implies the
  conjunction, not the reverse.
* ``Alw``/``Som`` do not depend on the instant.  Each owns at most one
  variable, defined one-sidedly in the same way over the whole window.

Nested connectives of one shape split into one list of parts, so a balanced
``conjoin``/``disjoin`` tree costs what a flat one would.  An atom is
keyed on its row's key in ``VarMap`` (a proposition's name, a (variable,
value) pair) and its polarity, so equal atoms built as separate objects
share one row and no key hashes or compares a node; every other node is
keyed on identity and polarity, so an occurrence shared by object is
encoded once per polarity.  A node's parts are encoded before it, from an
explicit stack and in the order a recursion would take them, so no nesting
is too deep and the numbering is the recursion's.  An atom's row, and the
row of a ``Dist`` of an atom, go into the memo as soon as they are met,
with no frame of their own: neither owns a variable.

The root is asserted, not defined.  A conjunction splits into its
conjuncts, ``Alw(g)`` asserts g at every instant, ``Som(g)`` is one clause,
and anything else is one clause at instant 0.  A clause with exactly one
conjunctive part is distributed over that part's conjuncts, so an axiom
such as "p implies q and r" costs clauses only.  A clause left with no
literal is made unsatisfiable with one literal fixed false.

In every model of the clauses, each true literal of a fragment gives its
subformula that fragment's polarity at that instant, and every trace that
satisfies the root extends to a model.  So a formula is satisfiable over
bound k iff its CNF is.

No fragment repeats a variable, and so no clause the encoder emits does: a
clause is a fragment, or a fresh variable's negation and a fragment.  Only a
join and the union over the window of a ``Som`` (an ``Alw`` at negative
polarity) can repeat one, and each is tidied where it is built by the rule
the public ``CnfFormula`` constructor applies too, ``sat._tidy``: a repeated
literal is dropped, the first kept, and a fragment with a complementary pair
holds anyway and becomes None.  A join of parts that are each an atom under
``Not`` and ``Dist`` only, no two reading one atom at one net offset,
repeats no variable by construction and is left as it is.  So ``encode``
hands its CNF over without the constructor's checks, and the solver loads it
as it is.

``decode`` turns a model back into a trace and ``check`` glues
encode/solve/decode together: it returns the witness trace, re-checked
against the evaluator, or None when the formula is unsatisfiable over the
bound.  ``check`` pauses the cyclic garbage collector while
it runs: the clause tuples and solver lists it allocates hold no reference
cycles, so a collection would find nothing and only re-scan them.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain

from . import sat
from .logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    FiniteVariable,
    Formula,
    Implies,
    Not,
    Or,
    Som,
    SymbolTable,
    Trace,
    evaluate,
    free_symbols,
)

__all__ = ["VarMap", "EncodingError", "encode", "decode", "check"]


class EncodingError(RuntimeError):
    """A decoded model violates encoder-owned structure (an internal bug)."""


@dataclass
class VarMap:
    """The SAT variables a trace over [0, ``bound``] is decoded from: the
    encoder's per-symbol rows.

    ``prop_rows[name]`` is a proposition's variable at t = 0..bound, and
    ``value_rows[(var, value)]`` that value's one-hot bit at t = 0..bound.  No
    variable is in two rows.  Subformulas have no rows: the variables they
    own are implied by their definition, not equal to it, so a model gives
    them no value to read.  Neither have the declared symbols the formula
    does not read.
    """

    bound: int
    prop_rows: dict[str, list[int]]
    value_rows: dict[tuple[str, str], list[int]]


Fragment = tuple[int, ...] | None  # literals whose disjunction implies a polarity; None: it holds


# A binary connective's class -> the polarity at which it is a conjunction.
_CONJUNCTIVE_AT = {And: True, Or: False, Implies: False}


def _parts(f: Formula, pos: bool, conjunctive: bool) -> list[tuple[Formula, bool]]:
    """The (part, polarity) pairs, left to right, that f at polarity pos is a
    conjunction (or a disjunction) of, through ``Not`` and through every
    binary connective of that shape."""
    out = []
    todo = [(f, pos)]
    while todo:
        f, pos = todo.pop()
        cls = type(f)
        while cls is Not:
            f, pos = f.operand, not pos
            cls = type(f)
        if cls is And:
            if pos == conjunctive:
                todo.append((f.right, pos))
                todo.append((f.left, pos))
                continue
        elif cls is Or or cls is Implies:
            if pos != conjunctive:
                todo.append((f.right, pos))
                todo.append((f.left, not pos if cls is Implies else pos))
                continue
        out.append((f, pos))
    return out


def _key(f: Formula, pos: bool) -> tuple[str | tuple[str, str] | int, bool]:
    """The encoder's memo key: an atom by its row's key in ``VarMap``, any other
    node by identity; each with its polarity."""
    cls = type(f)
    if cls is Eq:
        return (f.var, f.value), pos
    if cls is Atom:
        return f.name, pos
    return id(f), pos


def _same(f: Formula, g: Formula) -> bool:
    """Whether f == g, compared from an explicit stack so that no nesting is
    too deep: identity first, then class and fields."""
    todo = [(f, g)]
    while todo:
        f, g = todo.pop()
        if f is g:
            continue
        if type(f) is not type(g):
            return False
        for a, b in zip(vars(f).values(), vars(g).values()):
            if isinstance(a, Formula):
                todo.append((a, b))
            elif a != b:
                return False
    return True


def _shift(row: list[Fragment] | None, d: int, pos: bool, n: int) -> list[Fragment]:
    """The fragments of ``Dist(g, d)`` at pos from g's row, None if no instant reaches g."""
    outside: Fragment = () if pos else None
    if row is None:
        return [outside] * n
    return row[d:] + [outside] * d if d >= 0 else [outside] * -d + row[:d]


def _simple(parts: list[tuple[Formula, bool]]) -> bool:
    """Whether the parts' join repeats no variable by construction: each
    part is an atom under ``Not`` and ``Dist`` only, and no two read one
    atom at one net offset."""
    leaves = set()
    for g, _ in parts:
        offset = 0
        cls = type(g)
        while cls is Dist or cls is Not:
            if cls is Dist:
                offset += g.offset
            g = g.operand
            cls = type(g)
        if cls is Eq:
            leaves.add((offset, g.var, g.value))
        elif cls is Atom:
            leaves.add((offset, g.name))
        else:
            return False
    return len(leaves) == len(parts)


def _somewhere(rows: list[list[Fragment]]) -> Fragment:
    """One fragment implying that some part takes its polarity at some instant."""
    if any(None in row for row in rows):
        return None
    return sat._tidy(tuple(chain.from_iterable(chain.from_iterable(rows))))


def _join(rows: list[list[Fragment]], parts: list[tuple[Formula, bool]]) -> list[Fragment]:
    """At each instant, the rows of the parts' fragments as one disjunction,
    tidied unless ``_simple``; None where one is None or the join holds anyway."""
    joined = rows[0]
    for row in rows[1:]:
        joined = [None if a is None or b is None else a + b for a, b in zip(joined, row)]
    if _simple(parts):
        return joined
    tidy = sat._tidy
    return [None if frag is None else tidy(frag) for frag in joined]


class _Encoder:
    """Whole-window polarity encoder: ``lits`` maps a node to its fragments over instants 0..k.

    Only the symbols named in ``read`` get variables.
    """

    def __init__(self, symbols: SymbolTable, k: int, read: set[str]):
        if k < 0:
            raise ValueError("bound must be >= 0")
        self.symbols = symbols
        self.k = k
        self.next_var = 1
        self.one_hot: list[tuple[int, ...]] = []
        self.clauses: list[tuple[int, ...]] = []  # every clause after the one-hot blocks
        self.prop_rows: dict[str, list[int]] = {}  # the rows ``VarMap`` hands over
        self.value_rows: dict[tuple[str, str], list[int]] = {}
        # (atom, polarity) or (id of any other node, polarity) -> its fragments
        self._lits: dict[tuple[Formula | int, bool], list[Fragment]] = {}
        self._false: int | None = None

        n = k + 1
        for prop in symbols.propositions:
            if prop.name in read:
                self.prop_rows[prop.name] = self._fresh_row(n)
        for var in symbols.variables:
            if var.name not in read:
                continue
            width = len(var.domain)
            block = self._fresh_row(n * width)  # value i at instant t: block[t * width + i]
            self.one_hot += [tuple(block[t * width:(t + 1) * width]) for t in range(n)]
            for i, value in enumerate(var.domain):
                self.value_rows[(var.name, value)] = block[i::width]

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

    # -- fragments ---------------------------------------------------------

    def lits(self, f: Formula, pos: bool) -> list[Fragment]:
        """Fragments implying f (pos) or not-f at t = 0..k, none repeating a variable;
        encodes f at pos on first use."""
        return self._rows([(f, pos)])[0]

    def _rows(self, parts: list[tuple[Formula, bool]]) -> list[list[Fragment]]:
        """The fragments of each (node, polarity) pair, encoding on first use
        each one and, before it, each of its own parts.

        An explicit stack stands in for the recursion, so no nesting is too
        deep.  The nodes are encoded in the order, and so numbered as, a
        recursion through ``lits`` would number them: left to right, each
        with all of its own parts before the next.  An atom, and a ``Dist``
        of one, owns no variable and takes no frame: its row goes into the
        memo as soon as it is met.
        """
        memo = self._lits
        k = self.k
        rows: list[list[Fragment]] = []
        # Each frame: a node's key, the node, its polarity, its parts, their keys, their rows so
        # far.  The bottom frame stands for the given parts and has no node of its own.
        todo = [(None, None, None, parts, [_key(g, q) for g, q in parts], rows)]
        while True:
            key, f, pos, parts, keys, done = todo[-1]
            for i in range(len(done), len(keys)):
                row = memo.get(keys[i])
                if row is None:
                    g, q = parts[i]
                    cls = type(g)
                    if cls is Dist:
                        atom = g.operand
                        if type(atom) is Atom or type(atom) is Eq:
                            inside = abs(g.offset) <= k  # an operand no instant reaches is never looked at
                            row = _shift(self._atom_row(atom, q) if inside else None, g.offset, q, k + 1)
                    elif cls is Atom or cls is Eq:
                        row = self._atom_row(g, q)
                    if row is None:
                        sub = self._parts_of(g, q)
                        todo.append((keys[i], g, q, sub, [_key(h, r) for h, r in sub], []))
                        break
                    memo[keys[i]] = row
                done.append(row)
            else:
                todo.pop()
                if not todo:
                    return rows
                memo[key] = self._fragments(f, pos, parts, done)

    def _atom_row(self, f: Formula, pos: bool) -> list[Fragment]:
        """An atom's fragments at pos, each its one literal; kept in the memo."""
        key = _key(f, pos)
        row = self._lits.get(key)
        if row is None:
            lits = self._literal_row(f)
            row = self._lits[key] = [(a,) for a in lits] if pos else [(-a,) for a in lits]
        return row

    def _parts_of(self, f: Formula, pos: bool) -> list[tuple[Formula, bool]]:
        """The (node, polarity) pairs whose fragments f's at pos are built from, in order."""
        cls = type(f)
        at = _CONJUNCTIVE_AT.get(cls)
        if at is not None:
            return _parts(f, pos, at == pos)
        if cls is Not:
            return [(f.operand, not pos)]
        if cls is Dist:  # an operand no instant reaches is never looked at
            return [(f.operand, pos)] if abs(f.offset) <= self.k else []
        if cls is Alw or cls is Som:
            return _parts(f.operand, pos, (cls is Alw) == pos)
        return []

    def _fragments(self, f: Formula, pos: bool, parts, rows: list[list[Fragment]]) -> list[Fragment]:
        """f's fragments at pos, from the rows of its parts (``_parts_of``)."""
        cls = type(f)
        if cls is Not:
            return rows[0]
        n = self.k + 1
        if cls is Dist:
            return _shift(rows[0] if rows else None, f.offset, pos, n)
        at = _CONJUNCTIVE_AT.get(cls)
        if at is not None:
            if at != pos:
                return _join(rows, parts)
            return [self._conjunction(frags) for frags in zip(*rows)]
        if cls is Alw or cls is Som:
            if (cls is Alw) == pos:  # the operand at every instant
                return [self._conjunction(dict.fromkeys(chain.from_iterable(rows)))] * n
            frag = _somewhere(rows)
            if frag is not None and len(frag) > 1:
                head = self._fresh_row(1)[0]
                self.clauses.append((-head, *frag))
                frag = (head,)
            return [frag] * n
        raise TypeError(f"not a formula: {f!r}")

    def _conjunction(self, frags) -> Fragment:
        """A fragment implying each given one: one fresh variable if two or more remain."""
        if () in frags:
            return ()
        live = list(filter(None, frags))
        if len(live) < 2:
            return live[0] if live else None
        head = self._fresh_row(1)[0]
        not_head = -head
        self.clauses += [(not_head, *frag) for frag in live]
        return (head,)

    def _literal_row(self, f: Atom | Eq) -> list[int]:
        """Literals equivalent to an atom f at t = 0..k."""
        if type(f) is Atom:
            row = self.prop_rows.get(f.name)
            if row is None:
                raise ValueError(f"{f.name!r} is not a declared proposition")
            return row
        row = self.value_rows.get((f.var, f.value))
        if row is None:
            if not isinstance(self.symbols.lookup(f.var), FiniteVariable):
                raise ValueError(f"{f.var!r} is not a declared finite variable")
            raise ValueError(f"{f.value!r} is not in the domain of {f.var!r}")
        return row

    # -- assertion ---------------------------------------------------------

    def assert_formula(self, f: Formula) -> None:
        """Clauses forcing f at instant 0.

        Each item of the work list is a formula to force to a polarity at
        instants 0..n-1 (n is 1 or k+1); items are taken in the order a
        recursion would take them.
        """
        window = self.k + 1
        todo = [(f, True, 1)]
        while todo:
            f, pos, n = todo.pop()
            cls = type(f)
            while cls is Not or (cls is Alw and pos) or (cls is Som and not pos):
                if cls is Not:
                    pos = not pos
                else:  # the operand at every instant
                    n = window
                f = f.operand
                cls = type(f)
            if cls is Alw or cls is Som:  # the operand at some instant: one clause
                self._emit([_somewhere(self._rows(_parts(f.operand, pos, False)))])
                continue
            if _CONJUNCTIVE_AT.get(cls) == pos:
                todo += [(g, q, n) for g, q in reversed(_parts(f, pos, True))]
                continue
            parts = _parts(f, pos, False)
            # A binary connective left in a disjunction's parts is a conjunction.
            conjunctive = [i for i, (g, _) in enumerate(parts) if type(g) in _CONJUNCTIVE_AT]
            if len(conjunctive) != 1:
                self._emit(_join(self._window(parts, n), parts))
                continue
            # Distribute the clause over its one conjunction: no variable for it.
            g, q = parts.pop(conjunctive[0])
            rest = _join(self._window(parts, n), parts)
            for h, r in _parts(g, q, True):
                if not any(p != r and _same(h, e) for e, p in parts):  # else it holds as "h or not h"
                    self._emit(_join([rest, *self._window([(h, r)], n)], [*parts, (h, r)]))

    def _window(self, parts: list[tuple[Formula, bool]], n: int) -> list[list[Fragment]]:
        """The parts' rows cut to instants 0..n-1; a whole-window row is not copied."""
        rows = self._rows(parts)
        return rows if n > self.k else [row[:n] for row in rows]

    def _emit(self, row: list[Fragment]) -> None:
        """Each fragment of the row as a clause: None needs none, and () is made false."""
        if () in row:
            false = (self._false_literal(),)
            row = [frag or false for frag in row if frag is not None]
        self.clauses += filter(None, row)


def encode(f: Formula, symbols: SymbolTable, k: int) -> tuple[sat.CnfFormula, VarMap]:
    """CNF equisatisfiable with 'some trace over [0, k] satisfies f at instant 0'."""
    read = free_symbols(f)
    for name in sorted(read):
        if name not in symbols:
            raise ValueError(f"undeclared symbol {name!r} in formula")
    enc = _Encoder(symbols, k, read)
    enc.assert_formula(f)
    cnf = sat.CnfFormula._numbered(enc.next_var - 1, tuple(enc.clauses), tuple(enc.one_hot))
    return cnf, VarMap(k, enc.prop_rows, enc.value_rows)


def decode(model: dict[int, bool], vm: VarMap, symbols: SymbolTable) -> Trace:
    """Read a trace over [0, ``vm.bound``] off a SAT model; one-hot violations
    signal an encoder bug.

    A symbol without variables, one the encoded formula does not read, holds
    its first domain value (a proposition: false) at every instant.
    """
    k = vm.bound
    props: dict[str, tuple[bool, ...]] = {}
    for prop in symbols.propositions:
        row = vm.prop_rows.get(prop.name)
        props[prop.name] = (False,) * (k + 1) if row is None else tuple(model[v] for v in row)
    variables: dict[str, tuple[str, ...]] = {}
    for var in symbols.variables:
        rows = [vm.value_rows.get((var.name, value)) for value in var.domain]
        if rows[0] is None:
            variables[var.name] = (var.domain[0],) * (k + 1)
            continue
        values = []
        for t, bits in enumerate(zip(*rows)):
            hot = [value for value, bit in zip(var.domain, bits) if model[bit]]
            if len(hot) != 1:
                raise EncodingError(
                    f"one-hot block of {var.name!r} at instant {t} has {len(hot)} true bits"
                )
            values.append(hot[0])
        variables[var.name] = tuple(values)
    return Trace(k, props, variables)


def check(f: Formula, symbols: SymbolTable, k: int) -> Trace | None:
    """A trace over [0, k] satisfying f at instant 0, re-validated by evaluate,
    or None if f is unsatisfiable over [0, k]."""
    # Nothing below makes a reference cycle, so the cyclic collector would only
    # re-scan the clause tuples and solver lists; the caller's setting comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        cnf, vm = encode(f, symbols, k)
        result = sat.solve(cnf)
        if not result.satisfiable:
            return None
        assert result.model is not None
        trace = decode(result.model, vm, symbols)
        if not evaluate(f, trace, 0):
            raise EncodingError("decoded witness fails the evaluator; encoder and semantics disagree")
        return trace
    finally:
        if collecting:
            gc.enable()
