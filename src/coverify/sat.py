"""Clausal satisfiability core.

``solve`` is a conflict-driven solver with two watched literals, first-UIP
clause learning, and an activity-based decision heuristic with deterministic
tie-breaking.  No restarts: instances produced by the bounded encoder stay
small, and reproducible runs matter more than raw speed here.  Nor does a
learned unit restart the search.  It backtracks chronologically (Nadel &
Ryvchin, "Chronological Backtracking", SAT 2018; Möhle & Biere, "Backing
Backtracking", SAT 2019): it undoes only its conflict's level and is
assigned at level 0 at the end of the trail, so the levels below stay
decided.  A stop refutation learns a unit per conflict, and so takes about
k decisions, not k^2 / 2.  While such a literal sits above literals of a
higher level, an implied literal takes the highest level of its reason's
other literals, a conflict is analysed at its own highest level, and a
backtrack keeps, and propagates again, the literals of its target level or
below.  A conflict with one literal alone at its highest level learns
nothing: that literal is implied by the conflict at the highest level of
the others.  A learned clause of two or more literals backjumps to its
second-highest level, so a search that learns no unit is plain CDCL.

DIMACS read/write lets an external solver be swapped in.

Heuristic contract: each decision takes the unassigned variable of highest
activity, the lowest index among equal activities, and assigns it false.  It
comes from one of two tiers.  A variable of positive activity (one a conflict
has bumped) sits in a binary heap keyed on (-activity, index), after MiniSat's
order heap (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).  Every
other variable is taken in index order from a cursor, and only when the heap
holds no unassigned variable.  That is the scan's order: any positive activity
outranks 0, and the variables of activity 0 tie, so the lowest index wins
among them.  Most variables of an encoded CNF are never bumped, so most
decisions cost no heap pop.  Watch lists and truth values are indexed by
literal.  An exactly-one block of the input is no clause object at all: its
pairwise at-most-one clauses are one literal-indexed table entry per member,
the constraint-in-the-solver idea of MiniCARD (Liffiton & Maglalang, "A
Cardinality Solver: More Expressive Constraints for Free", SAT 2012), and
only its at-least-one clause is loaded; every other clause is a list.  These are data structures only: the decisions,
conflicts, learned clauses and the returned model are the ones a linear scan
over the variables and a list per clause of the full CNF
(``CnfFormula.clauses``) would give under the same unit rule, so models,
and the traces decoded from them, do not depend on them.  ``solve``
re-checks every model against the input formula alone: each block for
exactly one true variable, and each other clause.

No clause of a ``CnfFormula`` repeats a variable.  One rule, ``_tidy``,
makes a clause so, as MiniSat does where a clause enters the solver: it
drops a repeated literal, keeping the first, and a clause with a
complementary pair always holds and is dropped whole.  The public
constructor, and so ``read_dimacs``, applies it to clauses built by hand or
read from a file; the encoder applies it where it builds a disjunction that
may repeat a variable, and hands its CNF over unchecked.  So the solver
watches each clause of two or more literals as it is, and takes each
decision inside its search loop.

Literals are DIMACS-style signed integers: +v / -v for variable v >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

__all__ = [
    "CnfFormula",
    "SolveResult",
    "DimacsError",
    "solve",
    "write_dimacs",
    "read_dimacs",
]


class CnfFormula:
    """Immutable CNF: clause literals are nonzero ints with |lit| <= num_vars.

    A CNF the encoder builds keeps its exactly-one blocks apart in
    ``one_hot``: each block is a tuple of distinct variables, no variable is
    in two blocks, and a block stands for its at-least-one clause (the block
    itself) followed by the pairwise at-most-one clauses ``combinations``
    gives over its negated literals.
    ``clauses`` spells the blocks out that way, ahead of the other clauses,
    on first access; equality and hashing see only ``num_vars`` and
    ``clauses``.  The solver and the model check read the blocks as they are.

    No clause repeats a variable.  The constructor tidies each clause it is
    given (``_tidy``) and drops those that always hold: ``CnfFormula(2,
    ((1, 1, 2), (1, -1)))`` holds the one clause ``(1, 2)``.  ``_numbered``
    trusts its caller to keep it.
    """

    __slots__ = ("num_vars", "one_hot", "_rest", "_clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        if not all(clauses):
            raise ValueError("empty clause not representable; formula is trivially unsat")
        # Range-check each distinct literal once.
        literals = set(chain.from_iterable(clauses))
        if 0 in literals:
            raise ValueError(f"literal 0 out of range for {num_vars} variables")
        worst = max(literals, key=abs, default=0)
        if abs(worst) > num_vars:
            raise ValueError(f"literal {worst} out of range for {num_vars} variables")
        clauses = tuple(clause for clause in map(_tidy, clauses) if clause is not None)
        self._set(num_vars, (), clauses, clauses)

    @classmethod
    def _numbered(
        cls,
        num_vars: int,
        clauses: tuple[tuple[int, ...], ...],
        one_hot: tuple[tuple[int, ...], ...] = (),
    ) -> "CnfFormula":
        """A CNF whose literals the caller numbered itself: no check, no normalising.

        The literals must be in range and no clause may repeat a variable.
        ``clauses`` are the clauses after the ``one_hot`` blocks.
        """
        cnf = object.__new__(cls)
        cnf._set(num_vars, one_hot, clauses, None if one_hot else clauses)
        return cnf

    def _set(self, num_vars, one_hot, rest, spelled) -> None:
        """Fill the slots; ``spelled`` is None until ``clauses`` is first read."""
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "one_hot", one_hot)
        object.__setattr__(self, "_rest", rest)
        object.__setattr__(self, "_clauses", spelled)

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Every clause: each block's at-least-one clause and its pairs, then the rest."""
        if self._clauses is None:
            spelled: list[tuple[int, ...]] = []
            for block in self.one_hot:
                spelled.append(block)
                spelled.extend(combinations([-var for var in block], 2))
            object.__setattr__(self, "_clauses", (*spelled, *self._rest))
        return self._clauses

    def __setattr__(self, name, value):
        raise AttributeError(f"CnfFormula is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self.num_vars == other.num_vars and self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash((self.num_vars, self.clauses))

    def __repr__(self) -> str:
        return f"CnfFormula(num_vars={self.num_vars!r}, clauses={self.clauses!r})"


def _tidy(clause: tuple[int, ...]) -> tuple[int, ...] | None:
    """The clause with no variable repeated: a repeated literal is dropped, the
    first kept, and a clause with a complementary pair is None, since it
    always holds."""
    if len(set(map(abs, clause))) == len(clause):
        return clause
    kept = dict.fromkeys(clause)
    if any(-lit in kept for lit in kept):
        return None
    return tuple(kept)


@dataclass(frozen=True)
class SolveResult:
    """Sat with a total model over 1..num_vars, kept as given, or Unsat (model is None)."""

    model: dict[int, bool] | None

    @property
    def satisfiable(self) -> bool:
        return self.model is not None


def _model_satisfies(cnf: CnfFormula, model: dict[int, bool]) -> bool:
    """Whether model assigns exactly the variables 1..num_vars and satisfies every clause.

    Reads only the input formula, never the solver's data structures, so it
    checks the solver independently.  A block of ``one_hot`` is satisfied by
    exactly one true variable, which is what its spelled-out clauses say; the
    check never spells them out.
    """
    if model.keys() != set(range(1, cnf.num_vars + 1)):
        return False
    hot = model.__getitem__
    if any(sum(map(hot, block)) != 1 for block in cnf.one_hot):
        return False
    true = {var if holds else -var for var, holds in model.items()}
    return not any(map(true.isdisjoint, cnf._rest))


_UNDEF, _TRUE, _FALSE = 0, 1, -1
# Order-heap keys are -activity < 0, so a positive key marks "no live entry".
_NO_ENTRY = 1.0


class _Solver:
    """Single-use CDCL engine. See module docstring for the heuristic contract.

    ``value`` and ``watches`` have 2n+1 slots indexed by literal: +v sits at v
    and -v at 2n+1-v, which is where Python's negative indexing puts it.  So
    ``value[lit]`` is the literal's truth value and ``value[v]`` the variable's.

    ``watches[lit]`` lists the clauses to visit when lit becomes false, in the
    order they were watched.  Each is a list: an input clause of two or more
    literals, loaded as it is because no ``CnfFormula`` clause repeats a
    variable, or a learned clause.  Its watched literals sit in slots 0 and 1,
    and ``clauses`` holds every such list in load-then-learn order.  An input
    clause of one literal is assigned at level 0 instead.

    An exactly-one block's pairwise at-most-one clauses are not watched at
    all.  ``amo[-x]`` is the block of x as negated literals, in block order,
    and ``_propagate`` reads it, less -x itself, before ``watches[-x]``.  The
    pairs would be exactly the two-literal lists at the head of
    ``watches[-x]``: every block is loaded before any other clause, and a
    two-literal list never moves.  Only the block's at-least-one clause is
    loaded as an input clause.

    ``reason[var]`` is None for a decision or a level-0 unit, the clause list
    that implied var (with var's literal in slot 0), or for a block's pair the
    int ``falsified``: the pair is (implied, falsified).  ``_propagate``
    reports a pair's conflict as (first, falsified), in that order, and any
    other as its clause list.

    ``decisions``, ``conflicts``, ``propagations`` (literals taken off the
    trail by ``_propagate``), ``learned`` (learned clauses of two or more
    literals, so ``clauses[-learned:]``) and ``max_level`` (the deepest
    decision level) count the search.

    The decision order has two tiers.  ``heap`` holds ``(-activity, var)``
    entries of variables of positive activity only.  ``heap_key[var]`` is the
    key of var's one live entry, or ``_NO_ENTRY``; an entry whose key differs
    is stale (var was bumped since) and is skipped when popped.  Every
    unassigned variable of positive activity has a live entry, so popping
    yields the one of highest activity, lowest index on ties.  Every
    unassigned variable of activity 0 has an index of ``cursor`` or above:
    ``_backtrack`` lowers the cursor to each one it unassigns, and
    ``_rebuild_heap`` sets it back to 1.  ``solve`` pops the heap while it
    holds a live entry; once it holds no unassigned variable, every
    unassigned variable has activity 0, and the first unassigned one from the
    cursor up is the lowest.  Either way the decision is the unassigned
    variable a scan would pick, and ``solve`` assigns it inside its loop.
    """

    def __init__(self, cnf: CnfFormula):
        n = self.n = cnf.num_vars
        self.clauses: list[list[int]] = []
        self.value = [_UNDEF] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason: list[list[int] | int | None] = [None] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.activity = [0.0] * (n + 1)
        self.seen = [False] * (n + 1)  # _analyze's marks; all False between conflicts
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.max_level = 0
        # No variable is bumped yet, so the order heap starts empty.
        self.heap: list[tuple[float, int]] = []
        self.heap_key = [_NO_ENTRY] * (n + 1)
        self.cursor = 1

        amo: list[tuple[int, ...]] = [()] * (2 * n + 1)
        for block in cnf.one_hot:
            negated = tuple([-var for var in block])
            for lit in negated:
                amo[lit] = negated
        self.amo = amo

        clauses, watches = self.clauses, self.watches
        for clause in chain(cnf.one_hot, cnf._rest):
            if len(clause) > 1:
                lits = list(clause)
                clauses.append(lits)
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not self._enqueue(clause[0], None):
                self.ok = False

    def _rebuild_heap(self) -> None:
        """One live entry per bumped variable, keyed on its current activity,
        and the cursor back at variable 1."""
        self.heap_key = [-a if a else _NO_ENTRY for a in self.activity]
        self.heap = [(key, var) for var, key in enumerate(self.heap_key) if key < 0]
        heapify(self.heap)
        self.cursor = 1  # a rescale may have taken an activity down to 0

    def _enqueue(self, lit: int, reason: list[int] | int | None, level: int = 0) -> bool:
        if self.value[lit] != _UNDEF:
            return self.value[lit] == _TRUE
        self.value[lit] = _TRUE
        self.value[-lit] = _FALSE
        var = abs(lit)
        self.level[var] = level
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | tuple[int, int] | None:
        """Unit propagation; returns the literals of a conflicting clause or None."""
        trail, value, watches, amo = self.trail, self.value, self.watches, self.amo
        level, reason = self.level, self.reason
        current_level = len(self.trail_lim)
        start = qhead = self.qhead
        conflict: list[int] | tuple[int, int] | None = None
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            # An implied literal takes the highest level of its reason's other
            # literals: this one's for a pair, and for a clause too when it is
            # the current level, since none is higher.
            at = level[abs(falsified)]
            for first in amo[falsified]:  # the block's pairs (falsified, first)
                state = value[first]
                if state == _UNDEF:
                    value[first] = _TRUE
                    value[-first] = _FALSE
                    var = first if first > 0 else -first
                    level[var] = at
                    reason[var] = falsified
                    trail.append(first)
                elif state == _FALSE and first != falsified:
                    conflict = (first, falsified)
                    break
            if conflict is not None:
                break
            watchers = watches[falsified]
            moved = False
            for i, clause in enumerate(watchers):
                # Normalize so the falsified watcher sits in slot 1.
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                if value[first] == _TRUE:
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if value[lit] != _FALSE:
                        clause[1] = lit
                        clause[j] = falsified
                        watches[lit].append(clause)
                        watchers[i] = None  # dropped below; entries are never falsy
                        moved = True
                        break
                else:
                    if value[first] == _FALSE:
                        conflict = clause
                        break
                    value[first] = _TRUE
                    value[-first] = _FALSE
                    var = first if first > 0 else -first
                    level[var] = at if at == current_level else max(
                        [level[abs(q)] for q in islice(clause, 1, None)])
                    reason[var] = clause
                    trail.append(first)
            if moved:
                watchers[:] = filter(None, watchers)
            if conflict is not None:
                break
        self.qhead = qhead
        self.propagations += qhead - start
        return conflict

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _analyze(self, conflict: Sequence[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backtrack to.

        The conflict's literals are at the current level or below.  A learned
        unit undoes only the current level; a longer clause backjumps to its
        second-highest level.
        """
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        marked: list[int] = []
        counter = 0
        index = len(trail)
        current_level = len(self.trail_lim)
        lits: Iterable[int] = conflict

        while True:
            for q in lits:
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    marked.append(var)
                    self._bump(var)
                    if level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:  # the walk skips lower-level literals above this level's
                index -= 1
                lit = -trail[index]
                if seen[abs(lit)] and level[abs(lit)] == current_level:
                    break
            counter -= 1
            if counter == 0:
                break
            # Resolve on the implied literal -lit: read its reason without it,
            # as MiniSat does.  It sits in slot 0 of a clause list; a block's
            # pair (-lit, other) contributes other alone.
            implied_by = reason[abs(lit)]
            assert implied_by is not None
            lits = (implied_by,) if type(implied_by) is int else islice(implied_by, 1, None)
        learned[0] = lit
        for var in marked:
            seen[var] = False

        if len(learned) == 1:
            back_level = current_level - 1
        else:
            # Put the second-highest-level literal in slot 1 for watching.
            best = 1
            for j in range(2, len(learned)):
                if level[abs(learned[j])] > level[abs(learned[best])]:
                    best = j
            learned[1], learned[best] = learned[best], learned[1]
            back_level = level[abs(learned[1])]
        return learned, back_level

    def _imply_alone(self, conflict: list[int] | tuple[int, int], levels: list[int]) -> None:
        """Backtrack to the highest level of the conflict's other literals and
        imply there its one literal of a higher level (Nadel & Ryvchin)."""
        i = levels.index(max(levels))
        alone = conflict[i]
        at = max(levels[:i] + levels[i + 1:])
        self._backtrack(at)
        if type(conflict) is tuple:  # a block's pair: the other member implies it
            self._enqueue(alone, conflict[1 - i], at)
            return
        # Watch it and an other literal of level at, as a learned clause is.
        self._watch_slot(conflict, 0, i)
        level = self.level
        self._watch_slot(conflict, 1, next(
            k for k in range(1, len(conflict)) if level[abs(conflict[k])] == at))
        self._enqueue(alone, conflict, at)

    def _watch_slot(self, clause: list[int], slot: int, k: int) -> None:
        """Swap clause[k] into watched slot 0 or 1, moving the watch if k > 1."""
        old = clause[slot]
        clause[slot], clause[k] = clause[k], old
        if k > 1:
            watchers = self.watches[old]
            del watchers[next(j for j, c in enumerate(watchers) if c is clause)]
            self.watches[clause[slot]].append(clause)

    def _backtrack(self, target_level: int) -> None:
        """Undo every level above target_level.  A literal of target_level or
        below that sits above it on the trail stays assigned, in trail order,
        and is propagated again."""
        limit = self.trail_lim[target_level]
        value, level, activity = self.value, self.level, self.activity
        heap_key, heap, cursor = self.heap_key, self.heap, self.cursor
        kept = []
        for lit in self.trail[limit:]:
            var = lit if lit > 0 else -lit
            if level[var] <= target_level:
                kept.append(lit)
                continue
            value[lit] = value[-lit] = _UNDEF
            if activity[var]:
                key = -activity[var]
                if heap_key[var] != key:
                    heap_key[var] = key
                    heappush(heap, (key, var))
            elif var < cursor:
                cursor = var
        self.cursor = cursor
        self.trail[limit:] = kept
        del self.trail_lim[target_level:]
        self.qhead = limit
        if len(heap) > 2 * self.n:
            self._rebuild_heap()  # drop the stale entries

    def solve(self) -> SolveResult:
        if not self.ok:
            return SolveResult(None)
        if self._propagate() is not None:
            self.conflicts += 1
            return SolveResult(None)

        n, value, level, reason = self.n, self.value, self.level, self.reason
        trail, trail_lim = self.trail, self.trail_lim
        heap, heap_key = self.heap, self.heap_key
        while len(trail) < n:
            while heap:
                key, var = heappop(heap)
                if heap_key[var] != key:
                    continue  # stale
                heap_key[var] = _NO_ENTRY
                if value[var] == _UNDEF:
                    break
            else:
                # Every unassigned variable has activity 0: take the lowest.
                var = self.cursor
                while value[var] != _UNDEF:
                    var += 1
                self.cursor = var
            # Decide var, phase false first, at a new level.
            self.decisions += 1
            trail_lim.append(len(trail))
            depth = len(trail_lim)
            if depth > self.max_level:
                self.max_level = depth
            value[-var] = _TRUE
            value[var] = _FALSE
            level[var] = depth
            reason[var] = None
            trail.append(-var)
            while True:
                conflict = self._propagate()
                if conflict is None:
                    break
                self.conflicts += 1
                # Analyse the conflict at its own highest level, which is below
                # the current one when literals under a unit implied it.  With
                # one literal alone at that level there is nothing to learn.
                levels = [level[abs(q)] for q in conflict]
                conflict_level = max(levels)
                if conflict_level == 0:
                    return SolveResult(None)
                if levels.count(conflict_level) == 1:
                    self._imply_alone(conflict, levels)
                    continue
                if conflict_level < len(trail_lim):
                    self._backtrack(conflict_level)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    # Chronological: the unit goes to level 0 at the end of the trail.
                    enqueued = self._enqueue(learned[0], None)
                else:
                    self.learned += 1
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(learned)
                    self.watches[learned[1]].append(learned)
                    enqueued = self._enqueue(learned[0], learned, back_level)
                if not enqueued:
                    return SolveResult(None)
                self.var_inc /= self.var_decay
            # _bump and _backtrack may have rebuilt the order heap.
            heap, heap_key = self.heap, self.heap_key

        return SolveResult({v: value[v] == _TRUE for v in range(1, n + 1)})


def solve(cnf: CnfFormula) -> SolveResult:
    """Decide cnf; Sat results carry a verified total model."""
    result = _Solver(cnf).solve()
    if result.satisfiable:
        assert result.model is not None
        if not _model_satisfies(cnf, result.model):
            raise AssertionError("solver returned a non-model; this is a solver bug")
    return result


class DimacsError(ValueError):
    pass


def write_dimacs(cnf: CnfFormula) -> str:
    """Standard DIMACS CNF text: header line, then 0-terminated clauses."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n"]
    lines += [" ".join(map(str, clause)) + " 0\n" for clause in cnf.clauses]
    return "".join(lines)


def read_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; validates literals and counts against the header."""
    num_vars: int | None = None
    num_clauses = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header: {line!r}") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"malformed header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError(f"clause before header: {line!r}")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"not a literal: {token!r}") from None
            if lit == 0:
                if not pending:
                    raise DimacsError("empty clause in input")
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(f"literal {lit} exceeds declared {num_vars} variables")
                pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing header line")
    if pending:
        raise DimacsError("last clause lacks its terminating 0")
    if len(clauses) != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))
