"""SAT core: solver correctness against the exhaustive oracle, DIMACS I/O."""

import hashlib
import random
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverify import sat
from coverify.encode import encode
from coverify.logic import Alw, And, Atom, Dist, Not, Or, Som, conjoin
from coverify.sat import (
    _FALSE,
    _NO_ENTRY,
    _TRUE,
    _UNDEF,
    CnfFormula,
    DimacsError,
    SolveResult,
    _model_satisfies,
    _Solver,
    read_dimacs,
    solve,
    write_dimacs,
)
from coverify.world import bundled_scenario_path, compile_scenario, load_scenario, loads_scenario
from helpers import brute_force_solve, family_symbols, random_formula
from test_encode import _random_grid_text
from test_exhaustive import _grid_text


def cnf(num_vars, *clauses):
    return CnfFormula(num_vars, tuple(tuple(c) for c in clauses))


def pigeonhole(pigeons, holes):
    """Standard encoding: each pigeon in some hole, no hole with two pigeons."""
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append((-var(p1, h), -var(p2, h)))
    return CnfFormula(pigeons * holes, tuple(clauses))


def random_cnf(rng, max_vars=20, max_clauses=90):
    num_vars = rng.randint(3, max_vars)
    num_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


class TestSolve:
    def test_direct_contradiction(self):
        assert solve(cnf(1, (1,), (-1,))).satisfiable is False

    def test_unit_propagation_forces_model(self):
        result = solve(cnf(2, (1, 2), (-1,)))
        assert result.satisfiable
        assert result.model == {1: False, 2: True}

    def test_empty_formula_is_sat_all_false(self):
        result = solve(cnf(3))
        assert result.model == {1: False, 2: False, 3: False}

    def test_zero_variables(self):
        assert solve(cnf(0)).satisfiable

    def test_pigeonhole_4_into_3_unsat(self):
        php = pigeonhole(4, 3)
        assert brute_force_solve(php).satisfiable is False  # oracle first
        assert solve(php).satisfiable is False

    def test_pigeonhole_3_into_3_sat(self):
        assert solve(pigeonhole(3, 3)).satisfiable is True

    def test_duplicate_and_tautological_literals(self):
        result = solve(cnf(2, (1, 1, 2), (1, -1), (-2, -2)))
        assert result.satisfiable
        assert result.model[2] is False

    def test_deterministic_across_runs(self):
        rng = random.Random(55)
        for _ in range(25):
            formula = random_cnf(rng, max_vars=14, max_clauses=50)
            first = solve(formula)
            second = solve(formula)
            assert first == second


class TestBruteForce:
    def test_single_unit(self):
        result = brute_force_solve(cnf(1, (1,)))
        assert result.model == {1: True}

    def test_no_clauses_vacuously_sat(self):
        assert brute_force_solve(cnf(3)).satisfiable is True

    def test_xor_structure(self):
        result = brute_force_solve(cnf(2, (1, 2), (-1, -2)))
        assert result.satisfiable
        assert result.model[1] != result.model[2]

    def test_variable_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force_solve(cnf(25))

    def test_returns_lowest_assignment(self):
        # counting order: all-false first, so {1:T} loses to {2:T} only if 1 < 2 bit
        result = brute_force_solve(cnf(2, (1, 2)))
        assert result.model == {1: True, 2: False}


class TestOracleAgreement:
    def test_solve_matches_brute_force_on_random_cnfs(self):
        rng = random.Random(2024)
        for _ in range(120):
            formula = random_cnf(rng)
            assert solve(formula).satisfiable == brute_force_solve(formula).satisfiable

    def test_renaming_invariance(self):
        rng = random.Random(77)
        for _ in range(40):
            formula = random_cnf(rng, max_vars=12, max_clauses=40)
            perm = list(range(1, formula.num_vars + 1))
            rng.shuffle(perm)
            renamed = CnfFormula(
                formula.num_vars,
                tuple(
                    tuple((perm[abs(l) - 1]) * (1 if l > 0 else -1) for l in clause)
                    for clause in formula.clauses
                ),
            )
            assert solve(formula).satisfiable == solve(renamed).satisfiable


class TestDimacs:
    def test_write_format(self):
        assert write_dimacs(cnf(2, (1, -2))) == "p cnf 2 1\n1 -2 0\n"

    def test_write_two_clauses(self):
        assert write_dimacs(cnf(1, (1,), (-1,))) == "p cnf 1 2\n1 0\n-1 0\n"

    def test_write_empty(self):
        assert write_dimacs(cnf(0)) == "p cnf 0 0\n"

    def test_read_round_trips_write(self):
        formula = cnf(2, (1, -2))
        assert read_dimacs(write_dimacs(formula)) == formula

    def test_read_ignores_comments(self):
        formula = read_dimacs("c a comment\np cnf 2 1\n1 -2 0\n")
        assert formula == cnf(2, (1, -2))

    def test_read_rejects_out_of_range_literal(self):
        with pytest.raises(DimacsError, match="exceeds"):
            read_dimacs("p cnf 1 1\n2 0\n")

    def test_read_rejects_missing_terminator(self):
        with pytest.raises(DimacsError, match="terminating 0"):
            read_dimacs("p cnf 2 1\n1 -2\n")

    def test_read_rejects_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            read_dimacs("p dnf 2 1\n1 -2 0\n")

    def test_read_rejects_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares"):
            read_dimacs("p cnf 2 2\n1 -2 0\n")

    def test_clause_spanning_lines(self):
        formula = read_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert formula == cnf(3, (1, 2, 3))

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=n).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=0,
                max_size=10,
            ).map(lambda clauses: CnfFormula(n, tuple(tuple(c) for c in clauses)))
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, formula):
        assert read_dimacs(write_dimacs(formula)) == formula


class TestCnfValidation:
    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError, match="empty clause"):
            cnf(1, ())

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            cnf(1, (0,))

    def test_rejects_overflow_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            cnf(1, (2,))

    def test_drops_repeated_literals_and_tautologies(self):
        formula = cnf(3, (1, 1, 2), (1, -1), (-2, 3, -2), (3,), (2, -3, 1, 3))
        assert formula.clauses == ((1, 2), (-2, 3), (3,))
        assert formula == cnf(3, (1, 2), (-2, 3), (3,))

    def test_read_dimacs_drops_repeated_literals_and_tautologies(self):
        # The header counts the clauses as written.
        formula = read_dimacs("p cnf 2 3\n1 1 2 0\n2 -2 0\n-1 -1 0\n")
        assert formula.clauses == ((1, 2), (-1,))


def test_sat_models_verified_internally():
    # Every Sat answer from solve satisfies every clause by construction;
    # spot-check the invariant on a batch of random formulas.
    rng = random.Random(31)
    for _ in range(60):
        formula = random_cnf(rng, max_vars=16, max_clauses=60)
        result = solve(formula)
        if result.satisfiable:
            for clause in formula.clauses:
                assert any(result.model[abs(l)] == (l > 0) for l in clause)


def _scenario_cnfs():
    """CNFs of every bundled scenario at its own bound and at k=30, without repeats, and of
    handover_stop at k=120: the refutation TestUnitsBacktrackChronologically counts on the
    block CNF, which TestExactlyOneBlocksMatchClauses searches as spelled-out pairs too."""
    seen = set()
    more_bounds = {"handover": (), "handover_point": (), "handover_mini": (),
                   "handover_stop": (120,)}
    for name, more in more_bounds.items():
        scenario = load_scenario(bundled_scenario_path(name))
        model = compile_scenario(scenario)
        for bound in (scenario.bound, 30, *more):
            formula, _ = encode(conjoin(model.formulas), model.symbols, bound)
            if formula not in seen:
                seen.add(formula)
                yield pytest.param(formula, id=f"{name}-k{bound}")


def random_3sat(rng, num_vars, ratio=4.26):
    clauses = []
    for _ in range(int(num_vars * ratio)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


class _ClauseListSolver:
    """An index-based clause-list solver, frozen as the reference.

    Every clause is a Python list, watch lists and reasons hold clause indices,
    and every clause longer than two literals is cleaned up by ``_add_clause``.

    A learned unit undoes only the conflict's level and goes to level 0 at the
    end of the trail (chronological backtracking), so a literal may sit above
    literals of a higher level.  Each implied literal takes the highest level
    of its reason's other literals, each conflict is analysed at its highest
    level, and ``_backtrack`` keeps, and propagates again, the literals of the
    target level or below that sit above it.  A conflict with one literal
    alone at its highest level is not analysed: ``_imply_alone`` implies that
    literal at the highest level of the others, with the conflict as reason.
    """

    def __init__(self, cnf: CnfFormula):
        n = self.n = cnf.num_vars
        self.clauses: list[list[int]] = []
        self.value = [_UNDEF] * (2 * n + 1)
        self.level = [0] * (n + 1)
        self.reason: list[int | None] = [None] * (n + 1)  # clause index
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.activity = [0.0] * (n + 1)
        self.seen = [False] * (n + 1)  # _analyze's marks; all False between conflicts
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        self.decisions = 0
        self.conflicts = 0
        self._rebuild_heap()

        clauses, watches = self.clauses, self.watches
        for clause in cnf.clauses:
            if len(clause) == 2:
                a, b = clause
                if a != b and a != -b:
                    idx = len(clauses)
                    watches[a].append(idx)
                    watches[b].append(idx)
                    clauses.append([a, b])
                    continue
            self._add_clause(list(clause))

    def _rebuild_heap(self) -> None:
        """One live entry per variable, keyed on its current activity."""
        # Activities still at 0 (all of them at the start) share one key object.
        self.heap_key = [-a if a else -0.0 for a in self.activity]
        self.heap = list(zip(self.heap_key[1:], range(1, self.n + 1)))
        heapify(self.heap)

    def _add_clause(self, lits: list[int]) -> None:
        seen: dict[int, int] = {}
        out: list[int] = []
        for lit in lits:
            if seen.get(-lit):
                return  # tautology, trivially satisfied
            if not seen.get(lit):
                seen[lit] = 1
                out.append(lit)
        if len(out) == 1:
            if not self._enqueue(out[0], None, 0):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(idx)
        self.watches[out[1]].append(idx)

    def _implied_level(self, clause: list[int], implied: int) -> int:
        return max(self.level[abs(q)] for q in clause if q != implied)

    def _enqueue(self, lit: int, reason: int | None, level: int) -> bool:
        if self.value[lit] != _UNDEF:
            return self.value[lit] == _TRUE
        self.value[lit] = _TRUE
        self.value[-lit] = _FALSE
        var = abs(lit)
        self.level[var] = level
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        trail, value, watches, clauses = self.trail, self.value, self.watches, self.clauses
        level, reason = self.level, self.reason
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watchers = watches[falsified]
            if not watchers:
                continue
            kept: list[int] = []
            conflict: int | None = None
            for i, ci in enumerate(watchers):
                clause = clauses[ci]
                # Normalize so the falsified watcher sits in slot 1.
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                if value[first] == _TRUE:
                    kept.append(ci)
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if value[lit] != _FALSE:
                        clause[1] = lit
                        clause[j] = falsified
                        watches[lit].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value[first] == _FALSE:
                        conflict = ci
                        kept.extend(watchers[i + 1:])
                        break
                    value[first] = _TRUE
                    value[-first] = _FALSE
                    var = first if first > 0 else -first
                    level[var] = self._implied_level(clause, first)
                    reason[var] = ci
                    trail.append(first)
            watches[falsified] = kept
            if conflict is not None:
                self.qhead = qhead
                return conflict
        self.qhead = qhead
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        learned: list[int] = [0]  # slot 0 reserved for the asserting literal
        seen = self.seen
        marked: list[int] = []
        counter = 0
        lit = 0
        index = len(self.trail)
        reason_clause: list[int] = self.clauses[conflict]
        current_level = len(self.trail_lim)

        while True:
            for q in reason_clause:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    marked.append(var)
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                lit = -self.trail[index]
                if seen[abs(lit)] and self.level[abs(lit)] == current_level:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_idx = self.reason[abs(lit)]
            assert reason_idx is not None
            reason_clause = self.clauses[reason_idx]
        learned[0] = lit
        for var in marked:
            seen[var] = False

        if len(learned) == 1:
            back_level = current_level - 1
        else:
            # Put the second-highest-level literal in slot 1 for watching.
            best = 1
            for j in range(2, len(learned)):
                if self.level[abs(learned[j])] > self.level[abs(learned[best])]:
                    best = j
            learned[1], learned[best] = learned[best], learned[1]
            back_level = self.level[abs(learned[1])]
        return learned, back_level

    def _imply_alone(self, ci: int, levels: list[int]) -> None:
        clause = self.clauses[ci]
        top = max(levels)
        alone = clause[levels.index(top)]
        at = max(lvl for lvl in levels if lvl != top)
        self._backtrack(at)
        # The implied literal goes to slot 0 and the first other of level at to slot 1.
        self._swap_to_slot(ci, 0, clause.index(alone))
        second = next(q for q in clause[1:] if self.level[abs(q)] == at)
        self._swap_to_slot(ci, 1, clause.index(second))
        self._enqueue(alone, ci, at)

    def _swap_to_slot(self, ci: int, slot: int, k: int) -> None:
        clause = self.clauses[ci]
        if k == slot:
            return
        if k > 1:  # clause[slot] stops being watched and clause[k] starts
            self.watches[clause[slot]].remove(ci)
            self.watches[clause[k]].append(ci)
        clause[slot], clause[k] = clause[k], clause[slot]

    def _backtrack(self, target_level: int) -> None:
        limit = self.trail_lim[target_level]
        above = self.trail[limit:]
        kept = [lit for lit in above if self.level[abs(lit)] <= target_level]
        undone = [lit for lit in above if self.level[abs(lit)] > target_level]
        value, activity, heap_key, heap = self.value, self.activity, self.heap_key, self.heap
        for lit in undone:
            value[lit] = value[-lit] = _UNDEF
            var = lit if lit > 0 else -lit
            key = -activity[var]
            if heap_key[var] != key:
                heap_key[var] = key
                heappush(heap, (key, var))
        self.trail[limit:] = kept
        del self.trail_lim[target_level:]
        self.qhead = limit
        if len(heap) > 2 * self.n:
            self._rebuild_heap()  # drop the stale entries

    def _decide(self) -> int:
        heap, heap_key, value = self.heap, self.heap_key, self.value
        while True:
            key, var = heappop(heap)
            if heap_key[var] != key:
                continue  # stale
            heap_key[var] = _NO_ENTRY
            if value[var] == _UNDEF:
                return -var  # phase: false first

    def solve(self) -> SolveResult:
        if not self.ok:
            return SolveResult(None)
        if self._propagate() is not None:
            self.conflicts += 1
            return SolveResult(None)

        while len(self.trail) < self.n:
            decision = self._decide()
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None, len(self.trail_lim))
            while True:
                conflict = self._propagate()
                if conflict is None:
                    break
                self.conflicts += 1
                levels = [self.level[abs(q)] for q in self.clauses[conflict]]
                conflict_level = max(levels)
                if conflict_level == 0:
                    return SolveResult(None)
                if levels.count(conflict_level) == 1:
                    self._imply_alone(conflict, levels)
                    continue
                if conflict_level < len(self.trail_lim):
                    self._backtrack(conflict_level)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    enqueued = self._enqueue(learned[0], None, 0)
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(idx)
                    self.watches[learned[1]].append(idx)
                    enqueued = self._enqueue(learned[0], idx, self._implied_level(learned, learned[0]))
                if not enqueued:
                    return SolveResult(None)
                self.var_inc /= self.var_decay

        return SolveResult({v: self.value[v] == _TRUE for v in range(1, self.n + 1)})



def _learned_search(solver, **settings):
    """Result, counters and the clauses learned after loading, with their slot order."""
    loaded = len(solver.clauses)
    for name, value in settings.items():
        setattr(solver, name, value)
    result = solver.solve()
    return result, solver.decisions, solver.conflicts, solver.clauses[loaded:]


def _assert_same_as_clause_lists(formula, **settings):
    run = _learned_search(_Solver(formula), **settings)
    assert run == _learned_search(_ClauseListSolver(formula), **settings)
    return run


class _LinearScanSolver(_ClauseListSolver):
    """Reference decision rule: scan every variable, keep the first of highest activity.

    It overrides the frozen clause-list solver's ``_decide``: _Solver takes
    its decisions inside its search loop, so an override there would go unread.
    """

    def _decide(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self.n + 1):
            if self.value[var] == _UNDEF and self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        return -best_var  # phase: false first


def _assert_two_tiers(solver):
    """Only bumped variables sit in the order heap, and no unassigned variable
    of activity 0 sits below the cursor."""
    activity, value = solver.activity, solver.value
    assert all(activity[var] > 0 for _, var in solver.heap)
    assert all(value[var] != _UNDEF or activity[var] > 0 for var in range(1, solver.cursor))


class _TierCheckingSolver(_Solver):
    """Checks the two tiers after every backtrack, where the cursor moves back."""

    def _backtrack(self, target_level):
        super()._backtrack(target_level)
        _assert_two_tiers(self)


def _assert_same_search(formula, **settings):
    """The heap-and-cursor solver decides, conflicts and learns exactly as the linear scan does."""
    heap_solver = _TierCheckingSolver(formula)
    heap_run = _learned_search(heap_solver, **settings)
    assert heap_run == _learned_search(_LinearScanSolver(formula), **settings)
    _assert_two_tiers(heap_solver)
    # At most one live order-heap entry per variable, and the stale ones stay bounded.
    live = [var for key, var in heap_solver.heap if heap_solver.heap_key[var] == key]
    assert len(live) == len(set(live))
    assert len(heap_solver.heap) <= 2 * formula.num_vars
    return heap_solver


class TestHeapMatchesLinearScan:
    def test_random_cnfs(self):
        rng = random.Random(31)
        for _ in range(200):
            _assert_same_search(random_cnf(rng, max_vars=30, max_clauses=130))

    def test_random_3sat_near_the_threshold(self):
        rng = random.Random(32)
        for _ in range(200):
            _assert_same_search(random_3sat(rng, rng.randint(10, 50), rng.uniform(3.8, 4.8)))

    @pytest.mark.parametrize("formula", _scenario_cnfs())
    def test_bundled_scenarios(self, formula):
        _assert_same_search(formula)

    @pytest.mark.parametrize("n", [4, 5])
    def test_open_grids(self, n):
        # The benchmark's open-grid sizes: about 660 and 1,200 variables, most never bumped.
        rng = random.Random(70 + n)
        conflicts = 0
        for _ in range(3):
            scenario = loads_scenario(_full_grid_text(rng, n, stop=False))
            model = compile_scenario(scenario)
            formula = encode(conjoin(model.formulas), model.symbols, scenario.bound)[0]
            conflicts += _assert_same_search(formula).conflicts
        assert conflicts > 0  # so the heap takes some decisions, not the cursor alone

    def test_activity_rescale_rebuilds_the_heap(self, monkeypatch):
        rescales = []
        bump = _Solver._bump

        def recording_bump(solver, var):
            before = solver.var_inc
            bump(solver, var)
            if solver.var_inc < before:  # only a rescale lowers var_inc
                rescales.append(var)

        monkeypatch.setattr(_Solver, "_bump", recording_bump)
        # var_inc grows 1e20-fold per conflict, so activities pass 1e100 every few conflicts.
        rng = random.Random(33)
        for _ in range(10):
            _assert_same_search(random_3sat(rng, 40), var_decay=1e-20)
        assert rescales


def binary_heavy_cnf(rng):
    """About 70% binary clauses: AND gates in Tseitin form under random binary constraints.

    Each gate e <-> (a and b) gives (-e, a), (-e, b), (e, -a, -b), as the
    bounded encoder's conjunctions do.  A few units, (a, a) and (a, -a) are
    mixed in, and the clause order is shuffled.
    """
    inputs = rng.randint(6, 16)
    num_vars = inputs + rng.randint(10, 40)
    sign = lambda v: v * rng.choice((1, -1))
    clauses = []
    for e in range(inputs + 1, num_vars + 1):
        a, b = (sign(v) for v in rng.sample(range(1, e), 2))
        clauses += [(-e, a), (-e, b), (e, -a, -b)]
    for _ in range(rng.randint(num_vars // 5, 3 * num_vars // 5)):
        clauses.append(tuple(sign(v) for v in rng.sample(range(1, num_vars + 1), 2)))
    for _ in range(rng.randint(0, 3)):
        a = sign(rng.randint(1, num_vars))
        clauses.append(rng.choice([(a,), (a, a), (a, -a)]))
    rng.shuffle(clauses)
    return CnfFormula(num_vars, tuple(clauses))


class TestBinaryWatchesMatchClauseLists:
    """Clause lists watched in place search exactly as the index-based clause-list solver did."""

    def test_random_cnfs(self):
        rng = random.Random(41)
        for _ in range(200):
            _assert_same_as_clause_lists(random_cnf(rng, max_vars=30, max_clauses=130))

    def test_random_3sat_near_the_threshold(self):
        rng = random.Random(42)
        for _ in range(200):
            _assert_same_as_clause_lists(random_3sat(rng, rng.randint(10, 50), rng.uniform(3.8, 4.8)))

    def test_binary_heavy_cnfs(self):
        rng = random.Random(43)
        outcomes = set()
        conflicts = 0
        for _ in range(200):
            result, _, conflicts_here, _ = _assert_same_as_clause_lists(binary_heavy_cnf(rng))
            outcomes.add(result.satisfiable)
            conflicts += conflicts_here
        assert outcomes == {True, False}
        assert conflicts > 100

    @pytest.mark.parametrize("formula", _scenario_cnfs())
    def test_bundled_scenarios(self, formula):
        _assert_same_as_clause_lists(formula)

    def test_activity_rescale(self, monkeypatch):
        rescales = []
        bump = _Solver._bump

        def recording_bump(solver, var):
            before = solver.var_inc
            bump(solver, var)
            if solver.var_inc < before:  # only a rescale lowers var_inc
                rescales.append(var)

        monkeypatch.setattr(_Solver, "_bump", recording_bump)
        rng = random.Random(44)
        for _ in range(10):
            _assert_same_as_clause_lists(random_3sat(rng, 40), var_decay=1e-20)
        assert rescales

    @pytest.mark.parametrize(
        "clauses",
        [
            [(1, 1, 2, 3), (2, -3, 2), (3, 1, 3, 1)],  # duplicates: cleaned-up clause lists
            [(1, -1, 2), (2, 3, -2), (-4, 4), (1, 2, 3, 4)],  # tautologies are dropped
            [(2, 2, 2), (-1, -1), (3, 3, 3, 3), (1, 2, 3)],  # deduplicated to units
            [(1, 1), (-1, -1, -1), (2, 3)],  # contradicting units
            [(4, 2), (1, 2, 3, 4), (-2, -2), (-4, 1, -3), (3, -1)],
        ],
    )
    def test_loader_matches_clause_lists(self, clauses):
        # The constructor drops repeats and tautologies; the reference reads the clauses as written.
        new = _Solver(cnf(4, *clauses))
        ref = _ClauseListSolver(CnfFormula._numbered(4, tuple(clauses)))
        assert (new.ok, new.trail, new.value, new.level, new.reason) == (
            ref.ok, ref.trail, ref.value, ref.level, ref.reason,
        )

        # The same clauses in the same order, with the same watched literals.
        def watched(solver, clause_of):
            size = len(solver.watches)
            out = []
            for slot, entries in enumerate(solver.watches):
                lit = slot if slot <= solver.n else slot - size
                row = []
                for entry in entries:
                    clause = clause_of(lit, entry)
                    if len(clause) == 2:  # a binary clause reads (watched, other)
                        clause = (lit, clause[1] if clause[0] == lit else clause[0])
                    row.append(tuple(clause))
                out.append(row)
            return out

        assert watched(new, lambda lit, w: w) == watched(ref, lambda lit, ci: ref.clauses[ci])
        assert new.solve() == ref.solve()


def _add_clause(solver, clause):
    """Watch a clause as a list, or enqueue it if it is a unit: the per-clause
    loader _Solver had before every CnfFormula clause held distinct variables,
    frozen with its handling of repeated variables."""
    lits = list(clause)
    if len(set(map(abs, lits))) < len(lits):
        # Drop duplicate literals in order, and the whole clause if it holds a
        # complementary pair.
        seen: dict[int, int] = {}
        lits = []
        for lit in clause:
            if seen.get(-lit):
                return  # tautology, trivially satisfied
            if not seen.get(lit):
                seen[lit] = 1
                lits.append(lit)
    if len(lits) == 1:
        if not solver._enqueue(lits[0], None):
            solver.ok = False
        return
    solver.clauses.append(lits)
    solver.watches[lits[0]].append(lits)
    solver.watches[lits[1]].append(lits)


def _loaded_per_clause(num_vars, clauses):
    """A solver loaded by calling the frozen _add_clause for each clause.

    Given ``formula.clauses``, it loads the pairwise at-most-one clauses of
    the exactly-one blocks too.
    """
    solver = _Solver(CnfFormula(num_vars, ()))
    for clause in clauses:
        _add_clause(solver, clause)
    return solver


def _loaded_state(solver):
    """Clauses, watch lists (each entry by its index in ``clauses``) and the level-0 state."""
    index = {id(clause): i for i, clause in enumerate(solver.clauses)}
    watches = [[index[id(entry)] for entry in entries] for entries in solver.watches]
    return (solver.ok, solver.clauses, watches, solver.trail, solver.value, solver.level,
            solver.reason, solver.qhead)


def _assert_same_load(formula, clauses=None):
    """The per-clause loader's state, with each block's pairs as the ``amo`` table.

    The per-clause loader reads ``clauses``, by default ``formula.clauses``.
    The pairs of the block of x are the two-literal lists at the head of the
    per-clause loader's ``watches[-x]``, their other literals in the order
    ``amo[-x]`` lists them without -x.  Less those lists, in its watch lists
    and in ``clauses``, the per-clause loader holds what _Solver does.
    """
    clauses = formula.clauses if clauses is None else clauses
    solver, per_clause = _Solver(formula), _loaded_per_clause(formula.num_vars, clauses)
    amo = [()] * (2 * formula.num_vars + 1)
    pair_ids = set()
    for block in formula.one_hot:
        for var in block:
            amo[-var] = tuple(-v for v in block)
            pairs = [lit for lit in amo[-var] if lit != -var]
            head = per_clause.watches[-var][:len(pairs)]
            assert [set(clause) for clause in head] == [{-var, lit} for lit in pairs]
            pair_ids.update(map(id, head))
            del per_clause.watches[-var][:len(pairs)]
    per_clause.clauses[:] = [clause for clause in per_clause.clauses if id(clause) not in pair_ids]
    assert solver.amo == amo
    assert _loaded_state(solver) == _loaded_state(per_clause)


class TestLoaderMatchesPerClauseLoop:
    """Watching clauses inline loads what calling _add_clause for each one does,
    less the exactly-one blocks' pairs, which the ``amo`` table holds instead."""

    def test_random_cnfs(self):
        rng = random.Random(31)
        for _ in range(200):
            _assert_same_load(random_cnf(rng, max_vars=30, max_clauses=130))

    def test_random_3sat_near_the_threshold(self):
        rng = random.Random(32)
        for _ in range(200):
            _assert_same_load(random_3sat(rng, rng.randint(10, 50), rng.uniform(3.8, 4.8)))

    def test_repeated_and_complementary_literals(self):
        rng = random.Random(45)
        for _ in range(200):
            formula = random_cnf(rng, max_vars=8, max_clauses=40)
            # Widen some clauses with a repeated or a complementary literal of their own:
            # the constructor drops what the per-clause loader used to drop.
            clauses = tuple(
                clause + (rng.choice(clause) * rng.choice((1, -1)),) if rng.random() < 0.3 else clause
                for clause in formula.clauses
            )
            _assert_same_load(CnfFormula(formula.num_vars, clauses), clauses)

    def test_binary_heavy_cnfs(self):
        rng = random.Random(43)
        for _ in range(200):
            _assert_same_load(binary_heavy_cnf(rng))

    def test_random_exactly_one_blocks(self):
        rng = random.Random(46)
        for _ in range(200):
            _assert_same_load(random_one_hot_cnf(rng))

    @pytest.mark.parametrize("formula", _scenario_cnfs())
    def test_bundled_scenarios(self, formula):
        _assert_same_load(formula)


def _repeats_no_variable(clause):
    return len(set(map(abs, clause))) == len(clause)


def _search_state(solver):
    """Result, search counters and learned clauses of a loaded solver."""
    loaded = len(solver.clauses)
    result = solver.solve()
    counters = (solver.decisions, solver.conflicts, solver.propagations, solver.learned,
                solver.max_level)
    return result, counters, solver.clauses[loaded:]


def _assert_loads_as_checked(f, table, k, monkeypatch):
    """encode's CNF of f, loaded as it is, loads and searches as the frozen per-clause
    loader does on the same clauses.  Returns how many fragments ``_tidy`` changed
    while the encoder built them."""
    changed = 0
    tidy = sat._tidy

    def counting_tidy(clause):
        nonlocal changed
        out = tidy(clause)
        changed += out != clause
        return out

    with monkeypatch.context() as patch:
        patch.setattr(sat, "_tidy", counting_tidy)
        formula = encode(f, table, k)[0]
    assert all(map(_repeats_no_variable, formula.clauses)), f"{f} at k={k}"
    # The checked load: the blocks as the solver reads them, then every other clause
    # through the per-clause loader, which drops repeats and tautologies.
    checked = _Solver(CnfFormula._numbered(formula.num_vars, (), formula.one_hot))
    for clause in formula._rest:
        _add_clause(checked, clause)
    trusted = _Solver(formula)
    assert trusted.amo == checked.amo
    assert _loaded_state(trusted) == _loaded_state(checked)
    assert _search_state(trusted) == _search_state(checked)
    return changed


class TestEncodedClausesLoadAsChecked:
    """encode's CNF, loaded as it is, loads and searches as the frozen per-clause loader
    does on the same clauses, where the encoder tidied fragments that repeat a variable."""

    def test_random_formulas(self, monkeypatch):
        rng = random.Random(7)
        table = family_symbols()
        tidied = 0
        for _ in range(1000):
            f = random_formula(rng, rng.choice((4, 4, 6)))
            for k in (0, 1, 2, 4):
                tidied += _assert_loads_as_checked(f, table, k, monkeypatch)
        assert tidied > 0

    @pytest.mark.parametrize("loose, k", [
        (Dist(Or(Atom("p"), Atom("p")), 1), 2),  # a join repeating a leaf, shifted
        (Dist(And(Or(Atom("p"), Atom("p")), Not(Dist(Atom("q"), 5))), 0), 2),  # one live part
        (Alw(Or(Atom("p"), Not(Atom("p")))), 0),  # the operand's one fragment at k=0
    ], ids=["dist", "conjunction", "alw"])
    def test_fragments_repeating_a_variable_under_a_conjunction(self, loose, k, monkeypatch):
        f = Som(And(Atom("q"), loose))
        assert _assert_loads_as_checked(f, family_symbols(), k, monkeypatch) > 0


def _assert_watches_are_clause_lists(solver):
    """Each clause list sits in the watch lists of its slots 0 and 1, and nothing else is watched."""
    size = len(solver.watches)
    watched = sorted(
        (slot if slot <= solver.n else slot - size, id(entry))
        for slot, entries in enumerate(solver.watches)
        for entry in entries
    )
    assert all(type(entry) is list for entries in solver.watches for entry in entries)
    assert watched == sorted((lit, id(clause)) for clause in solver.clauses for lit in clause[:2])


class TestOneKindOfWatchedClause:
    """No watch list holds an int, after loading and after solving: binary clauses are lists too."""

    @staticmethod
    def _assert_before_and_after_solve(formula):
        solver = _Solver(formula)
        _assert_watches_are_clause_lists(solver)
        result = solver.solve()
        _assert_watches_are_clause_lists(solver)
        return result, solver.learned

    def test_binary_heavy_cnfs(self):
        rng = random.Random(50)
        outcomes, learned = set(), 0
        for _ in range(100):
            result, learned_here = self._assert_before_and_after_solve(binary_heavy_cnf(rng))
            outcomes.add(result.satisfiable)
            learned += learned_here
        assert outcomes == {True, False}
        assert learned > 0

    @pytest.mark.parametrize("formula", _scenario_cnfs())
    def test_bundled_scenarios(self, formula):
        self._assert_before_and_after_solve(formula)


def random_one_hot_cnf(rng, max_vars=30):
    """Disjoint exactly-one blocks of width 1 to 5, each in a random variable order, then random clauses."""
    num_vars = rng.randint(4, max_vars)
    free = rng.sample(range(1, num_vars + 1), num_vars)
    blocks = []
    while free and (not blocks or rng.random() < 0.8):
        width = rng.choice((1, 2, 2, 3, 4, 5))
        blocks.append(tuple(free[:width]))
        del free[:width]
    rest = []
    for _ in range(rng.randint(1, 4 * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), rng.choice((2, 3, 3, 3, 4)))
        rest.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula._numbered(num_vars, tuple(rest), tuple(blocks))


def _grid_cnfs(count):
    """CNFs of seeded grid workcells (``test_exhaustive._grid_text``) at their own bound."""
    rng = random.Random(47)
    for _ in range(count):
        n = rng.choice((2, 3))
        text = _grid_text(rng, n, rng.choice((None, "stop", "slowdown")), rng.randint(1, 2))
        scenario = loads_scenario(text)
        model = compile_scenario(scenario)
        yield encode(conjoin(model.formulas), model.symbols, scenario.bound)[0]


def _counted_search(formula):
    """Result, search counters and learned clauses of _Solver on formula."""
    solver = _Solver(formula)
    loaded = len(solver.clauses)
    result = solver.solve()
    assert solver.learned == len(solver.clauses) - loaded
    counters = (solver.decisions, solver.conflicts, solver.propagations, solver.learned,
                solver.max_level)
    return result, counters, solver.clauses[loaded:]


def _assert_blocks_search_as_clauses(formula):
    """Exactly-one blocks search as their spelled-out clauses do, and as the clause-list solver does."""
    assert formula.one_hot
    plain = CnfFormula(formula.num_vars, formula.clauses)
    assert not plain.one_hot and plain == formula
    run = _counted_search(formula)
    assert run == _counted_search(plain)
    result, (decisions, conflicts, *_), learned = run
    assert (result, decisions, conflicts, learned) == _learned_search(_ClauseListSolver(formula))
    if result.satisfiable:
        assert _model_satisfies(formula, result.model) and _model_satisfies(plain, result.model)
    return result, conflicts


class TestExactlyOneBlocksMatchClauses:
    """The block-native solver decides, conflicts, learns and answers as the full CNF does."""

    def test_random_cnfs_with_blocks(self):
        rng = random.Random(48)
        outcomes = set()
        widths = set()
        conflicts = 0
        for _ in range(300):
            formula = random_one_hot_cnf(rng)
            widths.update(map(len, formula.one_hot))
            result, conflicts_here = _assert_blocks_search_as_clauses(formula)
            outcomes.add(result.satisfiable)
            conflicts += conflicts_here
        assert outcomes == {True, False}
        assert {1, 2, 5} <= widths
        assert conflicts > 100

    def test_grid_workcells(self):
        outcomes = set()
        for formula in _grid_cnfs(12):
            result, _ = _assert_blocks_search_as_clauses(formula)
            outcomes.add(result.satisfiable)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("formula", _scenario_cnfs())
    def test_bundled_scenarios(self, formula):
        _assert_blocks_search_as_clauses(formula)


class TestSearchCounters:
    def test_decisions_only(self):
        solver = _Solver(cnf(3))
        solver.solve()
        assert (solver.decisions, solver.propagations, solver.max_level, solver.learned) == (3, 3, 3, 0)

    def test_level_zero_units(self):
        solver = _Solver(cnf(3, (1,), (-1, 2), (-2, 3)))
        assert solver.solve().satisfiable
        assert (solver.decisions, solver.propagations, solver.max_level, solver.learned) == (0, 3, 0, 0)

    def test_learned_counts_the_clauses_added_after_loading(self):
        rng = random.Random(49)
        learned = 0
        for _ in range(100):
            solver = _Solver(random_3sat(rng, rng.randint(10, 40)))
            loaded = len(solver.clauses)
            result = solver.solve()
            assert solver.learned == len(solver.clauses) - loaded
            assert solver.learned <= solver.conflicts
            assert solver.max_level <= solver.decisions
            if result.satisfiable:
                assert solver.propagations >= solver.n
            learned += solver.learned
        assert learned > 0


def _pinned_search_cnfs():
    """The CNFs ``PINNED_SEARCH_SHA256`` covers, in a fixed order: those ``verify``
    solves for each bundled scenario at k = 0..30, then for 60 seeded workcells
    (``test_encode._random_grid_text``, 3x3 to 5x5) at their own bounds."""
    scenarios = [load_scenario(bundled_scenario_path(name), bound=k)
                 for name in ("handover", "handover_point", "handover_mini", "handover_stop")
                 for k in range(31)]
    rng = random.Random(6300)
    scenarios += [loads_scenario(_random_grid_text(rng, 3 + i % 3)) for i in range(60)]
    for scenario in scenarios:
        model = compile_scenario(scenario)
        if model.violation is not None:
            yield encode(conjoin(model.formulas), model.symbols, scenario.bound)[0]


# SHA-256 over each pinned CNF's search: its model (or none), counters and learned
# clauses, computed at commit 4672df5.  Where ``PINNED_CNFS_SHA256`` pins the CNFs, this pins what
# the solver does with them; a change that alters it must say why in CHANGES.md.
PINNED_SEARCH_SHA256 = "7e0e8505a9c8ecf7ef16aab6835e0b2f551f31c7c042f48acacedce472d64321"


def test_pinned_search():
    digest = hashlib.sha256()
    for formula in _pinned_search_cnfs():
        result, counters, learned = _counted_search(formula)
        model = result.model
        bits = "-" if model is None else "".join("01"[model[v]] for v in range(1, formula.num_vars + 1))
        digest.update(f"{bits} {counters} {learned}\n".encode())
    assert digest.hexdigest() == PINNED_SEARCH_SHA256


def _full_grid_text(rng, n, stop=True):
    """An n x n grid of unit cells with every adjacency, a pick-and-handover task
    and one hazard over the threshold, stop-mitigated unless ``stop`` is False,
    at bound 4n: the task fits, since each of its two legs crosses the grid in
    at most 2(n - 1) moves."""
    names = [[f"R{r}C{c}" for c in range(n)] for r in range(n)]
    cells = [name for row in names for name in row]
    lines = ["[layout]"]
    lines += [f"loc {names[r][c]} box {c} {r} 0 {c + 1} {r + 1} 1" for r in range(n) for c in range(n)]
    lines += [f"adj {names[r][c]} {names[r][c + 1]}" for r in range(n) for c in range(n - 1)]
    lines += [f"adj {names[r][c]} {names[r + 1][c]}" for r in range(n - 1) for c in range(n)]
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi arm g radius 0.05", f"start g {rng.choice(cells)}"]
    lines += ["[task]", f"step g pick {rng.choice(cells)}", f"step handover g h {rng.choice(cells)}"]
    grades = [rng.randint(1, 2) for _ in range(3)]
    lines += ["[hazards]", "hazard hz1 h g sev {} exp {} avoid {}".format(*grades)]
    lines += ["[mitigations]"] + ["mitigate stop hz1"] * stop
    lines += ["[params]", f"bound {4 * n}", f"threshold {sum(grades) - 1}"]
    return "\n".join(lines) + "\n"


def _refutation_counters(scenario):
    """Decisions and conflicts of the solver refuting the scenario at its bound."""
    model = compile_scenario(scenario)
    solver = _Solver(encode(conjoin(model.formulas), model.symbols, scenario.bound)[0])
    assert not solver.solve().satisfiable
    return solver.decisions, solver.conflicts


class _UnitLevelSolver(_Solver):
    """Records the level of each conflict that learns a unit, and checks each
    literal implied by a conflict in which it is alone at the highest level."""

    def __init__(self, cnf):
        super().__init__(cnf)
        self.unit_levels = []
        self.alone = 0

    def _imply_alone(self, conflict, levels):
        super()._imply_alone(conflict, levels)
        alone = self.trail[-1]
        at = sorted(levels)[-2]
        assert self.level[abs(alone)] == at == len(self.trail_lim)
        reason = self.reason[abs(alone)]
        if type(conflict) is tuple:  # a block's pair: the other member implies it
            assert reason == sum(conflict) - alone
        else:  # watched in slots 0 and 1, as a learned clause is
            assert reason is conflict and conflict[0] == alone
            assert self.level[abs(conflict[1])] == at
            watching = [q for q in conflict if any(c is conflict for c in self.watches[q])]
            assert watching == conflict[:2]
        self.alone += 1

    def _analyze(self, conflict):
        learned, back_level = super()._analyze(conflict)
        if len(learned) == 1:
            self.unit_levels.append(len(self.trail_lim))  # _analyze runs at the conflict's level
        return learned, back_level


class TestUnitsBacktrackChronologically:
    """A learned unit undoes only its conflict's level: a stop refutation learns
    a unit per conflict and re-decides nothing, so it costs about k decisions."""

    @pytest.mark.parametrize("bound", [14, 30, 60, 120])
    def test_handover_stop(self, bound):
        scenario = load_scenario(bundled_scenario_path("handover_stop"), bound=bound)
        decisions, conflicts = _refutation_counters(scenario)
        assert conflicts == bound and decisions <= bound

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stop_grids(self, n):
        rng = random.Random(60 + n)
        for _ in range(3):
            scenario = loads_scenario(_full_grid_text(rng, n))
            decisions, conflicts = _refutation_counters(scenario)
            assert conflicts == scenario.bound and decisions <= scenario.bound

    def test_random_cnfs_agree_with_brute_force(self):
        rng = random.Random(51)
        runs = out_of_order = alone = 0
        outcomes = set()
        for _ in range(200):
            for formula in (random_3sat(rng, rng.randint(10, 18), rng.uniform(3.8, 4.8)),
                            random_one_hot_cnf(rng, max_vars=18)):
                solver = _UnitLevelSolver(formula)
                loaded = len(solver.clauses)
                result = solver.solve()
                assert result.satisfiable == brute_force_solve(formula).satisfiable
                if result.satisfiable:
                    assert _model_satisfies(formula, result.model)
                # No learned clause repeats an input or an earlier learned clause.
                learned = [frozenset(clause) for clause in solver.clauses[loaded:]]
                assert len(set(learned)) == len(learned)
                assert set(learned).isdisjoint(map(frozenset, formula.clauses))
                outcomes.add(result.satisfiable)
                runs += 1
                out_of_order += any(level > 1 for level in solver.unit_levels)
                alone += solver.alone
        assert outcomes == {True, False}
        # A unit learned above level 1 sits above the levels it keeps: about 8% of runs.
        assert out_of_order >= runs // 20
        # A literal implied by a conflict alone at its level, about once in 60 runs.
        assert alone >= 3


def _old_model_satisfies(formula, model):
    return all(any(model[abs(l)] == (l > 0) for l in clause) for clause in formula.clauses)


class TestModelCheck:
    """The witness check reads only the input formula and wants a total model."""

    def test_solver_model_accepted(self):
        formula = pigeonhole(3, 3)
        assert _model_satisfies(formula, solve(formula).model)

    def test_flipped_variable_rejected(self):
        formula = cnf(3, (1, 2), (-1, 3), (-2, -3))
        model = {1: True, 2: False, 3: True}
        assert _model_satisfies(formula, model)
        for var in model:
            assert not _model_satisfies(formula, {**model, var: not model[var]})

    def test_missing_variable_rejected(self):
        formula = cnf(3, (1, 2))
        assert not _model_satisfies(formula, {1: True, 2: False})
        assert not _model_satisfies(cnf(1), {})

    def test_extra_variable_rejected(self):
        formula = cnf(2, (1, 2))
        assert not _model_satisfies(formula, {1: True, 2: False, 3: True})
        assert not _model_satisfies(formula, {0: True, 1: True, 2: False})

    def test_agrees_with_the_clause_by_clause_check(self):
        rng = random.Random(45)
        answers = set()
        for _ in range(200):
            formula = random_cnf(rng, max_vars=8, max_clauses=12)
            model = {v: rng.random() < 0.5 for v in range(1, formula.num_vars + 1)}
            answer = _model_satisfies(formula, model)
            assert answer == _old_model_satisfies(formula, model)
            answers.add(answer)
        assert answers == {True, False}

    def test_block_needs_exactly_one_hot_bit(self):
        formula = CnfFormula._numbered(5, ((4, 5),), ((1, 2, 3),))
        model = {1: False, 2: True, 3: False, 4: True, 5: False}
        assert _model_satisfies(formula, model)
        assert not _model_satisfies(formula, {**model, 2: False})  # no hot bit
        assert not _model_satisfies(formula, {**model, 3: True})  # two hot bits
        assert not _model_satisfies(formula, {**model, 1: True, 3: True})  # three

    def test_reads_blocks_without_spelling_them_out(self, monkeypatch):
        formula = CnfFormula._numbered(3, ((-1, 3),), ((1, 2),))
        monkeypatch.setattr(CnfFormula, "clauses", property(lambda self: pytest.fail("spelled out")))
        assert _model_satisfies(formula, solve(formula).model)

    def test_solve_rejects_a_non_model(self, monkeypatch):
        monkeypatch.setattr(_Solver, "solve", lambda self: SolveResult({1: False}))
        with pytest.raises(AssertionError, match="non-model"):
            solve(cnf(1, (1,)))
