"""SAT core: solver correctness against the exhaustive oracle, DIMACS I/O."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverify.encode import encode
from coverify.logic import conjoin
from coverify.sat import (
    _UNDEF,
    CnfFormula,
    DimacsError,
    _Solver,
    brute_force_solve,
    read_dimacs,
    solve,
    write_dimacs,
)
from coverify.world import bundled_scenario_path, compile_scenario, load_scenario


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


class _LinearScanSolver(_Solver):
    """Reference decision rule: scan every variable, keep the first of highest activity."""

    def _decide(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self.n + 1):
            if self.value[var] == _UNDEF and self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        return -best_var  # phase: false first


def _search(solver_cls, formula, **settings):
    solver = solver_cls(formula)
    for name, value in settings.items():
        setattr(solver, name, value)
    result = solver.solve()
    return solver, (result, solver.decisions, solver.conflicts, solver.clauses)


def _assert_same_search(formula, **settings):
    """The heap solver decides, conflicts and learns exactly as the linear scan does."""
    heap_solver, heap_run = _search(_Solver, formula, **settings)
    _, scan_run = _search(_LinearScanSolver, formula, **settings)
    assert heap_run == scan_run
    # At most one live order-heap entry per variable, and the stale ones stay bounded.
    live = [var for key, var in heap_solver.heap if heap_solver.heap_key[var] == key]
    assert len(live) == len(set(live))
    assert len(heap_solver.heap) <= 2 * formula.num_vars
    return heap_solver


def _scenario_cnfs():
    """CNFs of every bundled scenario at its own bound and at k=30, without repeats."""
    seen = set()
    for name in ("handover", "handover_point", "handover_mini", "handover_stop"):
        scenario = load_scenario(bundled_scenario_path(name))
        model = compile_scenario(scenario)
        for bound in (scenario.bound, 30):
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
