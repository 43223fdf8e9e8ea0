"""Evaluation semantics of the temporal core."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverify.logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    FiniteVariable,
    Implies,
    Not,
    Or,
    Som,
    SymbolTable,
    Trace,
    conjoin,
    disjoin,
    _truth_rows,
    evaluate,
    free_symbols,
)
from coverify.encode import check
from coverify.world import bundled_scenario_path, compile_scenario, load_scenario, verify

import frozen_evaluate
from helpers import random_formula, random_trace


def fig1_trace(k=30):
    return Trace(
        k,
        {"start": tuple(t == 5 for t in range(k + 1)), "stop": tuple(t == 8 for t in range(k + 1))},
        {},
    )


def movement_formula():
    start, stop = Atom("start"), Atom("stop")
    return Alw(Implies(start, And(Dist(stop, 3), Not(And(start, stop)))))


class TestEvaluate:
    def test_movement_formula_on_its_intended_history(self):
        assert evaluate(movement_formula(), fig1_trace(), 0) is True

    def test_dist_hits_the_shifted_instant(self):
        assert evaluate(Dist(Atom("stop"), 3), fig1_trace(), 5) is True
        assert evaluate(Dist(Atom("stop"), 3), fig1_trace(), 6) is False

    def test_dist_beyond_bound_is_false(self):
        assert evaluate(Dist(Atom("stop"), 3), fig1_trace(), 28) is False

    def test_negative_dist_reaches_back(self):
        assert evaluate(Dist(Atom("start"), -3), fig1_trace(), 8) is True
        assert evaluate(Dist(Atom("start"), -6), fig1_trace(), 5) is False  # t-6 < 0

    def test_alw_and_som_quantify_the_whole_window(self):
        tr = fig1_trace(10)
        for t in (0, 4, 10):
            assert evaluate(Alw(Atom("start")), tr, t) is False
            assert evaluate(Som(Atom("start")), tr, t) is True

    def test_booleans(self):
        tr = Trace(0, {"a": (True,), "b": (False,)}, {})
        a, b = Atom("a"), Atom("b")
        assert evaluate(And(a, b), tr, 0) is False
        assert evaluate(Or(a, b), tr, 0) is True
        assert evaluate(Implies(b, a), tr, 0) is True
        assert evaluate(Implies(a, b), tr, 0) is False
        assert evaluate(Not(b), tr, 0) is True

    def test_variable_atoms(self):
        tr = Trace(2, {}, {"x": ("L1", "L2", "L2"), "y": ("L2", "L2", "L1")})
        assert evaluate(Eq("x", "L2"), tr, 1) is True
        assert evaluate(Eq("x", "L2"), tr, 0) is False
        assert evaluate(Eq("y", "L2"), tr, 2) is False

    def test_instant_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate(Atom("start"), fig1_trace(5), 6)
        with pytest.raises(ValueError, match="outside"):
            evaluate(Atom("start"), fig1_trace(5), -1)

    def test_missing_symbol(self):
        with pytest.raises(ValueError, match="missing"):
            evaluate(Atom("ghost"), fig1_trace(5), 0)
        with pytest.raises(ValueError, match="missing"):
            evaluate(Eq("ghost", "L1"), fig1_trace(5), 0)


class TestFreeSymbols:
    def test_movement_formula(self):
        assert free_symbols(movement_formula()) == {"start", "stop"}

    def test_single_atom(self):
        assert free_symbols(Atom("p")) == {"p"}

    def test_constants_are_not_symbols(self):
        assert free_symbols(Som(Eq("p_g", "L3"))) == {"p_g"}

    def test_shared_nodes_are_walked_once(self):
        # 2**200 paths from the root, 201 distinct nodes.
        f = Or(Atom("p"), Eq("v", "a"))
        for _ in range(200):
            f = And(f, Dist(f, 1))
        assert free_symbols(f) == {"p", "v"}

    def test_non_formula_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a formula"):
            free_symbols(And(Atom("p"), "q"))


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def _random_shared_formula(rng, depth):
    """A random formula in which, two draws in three, one subformula object occurs twice."""
    shared = random_formula(rng, depth)
    op = rng.choice((And, Or, Implies))
    kind = rng.randrange(3)
    if kind == 0:
        return op(shared, Dist(shared, rng.randint(-3, 3)))
    if kind == 1:
        return op(Not(shared), Som(shared))
    return shared


class TestMatchesFrozenEvaluator:
    """The bit-row evaluator agrees with the tuple-row one it replaced (tests/frozen_evaluate.py)."""

    def test_random_formulas_at_every_instant(self):
        rng = random.Random(2024)
        compared = 0
        for draw in range(2400):
            f = random_formula(rng, 4) if draw % 2 else _random_shared_formula(rng, 3)
            k = rng.randint(0, 8)
            tr = random_trace(rng, k)
            for t in range(k + 1):
                assert evaluate(f, tr, t) is frozen_evaluate.evaluate(f, tr, t), (f, tr, t)
                compared += 1
        assert compared > 10_000

    @pytest.mark.parametrize("name", ["handover", "handover_mini", "handover_point", "handover_stop"])
    @pytest.mark.parametrize("k", [14, 30])
    def test_compiled_axioms_and_violation_on_witnesses(self, name, k):
        scenario = replace(load_scenario(bundled_scenario_path(name)), bound=k)
        model = compile_scenario(scenario)
        trace = verify(scenario).trace
        if trace is None:  # SAFE: a trace of the axioms alone stands in for the witness
            trace = check(conjoin(a.formula for a in model.axioms), model.symbols, k)
        assert trace is not None
        formulas = [*(a.formula for a in model.axioms), conjoin(model.formulas)]
        if model.violation is not None:
            formulas.append(model.violation)
        rows = _truth_rows(trace, {})
        for f in formulas:
            old = frozen_evaluate._truth_row(f, trace, {})
            assert [bool(rows(f) >> t & 1) for t in range(k + 1)] == [bool(v) for v in old], str(f)

    def test_same_errors(self):
        tr = random_trace(random.Random(5), 3)
        cases = [
            (Atom("ghost"), 0),
            (And(Atom("p"), Atom("ghost")), 1),
            (Eq("ghost", "a"), 0),
            (Som(Dist(Eq("ghost", "a"), 2)), 0),
            ("p", 0),
            (And(Atom("p"), 3), 0),
            (Not(None), 1),
            (Atom("p"), 4),
            (Atom("p"), -1),
            (Atom("ghost"), 9),
            # Two bad operands in one chain: the leftmost one raises, as in the recursion.
            (And(Atom("ghost"), And(Atom("p"), 3)), 0),
            (Or(Or(Atom("p"), 3), Atom("ghost")), 0),
            (And(And(Atom("p"), Not(None)), And(Atom("ghost"), Atom("p"))), 0),
        ]
        for f, t in cases:
            expected = _outcome(frozen_evaluate.evaluate, f, tr, t)
            assert isinstance(expected, tuple), (f, t)
            assert _outcome(evaluate, f, tr, t) == expected, (f, t)


def _chain(op, depth, side):
    """A ``depth``-long chain of ``op`` built through the API: nested on one side, or zigzag."""
    f = Atom("p")
    for i in range(depth):
        operand = Atom("q") if i % 2 else Eq("v", "a")
        if side == "left" or (side == "zigzag" and i % 2):
            f = op(f, operand)
        else:
            f = op(operand, f)
    return f


class TestDeepChains:
    """API-built formulas deeper than the recursion limit walk, evaluate, encode and check."""

    @pytest.mark.parametrize("op", [And, Or])
    @pytest.mark.parametrize("side", ["left", "right", "zigzag"])
    def test_three_thousand_deep(self, op, side):
        f = _chain(op, 3000, side)
        assert free_symbols(f) == {"p", "q", "v"}
        tr = Trace(2, {"p": (True, True, False), "q": (True, False, True)}, {"v": ("a", "a", "b")})
        combine = all if op is And else any
        expected = [combine((p, q, v == "a")) for p, q, v in zip(*tr.propositions.values(), tr.variables["v"])]
        assert [evaluate(f, tr, t) for t in range(3)] == expected
        table = SymbolTable()
        table.add_proposition("p")
        table.add_proposition("q")
        table.add_variable("v", ("a", "b"))
        witness = check(f, table, 2)
        assert witness is not None and evaluate(f, witness, 0)

    @pytest.mark.parametrize("nest", [
        lambda f: Not(And(Atom("q"), f)),  # Not(And(q, Not(And(q, ...))))
        lambda f: Implies(Atom("q"), f),  # Implies(q, Implies(q, ...)), nested on the right
    ], ids=["not-and", "implies"])
    def test_three_thousand_deep_through_other_connectives(self, nest):
        # Both nestings of an even depth mean "q implies p" at every instant.
        f = Atom("p")
        for _ in range(3000):
            f = nest(f)
        tr = Trace(2, {"p": (True, True, False), "q": (True, False, True)}, {"v": ("a", "a", "b")})
        assert [evaluate(f, tr, t) for t in range(3)] == [True, True, False]
        table = SymbolTable()
        table.add_proposition("p")
        table.add_proposition("q")
        witness = check(f, table, 2)
        assert witness is not None and evaluate(f, witness, 0)
        assert check(And(f, And(Atom("q"), Not(Atom("p")))), table, 2) is None

    def test_shared_spine_nodes_are_evaluated_once(self):
        # Each node of the And spine is also under a Dist: 2**200 paths, 201 distinct rows.
        f = Or(Atom("p"), Eq("v", "a"))
        for _ in range(200):
            f = And(f, Dist(f, 1))
        rng = random.Random(11)
        for _ in range(20):
            tr = random_trace(rng, rng.randint(0, 6))
            for t in range(tr.bound + 1):
                assert evaluate(f, tr, t) is frozen_evaluate.evaluate(f, tr, t)


class TestProperties:
    def test_dist_composition(self):
        rng = random.Random(7)
        k = 6
        for _ in range(300):
            f = random_formula(rng, 2)
            tr = random_trace(rng, k)
            d1, d2 = rng.randint(-2, 2), rng.randint(-2, 2)
            for t in range(k + 1):
                if 0 <= t + d1 <= k and 0 <= t + d1 + d2 <= k:
                    assert evaluate(Dist(Dist(f, d2), d1), tr, t) == evaluate(
                        Dist(f, d1 + d2), tr, t
                    )

    def test_alw_som_position_independence(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_formula(rng, 2)
            tr = random_trace(rng, 5)
            values_alw = {evaluate(Alw(f), tr, t) for t in range(6)}
            values_som = {evaluate(Som(f), tr, t) for t in range(6)}
            assert len(values_alw) == 1
            assert len(values_som) == 1

    def test_alw_som_duality(self):
        rng = random.Random(9)
        for _ in range(200):
            f = random_formula(rng, 2)
            tr = random_trace(rng, 4)
            assert evaluate(Not(Alw(f)), tr, 0) == evaluate(Som(Not(f)), tr, 0)

    def test_rewrites_preserve_evaluation_on_1000_random_pairs(self):
        rng = random.Random(10)
        checked = 0
        while checked < 1000:
            f = random_formula(rng, 3)
            tr = random_trace(rng, rng.randint(0, 6))
            t = rng.randint(0, tr.bound)
            g = _rewrite(f)
            assert evaluate(f, tr, t) == evaluate(g, tr, t)
            checked += 1

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_dist_out_of_window_is_false(self, t, d):
        tr = Trace(5, {"p": (True,) * 6}, {})
        expected = 0 <= t + d <= 5
        assert evaluate(Dist(Atom("p"), d), tr, t) is expected


def _rewrite(f):
    """De Morgan / double negation, applied recursively."""
    if isinstance(f, Not):
        inner = f.operand
        if isinstance(inner, Not):
            return _rewrite(inner.operand)
        if isinstance(inner, And):
            return Or(_rewrite(Not(inner.left)), _rewrite(Not(inner.right)))
        if isinstance(inner, Or):
            return And(_rewrite(Not(inner.left)), _rewrite(Not(inner.right)))
        return Not(_rewrite(inner))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_rewrite(f.left), _rewrite(f.right))
    if isinstance(f, (Alw, Som)):
        return type(f)(_rewrite(f.operand))
    if isinstance(f, Dist):
        return Dist(_rewrite(f.operand), f.offset)
    return f


class TestStructures:
    def test_symbol_table_rejects_duplicates(self):
        table = SymbolTable()
        table.add_proposition("p")
        with pytest.raises(ValueError, match="already declared"):
            table.add_variable("p", ("a",))

    def test_variable_needs_distinct_values(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteVariable("v", ("a", "a"))

    def test_trace_requires_total_assignment(self):
        with pytest.raises(ValueError, match="expected 3"):
            Trace(2, {"p": (True, False)}, {})

    def test_conjoin_disjoin(self):
        tr = Trace(0, {"a": (True,), "b": (True,), "c": (False,)}, {})
        fs = [Atom("a"), Atom("b"), Atom("c")]
        assert evaluate(conjoin(fs), tr, 0) is False
        assert evaluate(disjoin(fs), tr, 0) is True
        assert conjoin([Atom("a")]) == Atom("a")
        with pytest.raises(ValueError):
            conjoin([])
