"""Bounded encoder: structure, soundness, and agreement with enumeration."""

import gc
import hashlib
import importlib
import random
from itertools import chain

import pytest

from coverify.encode import EncodingError, VarMap, _Encoder, check, decode, encode
from coverify.exhaustive import exhaustive_verify
from coverify.logic import (
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
    Proposition,
    Som,
    SymbolTable,
    _truth_rows,
    conjoin,
    evaluate,
    free_symbols,
)
from coverify.sat import CnfFormula, solve, write_dimacs
from coverify.world import (
    DEFAULT_BOUND,
    bundled_scenario_path,
    compile_scenario,
    load_scenario,
    loads_scenario,
    over_speeds,
    verify,
)

import test_exhaustive
from helpers import brute_force_check, family_symbols, formula_family, random_formula

# The package re-exports the function `encode` under the submodule's name.
encode_module = importlib.import_module("coverify.encode")


@pytest.fixture
def pq_symbols():
    table = SymbolTable()
    table.add_proposition("p")
    table.add_proposition("q")
    return table


class TestVarMap:
    def test_one_variable_per_proposition_instant(self, pq_symbols):
        _, vm = encode(Atom("p"), pq_symbols, 2)
        assert vm.prop_rows == {"p": [1, 2, 3]}

    def test_covers_every_declared_symbol(self):
        # q and v are declared but unread: no variable, and the witness holds
        # each at its fixed value while still satisfying the formula.
        table = SymbolTable()
        table.add_proposition("p")
        table.add_proposition("q")
        table.add_variable("v", ("b", "a"))
        f = Not(Atom("p"))
        cnf, vm = encode(f, table, 1)
        assert vm.prop_rows == {"p": [1, 2]}
        assert vm.value_rows == {}
        assert cnf.num_vars == 2
        trace = check(f, table, 1)
        assert trace.propositions["q"] == (False, False)
        assert trace.variables["v"] == ("b", "b")
        assert set(trace.symbol_names) == {"p", "q", "v"}
        assert evaluate(f, trace, 0)

    def test_one_hot_block_shape(self):
        table = SymbolTable()
        table.add_variable("v", ("a", "b", "c"))
        cnf, vm = encode(Eq("v", "a"), table, 1)
        assert [len(vm.value_rows["v", value]) for value in ("a", "b", "c")] == [2, 2, 2]
        bits0 = [vm.value_rows["v", value][0] for value in ("a", "b", "c")]
        clauses = set(cnf.clauses)
        assert tuple(bits0) in clauses  # at-least-one
        assert (-bits0[0], -bits0[1]) in clauses  # pairwise at-most-one
        assert (-bits0[0], -bits0[2]) in clauses
        assert (-bits0[1], -bits0[2]) in clauses

    def test_injective(self, pq_symbols):
        enc = _Encoder(pq_symbols, 3, {"p", "q"})
        row = enc.lits(And(Atom("p"), Atom("q")), True)
        ids = [*chain(*enc.prop_rows.values(), *enc.value_rows.values()), *(a for (a,) in row)]
        assert len(ids) == len(set(ids))

    def test_size_bound(self):
        # variables <= (k+1) * (#props + sum of domain sizes + #occurrences)
        table = family_symbols()
        for f in formula_family()[:60]:
            k = 3
            cnf, _ = encode(f, table, k)
            occurrences = _count_nodes(f)
            assert cnf.num_vars <= (k + 1) * (2 + 2 + occurrences)


class TestClauseShape:
    """Axiom shapes become plain clauses: no variable beyond the symbol blocks."""

    @pytest.fixture
    def pqr_symbols(self):
        table = SymbolTable()
        for name in ("p", "q", "r"):
            table.add_proposition(name)
        return table

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_implied_disjunction_is_one_clause_per_instant(self, pqr_symbols, k):
        cnf, vm = encode(Alw(Implies(Atom("p"), Or(Atom("q"), Atom("r")))), pqr_symbols, k)
        p, q, r = ([vm.prop_rows[name][t] for t in range(k + 1)] for name in "pqr")
        assert cnf.num_vars == 3 * (k + 1)
        assert sorted(cnf.clauses) == sorted((-p[t], q[t], r[t]) for t in range(k + 1))

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_implied_conjunction_is_distributed(self, pqr_symbols, k):
        f = Alw(Implies(Atom("p"), And(Atom("q"), Dist(Atom("r"), -1))))
        cnf, vm = encode(f, pqr_symbols, k)
        p, q, r = ([vm.prop_rows[name][t] for t in range(k + 1)] for name in "pqr")
        # At instant 0 the Dist is false, so p must be too.
        expected = [(-p[t], q[t]) for t in range(k + 1)]
        expected += [(-p[0],)] + [(-p[t], r[t - 1]) for t in range(1, k + 1)]
        assert cnf.num_vars == 3 * (k + 1)
        assert sorted(cnf.clauses) == sorted(expected)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_asserted_dist_past_the_window_is_unsat(self, k):
        table = family_symbols()
        f = Dist(Atom("p"), k + 1)
        _assert_cnf_invariants(encode(f, table, k)[0])  # no empty clause either
        assert check(f, table, k) is None
        assert brute_force_check(f, k) is False


def _assert_cnf_invariants(cnf: CnfFormula) -> None:
    """What the public CnfFormula constructor checks or establishes, which encode's
    hand-over skips: literals in range, and no clause repeating a variable."""
    assert type(cnf.clauses) is tuple
    assert all(type(clause) is tuple and clause for clause in cnf.clauses)
    assert all(len(set(map(abs, clause))) == len(clause) for clause in cnf.clauses)
    literals = set(chain.from_iterable(cnf.clauses))
    assert all(type(lit) is int for lit in literals)
    assert 0 not in literals
    assert max(map(abs, literals), default=0) <= cnf.num_vars
    assert CnfFormula(cnf.num_vars, cnf.clauses) == cnf


class TestEncodedCnfInvariants:
    """encode numbers every literal itself and hands its CNF over unchecked."""

    @pytest.mark.parametrize("name", ["handover", "handover_mini", "handover_point", "handover_stop"])
    def test_bundled_scenarios_at_bounds_0_to_30(self, name):
        scenario = load_scenario(bundled_scenario_path(name))
        model = compile_scenario(scenario)
        f = conjoin(model.formulas)
        for k in range(31):
            _assert_cnf_invariants(encode(f, model.symbols, k)[0])

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_generated_family(self, k):
        table = family_symbols()
        for f in formula_family():
            _assert_cnf_invariants(encode(f, table, k)[0])


class TestFragmentsRepeatNoVariable:
    """No fragment repeats a variable: a join that may is tidied where it is built."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_random_formulas(self, k):
        table = family_symbols()
        rng = random.Random(9100 + k)
        for _ in range(300):
            f = random_formula(rng, rng.choice((4, 6)))
            enc = _Encoder(table, k, free_symbols(f))
            enc.lits(f, True)
            enc.lits(f, False)
            enc.assert_formula(f)
            for row in enc._lits.values():
                for frag in row:
                    assert frag is None or len(set(map(abs, frag))) == len(frag), f"{f} at k={k}"

    def test_a_disjunction_that_holds_anyway_spends_no_variable(self):
        # "p or not p" is None, so the conjunction under Som is q alone and owns no variable.
        f = Som(And(Atom("q"), Or(Atom("p"), Not(Atom("p")))))
        cnf, vm = encode(f, family_symbols(), 0)
        assert cnf.num_vars == 2
        assert cnf.clauses == ((vm.prop_rows["q"][0],),)


def _count_nodes(f):
    from coverify.logic import And as A, Or as O, Implies as I, Not as N, Alw as Al, Som as S, Dist as D

    if isinstance(f, (N, Al, S, D)):
        return 1 + _count_nodes(f.operand)
    if isinstance(f, (A, O, I)):
        return 1 + _count_nodes(f.left) + _count_nodes(f.right)
    return 1


class TestCheck:
    def test_conjunction_at_bound_zero(self, pq_symbols):
        witness = check(And(Atom("p"), Atom("q")), pq_symbols, 0)
        assert witness is not None
        assert witness.propositions == {"p": (True,), "q": (True,)}

    def test_conjunction_model_is_unique(self, pq_symbols):
        cnf, vm = encode(And(Atom("p"), Atom("q")), pq_symbols, 0)
        # pinning either proposition false must kill satisfiability
        for name in ("p", "q"):
            pinned = type(cnf)(cnf.num_vars, cnf.clauses + ((-vm.prop_rows[name][0],),))
            assert solve(pinned).satisfiable is False

    def test_movement_formula_has_witness_at_default_bound(self):
        table = SymbolTable()
        table.add_proposition("start")
        table.add_proposition("stop")
        from coverify.parsing import parse_formula

        f = parse_formula("Alw(start -> Dist(stop,3) & !(start & stop))", table)
        witness = check(f, table, DEFAULT_BOUND)  # a scenario's default bound
        assert witness is not None
        assert witness.bound == DEFAULT_BOUND
        assert evaluate(f, witness, 0) is True

    def test_contradiction_unsat(self, pq_symbols):
        assert check(Alw(And(Atom("p"), Not(Atom("p")))), pq_symbols, 4) is None

    def test_som_alw_conflict_unsat(self, pq_symbols):
        f = And(Som(Atom("p")), Alw(Not(Atom("p"))))
        assert check(f, pq_symbols, 5) is None

    def test_undeclared_symbol_rejected(self, pq_symbols):
        with pytest.raises(ValueError, match="undeclared"):
            check(Atom("ghost"), pq_symbols, 2)

    def test_witnesses_satisfy_evaluator(self):
        # soundness assertion of check on a spread of satisfiable formulas
        table = family_symbols()
        for f in formula_family()[:80]:
            witness = check(f, table, 4)
            if witness is not None:
                assert evaluate(f, witness, 0) is True


class TestDeepNesting:
    """encode and check keep their own stacks: no nesting is too deep for them."""

    @staticmethod
    def _dist_chain(depth: int, innermost: int) -> Formula:
        """``Dist(..., 0)`` nested depth times over p, the innermost at offset ``innermost``."""
        f = Dist(Atom("p"), innermost)
        for _ in range(depth - 1):
            f = Dist(f, 0)
        return f

    @pytest.mark.parametrize("innermost, clauses", [(0, ((1, 4),)), (1, ((1, -2), (1, 4)))])
    def test_distributed_clause_compares_distinct_chains(self, pq_symbols, innermost, clauses):
        # The clause "A or not B" holds, and is dropped, exactly when B equals A;
        # A and B are distinct objects, so telling that compares them level by level.
        for depth in (3, 3000):
            a, b = self._dist_chain(depth, 0), self._dist_chain(depth, innermost)
            f = Or(a, And(Not(b), Atom("q")))
            cnf, _ = encode(f, pq_symbols, 2)
            assert (cnf.num_vars, cnf.clauses) == (6, clauses)
            assert check(f, pq_symbols, 2) is not None


class TestDecode:
    def test_direct_read_off(self, pq_symbols):
        cnf, vm = encode(Atom("p"), pq_symbols, 2)
        model = {v: False for v in range(1, cnf.num_vars + 1)}
        model[vm.prop_rows["p"][0]] = True
        model[vm.prop_rows["p"][2]] = True
        trace = decode(model, vm, pq_symbols)
        assert trace.propositions["p"] == (True, False, True)

    def test_one_hot_read_off(self):
        table = SymbolTable()
        table.add_variable("p_x", ("L1", "L2", "L3"))
        cnf, vm = encode(Eq("p_x", "L1"), table, 0)
        model = {v: False for v in range(1, cnf.num_vars + 1)}
        model[vm.value_rows["p_x", "L2"][0]] = True
        assert decode(model, vm, table).variables["p_x"] == ("L2",)

    def test_one_hot_violation_is_an_encoder_bug(self):
        table = SymbolTable()
        table.add_variable("p_x", ("L1", "L2"))
        cnf, vm = encode(Eq("p_x", "L1"), table, 0)
        model = {v: True for v in range(1, cnf.num_vars + 1)}
        with pytest.raises(EncodingError, match="one-hot"):
            decode(model, vm, table)


class TestAgreementWithEnumeration:
    """check() against the evaluator-backed trace enumeration (quick subset;
    the full family sweep is an acceptance criterion)."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_family_subset(self, k):
        table = family_symbols()
        for f in formula_family()[:120]:
            expected = brute_force_check(f, k)
            assert (check(f, table, k) is not None) == expected, f"{f} at k={k}"

    def test_monotone_bound_growth_without_alw(self):
        table = family_symbols()
        examined = 0
        for f in formula_family():
            if _contains_alw(f):
                continue
            if check(f, table, 3) is not None:
                assert check(f, table, 4) is not None, f"witness for {f} did not extend"
                examined += 1
        assert examined > 50


def _contains_alw(f):
    if isinstance(f, Alw):
        return True
    if isinstance(f, (Not, Som, Dist)):
        return _contains_alw(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return _contains_alw(f.left) or _contains_alw(f.right)
    return False


class TestPredicateValuesInWitness:
    def test_root_fragments_sound_at_every_instant(self):
        # One-sided definitions leave composite nodes no exact value; every
        # fragment that holds in a model must still agree with evaluate.
        table = family_symbols()
        f = Implies(Som(Atom("p")), And(Atom("q"), Dist(Atom("p"), 1)))
        for k in range(5):
            assert _assert_fragments_sound(f, table, k) > 0


# ---------------------------------------------------------------------------
# The encoder against the per-instant one with a definition per node and instant.


class _ReferenceEncoder:
    """The per-instant encoder with full definitions everywhere, frozen as the reference.

    Only the symbols in ``read`` are numbered, in declaration order.  Every
    composite node, ``Not``, ``Dist`` and the quantifiers included, gets one
    variable per instant bi-implied to its definition.  One recursive
    ``literal`` call per (node, instant); a composite node is numbered and
    defined the first time any instant of it is asked for.
    """

    def __init__(self, symbols: SymbolTable, k: int, read: set[str]):
        if k < 0:
            raise ValueError("bound must be >= 0")
        self.symbols = symbols
        self.k = k
        self.next_var = 1
        self.prop_vars: dict[tuple[str, int], int] = {}
        self.value_vars: dict[tuple[str, int, str], int] = {}
        self.node_vars: dict[tuple[int, int], int] = {}
        self.clauses: list[tuple[int, ...]] = []
        self._node_ids: dict[int, int] = {}
        self._defined: set[int] = set()
        self._read_variables = [var for var in symbols.variables if var.name in read]

        for prop in symbols.propositions:
            if prop.name in read:
                for t in range(k + 1):
                    self.prop_vars[(prop.name, t)] = self._fresh()
        for var in self._read_variables:
            for t in range(k + 1):
                for value in var.domain:
                    self.value_vars[(var.name, t, value)] = self._fresh()
        self._emit_exactly_one()

    def _fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def _emit_exactly_one(self) -> None:
        for var in self._read_variables:
            for t in range(self.k + 1):
                bits = [self.value_vars[(var.name, t, value)] for value in var.domain]
                self.clauses.append(tuple(bits))
                for i in range(len(bits)):
                    for j in range(i + 1, len(bits)):
                        self.clauses.append((-bits[i], -bits[j]))

    def _variable(self, name: str) -> FiniteVariable:
        symbol = self.symbols.lookup(name)
        if not isinstance(symbol, FiniteVariable):
            raise ValueError(f"{name!r} is not a declared finite variable")
        return symbol

    def _node_key(self, f: Formula) -> int:
        key = self._node_ids.get(id(f))
        if key is None:
            key = len(self._node_ids)
            self._node_ids[id(f)] = key
        return key

    def literal(self, f: Formula, t: int) -> int:
        """Signed literal equivalent to 'f holds at t', defining clauses emitted once."""
        if isinstance(f, Atom):
            symbol = self.symbols.lookup(f.name)
            if not isinstance(symbol, Proposition):
                raise ValueError(f"{f.name!r} is not a declared proposition")
            return self.prop_vars[(f.name, t)]
        if isinstance(f, Eq):
            var = self._variable(f.var)
            if f.value not in var.domain:
                raise ValueError(f"{f.value!r} is not in the domain of {f.var!r}")
            return self.value_vars[(f.var, t, f.value)]
        return self._node_literal(f, t)

    def _node_literal(self, f: Formula, t: int) -> int:
        key = self._node_key(f)
        if key not in self._defined:
            self._defined.add(key)
            for u in range(self.k + 1):
                self.node_vars[(key, u)] = self._fresh()
            self._define(f, key)
        return self.node_vars[(key, t)]

    def _define(self, f: Formula, key: int) -> None:
        k = self.k
        own = [self.node_vars[(key, t)] for t in range(k + 1)]

        if isinstance(f, Not):
            for t in range(k + 1):
                sub = self.literal(f.operand, t)
                self.clauses.append((-own[t], -sub))
                self.clauses.append((own[t], sub))
        elif isinstance(f, And):
            for t in range(k + 1):
                a, b = self.literal(f.left, t), self.literal(f.right, t)
                self.clauses.append((-own[t], a))
                self.clauses.append((-own[t], b))
                self.clauses.append((own[t], -a, -b))
        elif isinstance(f, Or):
            for t in range(k + 1):
                a, b = self.literal(f.left, t), self.literal(f.right, t)
                self.clauses.append((-own[t], a, b))
                self.clauses.append((own[t], -a))
                self.clauses.append((own[t], -b))
        elif isinstance(f, Implies):
            for t in range(k + 1):
                a, b = self.literal(f.left, t), self.literal(f.right, t)
                self.clauses.append((-own[t], -a, b))
                self.clauses.append((own[t], a))
                self.clauses.append((own[t], -b))
        elif isinstance(f, Dist):
            for t in range(k + 1):
                target = t + f.offset
                if 0 <= target <= k:
                    sub = self.literal(f.operand, target)
                    self.clauses.append((-own[t], sub))
                    self.clauses.append((own[t], -sub))
                else:
                    self.clauses.append((-own[t],))
        elif isinstance(f, (Alw, Som)):
            subs = [self.literal(f.operand, u) for u in range(k + 1)]
            head = own[0]
            if isinstance(f, Alw):
                for sub in subs:
                    self.clauses.append((-head, sub))
                self.clauses.append((head, *[-sub for sub in subs]))
            else:
                self.clauses.append((-head, *subs))
                for sub in subs:
                    self.clauses.append((head, -sub))
            # Quantifiers are instant-independent: chain the other copies.
            for t in range(1, k + 1):
                self.clauses.append((-own[t], head))
                self.clauses.append((own[t], -head))
        else:
            raise TypeError(f"not a formula: {f!r}")


def _reference_encode(f: Formula, symbols: SymbolTable, k: int) -> tuple[CnfFormula, VarMap]:
    read = free_symbols(f)
    for name in sorted(read):
        if name not in symbols:
            raise ValueError(f"undeclared symbol {name!r} in formula")
    enc = _ReferenceEncoder(symbols, k, read)
    root = enc.literal(f, 0)
    enc.clauses.append((root,))
    cnf = CnfFormula(enc.next_var - 1, tuple(enc.clauses))
    # The reference keeps its own (symbol, instant) numbering; VarMap holds it as rows.
    prop_rows: dict[str, list[int]] = {}
    value_rows: dict[tuple[str, str], list[int]] = {}
    for (name, _), v in enc.prop_vars.items():  # filled instant by instant
        prop_rows.setdefault(name, []).append(v)
    for (name, _, value), v in enc.value_vars.items():
        value_rows.setdefault((name, value), []).append(v)
    return cnf, VarMap(k, prop_rows, value_rows)


def _assert_same_satisfiability(
    f: Formula, symbols: SymbolTable, k: int, brute_force: bool
) -> None:
    """Symbols numbered as by the reference, and the same answer as its CNF (and enumeration)."""
    (cnf, vm), (ref_cnf, ref_vm) = encode(f, symbols, k), _reference_encode(f, symbols, k)
    for name in ("prop_rows", "value_rows"):
        assert list(getattr(vm, name).items()) == list(getattr(ref_vm, name).items())
    satisfiable = solve(cnf).satisfiable
    assert satisfiable == solve(ref_cnf).satisfiable, f"{f} at k={k}"
    if brute_force and k <= 2:
        assert satisfiable == brute_force_check(f, k), f"{f} at k={k}"


def _assert_fragments_sound(f: Formula, symbols: SymbolTable, k: int) -> int:
    """In models of f's clauses, each fragment that holds gives its node its polarity.

    A fragment of ``lits(g, pos)`` at instant t holds when one of its literals
    is true, or when it is None.  A clause joining the root's two fragments at
    every instant makes some of them hold.  The solver decides variables false
    first, so a second solve flips every variable the formula owns: its model
    sets as many of them true as it can.  Returns how many fragments held.
    """
    enc = _Encoder(symbols, k, free_symbols(f))
    for pos_frag, neg_frag in zip(enc.lits(f, True), enc.lits(f, False)):
        if pos_frag is not None and neg_frag is not None:
            enc.clauses.append(pos_frag + neg_frag)
    vm = VarMap(k, enc.prop_rows, enc.value_rows)
    num_vars = enc.next_var - 1
    blocks = list(CnfFormula._numbered(num_vars, (), tuple(enc.one_hot)).clauses)
    first_owned = sum(map(len, chain(vm.prop_rows.values(), vm.value_rows.values()))) + 1
    held = 0
    for flip in (1, -1):
        def turn(lit: int) -> int:
            return lit * flip if abs(lit) >= first_owned else lit

        # The one-hot blocks read only symbol variables, which no flip turns.  The
        # joined root fragments repeat variables, so the public constructor drops
        # the repeats and the tautologies.
        clauses = tuple(tuple(map(turn, c)) for c in blocks + enc.clauses)
        result = solve(CnfFormula(num_vars, clauses))
        assert result.satisfiable, f"{f} at k={k}"
        true = {turn(v if value else -v) for v, value in result.model.items()}
        trace = decode({abs(lit): lit > 0 for lit in true}, vm, symbols)
        truth: dict[int, int] = {}  # id of a node -> evaluate at every instant, bit t for t
        _truth_rows(trace, truth)(f)
        for (key, pos), row in enc._lits.items():
            if type(key) is int:  # any node but an atom is keyed on its id
                bits = truth[key]
            else:  # an atom on its row's key in VarMap: a proposition's name, a (variable, value) pair
                bits = _truth_rows(trace, {})(Atom(key) if type(key) is str else Eq(*key))
            for t, frag in enumerate(row):
                if frag is None or not true.isdisjoint(frag):
                    assert (bits >> t & 1) == pos, f"{f} at k={k}, instant {t}"
                    held += 1
    return held


def _assert_matches_reference(
    f: Formula, symbols: SymbolTable, k: int, brute_force: bool = True
) -> None:
    _assert_same_satisfiability(f, symbols, k, brute_force)
    _assert_fragments_sound(f, symbols, k)


def _random_negated_formula(rng: random.Random, depth: int) -> Formula:
    """Like ``random_formula``, but most connectives and quantifiers sit under a Not."""
    if depth <= 0 or rng.random() < 0.2:
        return random_formula(rng, 0)
    kind = rng.choice((And, Or, Implies, Alw, Som, Dist))
    if kind in (Alw, Som):
        f = kind(_random_negated_formula(rng, depth - 1))
    elif kind is Dist:
        f = Dist(_random_negated_formula(rng, depth - 1), rng.randint(-2, 2))
    else:
        f = kind(_random_negated_formula(rng, depth - 1), _random_negated_formula(rng, depth - 1))
    return Not(f) if rng.random() < 0.6 else f


def _integer_symbols() -> SymbolTable:
    table = SymbolTable()
    table.add_proposition("p")
    table.add_variable("x", ("0", "1", "2"))
    table.add_variable("y", ("1", "2", "3", "a"))
    table.add_variable("z", ("0", "4"))
    return table


BUNDLED = ("handover", "handover_mini", "handover_point", "handover_stop")


class TestMatchesReferenceEncoder:
    @pytest.mark.parametrize("k", range(5))
    def test_random_formulas(self, k):
        table = family_symbols()
        rng = random.Random(5000 + k)
        for _ in range(300):
            _assert_matches_reference(random_formula(rng, 4), table, k)

    @pytest.mark.parametrize("k", range(4))
    def test_negated_shapes(self, k):
        table = family_symbols()
        rng = random.Random(7000 + k)
        for _ in range(150):
            _assert_matches_reference(_random_negated_formula(rng, 4), table, k)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_shared_subformula_object(self, k):
        table = family_symbols()
        shared = And(Atom("p"), Dist(Eq("v", "a"), 1))
        for f in (
            Or(Alw(shared), Not(shared)),
            Implies(shared, Som(shared)),
            And(Dist(shared, -(k + 1)), Dist(shared, 1)),  # first use never defines it
        ):
            _assert_matches_reference(f, table, k)

    @pytest.mark.parametrize("k", range(5))
    def test_dist_at_and_past_the_window_edge(self, k):
        table = family_symbols()
        operand = Or(Atom("q"), Not(Atom("p")))
        for d in (-(k + 2), -(k + 1), -k, 0, k, k + 1, k + 2):
            _assert_matches_reference(Dist(operand, d), table, k)
            _assert_matches_reference(And(Dist(operand, d), Som(operand)), table, k)
        # An operand past the window is never defined, so an invalid one is never looked at.
        unreachable = Or(Atom("p"), Dist(Atom("v"), k + 1))
        _assert_same_satisfiability(unreachable, table, k, brute_force=False)

    @pytest.mark.parametrize("k", [0, 2])
    def test_value_comparisons(self, k):
        """p holds iff two variables are equal, stated value by value as the hazard axioms do."""
        table = _integer_symbols()

        def same(a: str, b: str) -> Formula:
            other = table.lookup(b).domain
            clauses = []
            for value in table.lookup(a).domain:
                here = Eq(a, value)
                if value in other:
                    clauses.append(Implies(And(here, Eq(b, value)), Atom("p")))
                    clauses.append(Implies(And(Atom("p"), here), Eq(b, value)))
                else:
                    clauses.append(Not(And(Atom("p"), here)))
            return Alw(conjoin(clauses))

        for f in (
            same("x", "y"),
            And(same("y", "x"), Som(Atom("p"))),
            And(same("x", "z"), Dist(Eq("z", "0"), -1)),
            And(same("z", "y"), Som(Atom("p"))),  # disjoint domains: unsatisfiable
            Implies(Eq("y", "a"), And(same("x", "z"), Alw(Atom("p")))),
        ):
            _assert_matches_reference(f, table, k, brute_force=False)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios(self, name):
        scenario = load_scenario(bundled_scenario_path(name))
        model = compile_scenario(scenario)
        f = conjoin(model.formulas)
        for k in (scenario.bound, 0, 30):
            _assert_matches_reference(f, model.symbols, k, brute_force=False)

    @pytest.mark.parametrize(
        "f, k",
        [
            (Atom("ghost"), 1),  # undeclared symbol
            (And(Atom("p"), Atom("x")), 1),  # an Atom naming a variable
            (Or(Eq("x", "7"), Atom("p")), 1),  # a value outside the domain
            (Eq("p", "0"), 0),  # an Eq naming a proposition
            (Not(Or(Atom("p"), "q")), 2),  # a non-formula
            (Eq("x", "y"), 1),  # a variable's name is no value of another
            (Atom("p"), -1),  # negative bound
        ],
    )
    def test_same_errors(self, f, k):
        table = _integer_symbols()
        with pytest.raises(Exception) as ref_error:
            _reference_encode(f, table, k)
        with pytest.raises(Exception) as error:
            encode(f, table, k)
        assert type(error.value) is type(ref_error.value)
        assert str(error.value) == str(ref_error.value)


def _random_scenario_text(rng: random.Random) -> str:
    """A workcell small enough to enumerate: 2-4 unit cells in a row, one human, one arm."""
    cells = [f"C{i}" for i in range(rng.randint(2, 4))]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {i} 0 0 {i + 1} 1 1" for i, cell in enumerate(cells)]
    lines += [f"adj {a} {b}" for a, b in zip(cells, cells[1:])]
    if len(cells) > 2 and rng.random() < 0.5:
        lines.append(f"adj {cells[-1]} {cells[0]}")  # closes the row into a loop
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi arm g radius 0.05"]
    lines += [f"start {poi} {rng.choice(cells)}" for poi in ("h", "g") if rng.random() < 0.5]
    lines.append("[task]")
    steps = rng.randint(0, 2)
    if steps >= 1:
        poi, kind = rng.choice(("h", "g")), rng.choice(("reach", "pick"))
        lines.append(f"step {poi} {kind} {rng.choice(cells)}")
    if steps == 2:
        kind = rng.choice(("handover g h", "g place"))
        lines.append(f"step {kind} {rng.choice(cells)}")
    grades = " ".join(f"{name} {rng.randint(0, 2)}" for name in ("sev", "exp", "avoid"))
    lines += ["[hazards]", f"hazard hz h g {grades}", "[mitigations]"]
    kinds = [kind for kind in ("stop", "slowdown") if rng.random() < 0.4]
    lines += [f"mitigate {kind} hz" for kind in kinds[:1]]  # one mitigation per hazard
    lines += ["[params]", f"bound {rng.randint(0, 5)}", f"threshold {rng.randint(0, 5)}"]
    return "\n".join(lines) + "\n"


class TestRandomScenarios:
    """verify against exhaustive enumeration and the reference encoder's CNF on seeded workcells."""

    SCENARIOS = 80  # the first scenarios drawn from the seed

    def test_verdicts_agree(self):
        rng = random.Random(4242)
        verdicts = []
        for _ in range(self.SCENARIOS):
            text = _random_scenario_text(rng)
            scenario = loads_scenario(text)
            safe = verify(scenario).safe
            assert safe == exhaustive_verify(scenario), text
            model = compile_scenario(scenario)
            if model.violation is not None:
                f = conjoin(model.formulas)
                ref_cnf, _ = _reference_encode(f, model.symbols, scenario.bound)
                assert safe == (not solve(ref_cnf).satisfiable), text
            verdicts.append(safe)
        assert True in verdicts and False in verdicts


def _random_grid_text(rng: random.Random, n: int) -> str:
    """An n x n grid of unit cells with a pick-and-handover task and random extras."""
    cells = {(r, c): f"G{r}{c}" for r in range(n) for c in range(n)}
    edges = [(cells[r, c], cells[r, c + 1]) for r in range(n) for c in range(n - 1)]
    edges += [(cells[r, c], cells[r + 1, c]) for r in range(n - 1) for c in range(n)]
    edges = [edge for edge in edges if rng.random() < 0.85]
    lines = ["[layout]"]
    lines += [f"loc {cell} box {c} {r} 0 {c + 1} {r + 1} 1" for (r, c), cell in cells.items()]
    lines += [f"adj {a} {b}" for a, b in edges]
    lines += ["[agents]", "agent op human", "agent arm robot"]
    lines += ["poi op h radius 0.05", "poi arm g radius 0.05", f"start g {cells[0, 0]}"]
    names = list(cells.values())
    lines += ["[task]", f"step g pick {rng.choice(names)}", f"step handover g h {rng.choice(names)}"]
    lines += ["[hazards]", "hazard hz h g sev 2 exp 2 avoid 1"]
    if rng.random() < 0.5:
        lines.append("hazard hz2 h g sev 1 exp 1 avoid 1")
    lines += ["[mitigations]"]
    kinds = [kind for kind in ("stop", "slowdown") if rng.random() < 0.4]
    lines += [f"mitigate {kind} hz" for kind in kinds[:1]]  # one mitigation per hazard
    lines += ["[params]", f"bound {rng.randint(0, 4 * n)}"]
    lines += [f"travel {a} {b} {rng.randint(2, 3)}" for a, b in edges if rng.random() < 0.2]
    return "\n".join(lines) + "\n"


class TestCompiledWorkcellSize:
    """A compiled workcell's axioms are plain clauses.  The encoder numbers the
    symbols the formulas read and, before the last instant, one conjunction
    per hazard in the violation: those whose base risk exceeds the threshold.
    No formula reads a ``risk_<h>`` column: risk is priced after solving."""

    @staticmethod
    def _assert_exact_count(scenario, k: int) -> None:
        model = compile_scenario(scenario)
        f = conjoin(model.formulas)
        read = free_symbols(f)
        symbols = model.symbols
        per_instant = (
            sum(prop.name in read for prop in symbols.propositions)
            + sum(len(var.domain) for var in symbols.variables if var.name in read)
        )
        over = [h for h in scenario.hazards if over_speeds(h, scenario.threshold)]
        cnf, vm = encode(f, symbols, k)
        assert cnf.num_vars == (k + 1) * per_instant + k * len(over), (scenario.name, k)
        assert not any(name.startswith("risk_") for name, _ in vm.value_rows)

    @pytest.mark.parametrize("name", ["handover", "handover_stop", "handover_point", "handover_mini"])
    def test_bundled_scenarios(self, name):
        scenario = load_scenario(bundled_scenario_path(name))
        for k in (0, scenario.bound, 30):
            self._assert_exact_count(scenario, k)

    def test_seeded_grids(self):
        rng = random.Random(5150)
        for n in (3, 3, 4, 4, 5):
            scenario = loads_scenario(_random_grid_text(rng, n), name=f"grid{n}")
            self._assert_exact_count(scenario, scenario.bound)

    def test_random_scenario_draws(self):
        rng = random.Random(4242)
        for _ in range(TestRandomScenarios.SCENARIOS):
            scenario = loads_scenario(_random_scenario_text(rng))
            self._assert_exact_count(scenario, scenario.bound)


def _pinned_cnf_texts():
    """The DIMACS text of each CNF ``PINNED_CNFS_SHA256`` covers, in a fixed order.

    Random formulas at k = 0..4 alone, with a subformula shared by object
    (the shapes of ``test_shared_subformula_object``) and under a ``Dist`` at
    and past the window's edge; then seeded workcells at their own bounds.
    """
    table = family_symbols()
    for k in range(5):
        rng = random.Random(6100 + k)
        for _ in range(200):
            g, h = random_formula(rng, rng.choice((4, 6))), _random_negated_formula(rng, 4)
            shapes = [g, h, Or(Alw(g), Not(g)), Implies(h, Som(h)), And(Dist(g, -(k + 1)), Dist(h, 1))]
            shapes += [Dist(g, d) for d in (-(k + 2), -(k + 1), -k, k, k + 1)]
            for f in shapes:
                yield write_dimacs(encode(f, table, k)[0])
    rng = random.Random(6200)
    for _ in range(80):
        texts = (_random_scenario_text(rng), _random_grid_text(rng, 3), test_exhaustive._multi_hazard_text(rng)[1])
        for text in texts:
            scenario = loads_scenario(text)
            model = compile_scenario(scenario)
            yield write_dimacs(encode(conjoin(model.formulas), model.symbols, scenario.bound)[0])


# SHA-256 over ``_pinned_cnf_texts``, computed at commit 9eb1586.  Like the golden
# CNFs of ``test_cli``, it pins the encoder's numbering and clause order, here on
# random formulas and seeded workcells; a change that alters them must update it
# and say why in CHANGES.md.
PINNED_CNFS_SHA256 = "90faa1369659c60f7b3780fb4a04a8296338f17be91965e1917424b8d41ad851"


def test_pinned_cnf_bytes():
    digest = hashlib.sha256()
    for text in _pinned_cnf_texts():
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_CNFS_SHA256


class TestGcPause:
    """check pauses the cyclic collector and hands back the caller's setting."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_encode_and_restored(self, pq_symbols, monkeypatch):
        seen = []
        real_encode = encode_module.encode

        def spy(*args):
            seen.append(gc.isenabled())
            return real_encode(*args)

        monkeypatch.setattr(encode_module, "encode", spy)
        gc.enable()
        assert check(And(Atom("p"), Atom("q")), pq_symbols, 2) is not None
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, pq_symbols):
        gc.disable()
        assert check(Atom("p"), pq_symbols, 1) is not None
        assert not gc.isenabled()

    def test_restored_when_encode_raises(self, pq_symbols):
        gc.enable()
        with pytest.raises(ValueError, match="undeclared"):
            check(Atom("ghost"), pq_symbols, 1)
        assert gc.isenabled()

    def test_restored_when_decode_raises(self, pq_symbols, monkeypatch):
        def broken_decode(*args):
            raise EncodingError("injected")

        monkeypatch.setattr(encode_module, "decode", broken_decode)
        gc.enable()
        with pytest.raises(EncodingError, match="injected"):
            check(Atom("p"), pq_symbols, 1)
        assert gc.isenabled()

    @pytest.mark.parametrize("name, safe", [("handover", False), ("handover_stop", True)])
    def test_verify_leaves_no_cycles(self, name, safe):
        scenario = load_scenario(bundled_scenario_path(name))
        gc.collect()
        assert verify(scenario).safe is safe
        assert gc.collect() == 0
