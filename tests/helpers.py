"""Shared test machinery: trace enumeration, formula families, random cases.

``brute_force_check`` is the evaluator-backed ground truth for bounded
satisfiability: enumerate every trace over the formula's symbols and ask
``evaluate``.  The encoder must agree with it on the whole generated family.
``brute_force_solve`` is the solver's independent exhaustive oracle for small
CNFs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from coverify.logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
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
from coverify.sat import CnfFormula, SolveResult

# The family's symbol pool: two propositions and one two-valued variable.
PROP_NAMES = ("p", "q")
VAR_NAME = "v"
VAR_DOMAIN = ("a", "b")


def family_symbols() -> SymbolTable:
    table = SymbolTable()
    for name in PROP_NAMES:
        table.add_proposition(name)
    table.add_variable(VAR_NAME, VAR_DOMAIN)
    return table


def signature(f: Formula) -> tuple[tuple[str, tuple[str, ...] | None], ...]:
    """Sorted (symbol, domain-or-None) pairs for the symbols of f."""
    out = []
    for name in sorted(free_symbols(f)):
        out.append((name, VAR_DOMAIN if name == VAR_NAME else None))
    return tuple(out)


@lru_cache(maxsize=64)
def _cached_traces(sig, k: int) -> tuple[Trace, ...]:
    return tuple(_generate_traces(sig, k))


def _generate_traces(sig, k: int):
    columns = []
    for _name, domain in sig:
        values = domain if domain is not None else (False, True)
        columns.append(list(product(values, repeat=k + 1)))
    for combo in product(*columns):
        props: dict[str, tuple[bool, ...]] = {}
        variables: dict[str, tuple[str, ...]] = {}
        for (name, domain), column in zip(sig, combo):
            if domain is None:
                props[name] = column
            else:
                variables[name] = column
        yield Trace(k, props, variables)


def all_traces(sig, k: int):
    """All traces assigning exactly the signature's symbols over [0, k]."""
    size = 1
    for _name, domain in sig:
        size *= (len(domain) if domain is not None else 2) ** (k + 1)
    if size <= 1 << 13:
        return _cached_traces(sig, k)
    return _generate_traces(sig, k)


def brute_force_check(f: Formula, k: int) -> bool:
    """Exists a trace over [0, k] satisfying f at instant 0 (by evaluate)."""
    sig = signature(f)
    if not sig:
        raise ValueError("formula without symbols")
    return any(evaluate(f, tr, 0) for tr in all_traces(sig, k))


# ---------------------------------------------------------------------------
# The CNF oracle: every assignment, scanned in blocks with numpy.


_BRUTE_CHUNK = 1 << 16


def brute_force_solve(cnf: CnfFormula) -> SolveResult:
    """Exhaustive enumeration over all assignments; requires num_vars <= 24.

    Assignments are scanned in counting order (variable v is bit v-1), so the
    returned model is the numerically smallest satisfying assignment.
    """
    if cnf.num_vars > 24:
        raise ValueError(f"brute force capped at 24 variables, got {cnf.num_vars}")
    if cnf.num_vars == 0:
        if cnf.clauses:
            raise AssertionError("clauses without variables cannot be well-formed")
        return SolveResult({})

    total = 1 << cnf.num_vars
    for start in range(0, total, _BRUTE_CHUNK):
        block = np.arange(start, min(start + _BRUTE_CHUNK, total), dtype=np.uint32)
        sat = np.ones(block.shape, dtype=bool)
        for clause in cnf.clauses:
            clause_sat = np.zeros(block.shape, dtype=bool)
            for lit in clause:
                bit = (block >> (abs(lit) - 1)) & 1
                clause_sat |= (bit == 1) if lit > 0 else (bit == 0)
            sat &= clause_sat
            if not sat.any():
                break
        hits = np.flatnonzero(sat)
        if hits.size:
            assignment = int(block[hits[0]])
            model = {v: bool((assignment >> (v - 1)) & 1) for v in range(1, cnf.num_vars + 1)}
            return SolveResult(model)
    return SolveResult(None)


# ---------------------------------------------------------------------------
# The generated formula family: <= 3 symbols, AST depth <= 3, |offset| <= 2.


def _atoms() -> list[Formula]:
    return [Atom("p"), Atom("q"), Eq(VAR_NAME, "a"), Eq(VAR_NAME, "b")]


def _depth_two() -> list[Formula]:
    out: list[Formula] = []
    for a in _atoms():
        out.append(Not(a))
        out.append(Alw(a))
        out.append(Som(a))
        for d in (-2, -1, 0, 1, 2):
            out.append(Dist(a, d))
    pool = [Atom("p"), Atom("q"), Eq(VAR_NAME, "a")]
    for left in pool:
        for right in pool:
            for op in (And, Or, Implies):
                out.append(op(left, right))
    return out


def _depth_three() -> list[Formula]:
    core: list[Formula] = _atoms() + [
        Not(Atom("p")),
        And(Atom("p"), Atom("q")),
        Or(Atom("p"), Eq(VAR_NAME, "a")),
        Implies(Atom("q"), Atom("p")),
        Alw(Atom("p")),
        Som(Eq(VAR_NAME, "a")),
        Dist(Atom("p"), 1),
        Dist(Atom("q"), -1),
    ]
    out: list[Formula] = []
    for c in core:
        out.append(Not(c))
        out.append(Alw(c))
        out.append(Som(c))
    for c in core[:6]:
        for d in (-2, 1, 2):
            out.append(Dist(c, d))
    for left in core:
        for right in core:
            for op in (And, Or, Implies):
                candidate = op(left, right)
                if len(free_symbols(candidate)) <= 2:
                    out.append(candidate)
    return out


def _three_symbol_specials() -> list[Formula]:
    p, q, va, vb = Atom("p"), Atom("q"), Eq(VAR_NAME, "a"), Eq(VAR_NAME, "b")
    return [
        And(Som(And(p, va)), Som(And(q, vb))),
        And(Alw(Implies(p, va)), Som(And(q, p))),
        Som(And(And(p, q), va)),
        Implies(Som(p), Som(And(q, va))),
        And(Som(Dist(p, 1)), Alw(Or(q, va))),
        Or(Alw(And(p, vb)), Som(And(q, va))),
        And(And(Som(p), Som(q)), Alw(va)),
        Not(Som(And(And(p, q), vb))),
        And(Alw(Implies(va, Dist(q, 1))), Som(And(p, va))),
        Implies(Alw(p), And(Som(q), Som(vb))),
    ]


def formula_family() -> list[Formula]:
    """Deterministic family: every constructor exercised, symbols capped at 3."""
    return _atoms() + _depth_two() + _depth_three() + _three_symbol_specials()


# ---------------------------------------------------------------------------
# Random formulas and traces (seeded by the caller).


def random_formula(rng, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(_atoms())
    kind = rng.choice(("not", "and", "or", "implies", "alw", "som", "dist"))
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    if kind == "alw":
        return Alw(random_formula(rng, depth - 1))
    if kind == "som":
        return Som(random_formula(rng, depth - 1))
    if kind == "dist":
        return Dist(random_formula(rng, depth - 1), rng.randint(-2, 2))
    op = {"and": And, "or": Or, "implies": Implies}[kind]
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_trace(rng, k: int) -> Trace:
    props = {name: tuple(rng.random() < 0.5 for _ in range(k + 1)) for name in PROP_NAMES}
    variables = {VAR_NAME: tuple(rng.choice(VAR_DOMAIN) for _ in range(k + 1))}
    return Trace(k, props, variables)
