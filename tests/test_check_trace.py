"""``check_trace`` against the compiled axioms, on seeded witnesses corrupted one cell at a time.

Each rule of ``check_trace`` stands for the compiled axioms whose
``Axiom.rule`` is its name.  The oracle here reads every axiom of a rule on
the trace with the reference evaluator, so it knows which rules a trace
breaks and at which instants; the risk prices come from ``world._priced``.
``check_trace`` must accept exactly the traces that break nothing and name a
broken rule at the earliest broken instant, first in rule order.  Every rule
must be the only one broken by some corruption, so a check that dropped it,
or an axiom labelled with another rule, would show.  Each label's element
must be the POI, hazard or done name its rule reads.
"""

import random
from dataclasses import replace

import pytest

from coverify.encode import check
from coverify.logic import Alw, Atom, Eq, Som, Trace, _truth_rows, conjoin, disjoin, free_symbols
from coverify.world import (
    RISK_DOMAIN,
    _priced,
    Mitigation,
    apply_mitigation,
    bundled_scenario_path,
    check_trace,
    compile_scenario,
    load_scenario,
    loads_scenario,
    model_symbols,
    over_speeds,
    verify,
)

import test_encode  # modules, not classes: an imported Test class would run here again
import test_exhaustive

# Each rule's rank: the order in which check_trace names rules broken at one instant.
RANK = {"start": 0, "adjacency": 1, "dwell": 2, "flag": 3, "task": 4,
        "slowdown": 5, "stop": 5, "risk": 6}


def _rule_axioms(model) -> dict[str, list]:
    """The compiled axioms' formulas grouped by the rule of check_trace that stands for them."""
    families = {rule: [] for rule in RANK if rule != "risk"}
    for axiom in model.axioms:
        families[axiom.rule].append(axiom.formula)  # an unknown rule is a KeyError
    return families


def _breaks(tr: Trace, s, families) -> dict[str, int]:
    """Each rule the trace breaks, with the earliest instant an axiom of it fails."""
    full = (1 << (tr.bound + 1)) - 1
    row = _truth_rows(tr, {})
    out = {}
    for rule, axioms in families.items():
        for f in axioms:
            if isinstance(f, Alw):
                failing = full & ~row(f.operand)
            elif isinstance(f, Som):  # known false only once the whole window is read
                failing = 0 if row(f) & 1 else 1 << tr.bound
            else:
                assert isinstance(f, Eq)  # a start cell, asserted at instant 0
                failing = 0 if row(f) & 1 else 1
            if failing:
                first = (failing & -failing).bit_length() - 1
                out[rule] = min(out.get(rule, first), first)
    priced = _priced(tr, s).variables
    for h in s.hazards:
        name = s.risk_name(h.id)
        wrong = [t for t, (a, b) in enumerate(zip(tr.variables[name], priced[name])) if a != b]
        if wrong:
            out["risk"] = min(out.get("risk", wrong[0]), wrong[0])
    return out


def _rederived(tr: Trace, s) -> Trace:
    """tr with its flags, done columns, mitigated speeds and risks re-derived from the cells.

    A corrupted cell then breaks the rules of movement and starts, and what
    re-deriving cannot mend, but not the flag, task or speed rules it would
    otherwise drag along.
    """
    props, cells = dict(tr.propositions), dict(tr.variables)
    for h in s.hazards:
        props[s.hazard_flag_name(h.id)] = tuple(
            a == b for a, b in zip(cells[h.human_poi], cells[h.robot_poi])
        )
    prior = None
    for i, step in enumerate(s.task, start=1):
        movers = [cells[step.poi]] + ([cells[step.partner]] if step.partner else [])
        done, now = [], False
        for t in range(tr.bound + 1):
            onset = all(c[t] == step.goal for c in movers) and (prior is None or prior[t])
            now = now or onset
            done.append(now)
        props[s.done_name(i)] = prior = tuple(done)
    for m in s.mitigations:
        h = s.hazard(m.hazard)
        speed = s.speed_name(s.poi(h.robot_poi).owner)
        column = list(cells[speed])
        for t, raised in enumerate(props[s.hazard_flag_name(h.id)][:-1]):
            if raised:
                column[t + 1] = "slow" if m.kind == "slowdown" else "stopped"
        cells[speed] = tuple(column)
    return _priced(Trace(tr.bound, props, cells), s)


def _set(tr: Trace, name: str, t: int, value) -> Trace:
    """tr with one cell changed."""
    table = tr.propositions if name in tr.propositions else tr.variables
    column = list(table[name])
    column[t] = value
    changed = dict(table, **{name: tuple(column)})
    if table is tr.propositions:
        return replace(tr, propositions=changed)
    return replace(tr, variables=changed)


def _corruptions(tr: Trace, s, rng: random.Random, count: int):
    """Seeded single-cell corruptions of tr, ``count`` of each of the first two kinds.

    * any cell but a risk, set to another value and the trace re-priced: a
      jump, a flag without co-location, an early or late ``done``, a wrong
      next speed;
    * a POI cell, set to another cell and the rest re-derived: a jump, a
      short dwell or a moved start, alone;
    * a risk cell, set to another level.
    """
    risks = {s.risk_name(h.id) for h in s.hazards}
    domains = {name: (False, True) for name in tr.propositions}
    domains.update({var.name: var.domain for var in model_symbols(s).variables})
    names = sorted(set(domains) - risks)
    pois = [poi.id for poi in s.pois]
    for _ in range(count):
        name, t = rng.choice(names), rng.randrange(tr.bound + 1)
        old = (tr.propositions if name in tr.propositions else tr.variables)[name][t]
        yield _priced(_set(tr, name, t, rng.choice([v for v in domains[name] if v != old])), s)
    for _ in range(count):
        name, t = rng.choice(pois), rng.randrange(tr.bound + 1)
        others = [v for v in domains[name] if v != tr.variables[name][t]]
        if others:
            yield _rederived(_set(tr, name, t, rng.choice(others)), s)
    for name in sorted(risks):
        t = rng.randrange(tr.bound + 1)
        old = tr.variables[name][t]
        yield _set(tr, name, t, rng.choice([v for v in RISK_DOMAIN if v != old]))


def _admissible(s) -> Trace | None:
    """An admissible trace that raises a mitigated hazard's flag, else None.

    A SAFE scenario has no witness, but its stop and slowdown rules still
    bind every admissible trace that raises a mitigated flag.
    """
    model = compile_scenario(s)
    flags = [s.hazard_flag_name(m.hazard) for m in s.mitigations]
    if not flags or s.bound < 1:
        return None
    raised = Som(disjoin([Atom(flag) for flag in flags]))
    result = check(conjoin([a.formula for a in model.axioms] + [raised]), model.symbols, s.bound)
    return None if result.trace is None else _priced(result.trace, s)


def _check_labels(label: str, s, model) -> None:
    """Each axiom's element is what its rule reads; the terms are the over-threshold hazards."""
    steps = {s.done_name(i): step for i, step in enumerate(s.task, start=1)}
    for rule, element, formula in model.axioms:
        names = free_symbols(formula)
        if rule in ("start", "adjacency", "dwell"):
            assert names == {element}, (label, rule, element)
        elif rule == "flag":
            h = s.hazard(element)
            assert names == {s.hazard_flag_name(h.id), h.human_poi, h.robot_poi}, (label, element)
        elif rule == "task":
            i = int(element.removeprefix("done_"))
            step = steps[element]
            reads = {element, s.done_name(i - 1), step.poi, step.partner}
            assert element in names and names <= reads, (label, element)
        else:
            assert Mitigation(rule, element) in s.mitigations, (label, rule, element)
            speed = s.speed_name(s.poi(s.hazard(element).robot_poi).owner)
            assert names == {s.hazard_flag_name(element), speed}, (label, rule, element)
    over = [h.id for h in s.hazards if "normal" in over_speeds(h, s.threshold)]
    assert [h for h, _ in model.terms] == over, label
    for h, term in model.terms:
        assert s.hazard_flag_name(h) in free_symbols(term), (label, h)
    assert (model.violation is None) == (not model.terms), label


def _witnesses():
    """(label, scenario, trace): verify witnesses of every seeded scenario family."""
    for name in ("handover", "handover_mini", "handover_point", "handover_stop"):
        bundled = load_scenario(bundled_scenario_path(name))
        for s in (bundled, replace(bundled, bound=30)):
            yield f"{name} at bound {s.bound}", s, verify(s).trace
        if bundled.mitigations:  # handover_stop: one mitigation per hazard
            continue
        for kind in ("slowdown", "stop"):
            s = apply_mitigation(bundled, Mitigation(kind, "h1"))
            yield f"{name} with {kind}", s, verify(s).trace or _admissible(s)
    rng = random.Random(4242)
    for n in range(40):
        s = loads_scenario(test_encode._random_scenario_text(rng))
        yield f"row {n}", s, verify(s).trace or _admissible(s)
    rng = random.Random(2718)
    for n in range(30):
        _, text = test_exhaustive._multi_hazard_text(rng)
        s = loads_scenario(text)
        yield f"multi-hazard {n}", s, verify(s).trace or _admissible(s)
    rng = random.Random(5150)
    for n in (3, 3, 3, 4, 4):
        s = loads_scenario(test_encode._random_grid_text(rng, n), name=f"grid{n}")
        yield f"grid {n}", s, verify(s).trace


def test_check_trace_agrees_with_the_compiled_axioms():
    rng = random.Random(1729)
    alone = set()  # the rules some corruption breaks and nothing else does
    seen_mitigations = set()
    rules = set()
    witnesses = 0
    for label, s, witness in _witnesses():
        model = compile_scenario(s)
        _check_labels(label, s, model)
        rules |= {axiom.rule for axiom in model.axioms}
        if witness is None:
            continue
        witnesses += 1
        families = _rule_axioms(model)
        assert _breaks(witness, s, families) == {}, label
        assert check_trace(witness, s) is None, label
        seen_mitigations |= {m.kind for m in s.mitigations}
        for tr in _corruptions(witness, s, rng, 40):
            broken = _breaks(tr, s, families)
            found = check_trace(tr, s)
            if not broken:
                assert found is None, (label, found)
                continue
            assert found is not None, (label, broken)
            first = min((t, RANK[rule]) for rule, t in broken.items())
            assert (found.instant, RANK[found.rule]) == first, (label, found, broken)
            assert found.rule in broken and f"t={found.instant}" in found.message, (label, found)
            if len(broken) == 1:
                alone |= set(broken)
    assert witnesses >= 40
    assert seen_mitigations == {"slowdown", "stop"}
    assert rules == set(RANK) - {"risk"}
    assert alone == set(RANK)


def test_a_trace_of_another_bound_is_refused(handover_mini):
    tr = verify(handover_mini).trace
    with pytest.raises(ValueError, match="trace bound 6 differs from scenario bound 7"):
        check_trace(tr, replace(handover_mini, bound=7))
