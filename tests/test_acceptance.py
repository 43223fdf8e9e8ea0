"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np

from coverify.encode import check
from coverify.exhaustive import exhaustive_verify
from coverify.geometry import Box, aabb_max_distance, aabb_min_distance, sample_contact_probability
from coverify.logic import Alw, And, Atom, Dist, Implies, Not, SymbolTable, Trace, conjoin, evaluate
from coverify.replay import CONFIRMED, POSSIBLE, classify, segments
from coverify.sat import read_dimacs, solve, write_dimacs
from coverify.world import Mitigation, compile_scenario, verify

from helpers import brute_force_check, brute_force_solve, family_symbols, formula_family
from test_geometry import SAME_CUBE_CONTACT_P, corner_pairs_max, cover_radius, grid_points, random_box
from test_sat import pigeonhole, random_cnf


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_movement_example_reproduction():
    table = SymbolTable()
    table.add_proposition("start")
    table.add_proposition("stop")
    # Alw(start -> Dist(stop, 3) & !(start & stop))
    start, stop = Atom("start"), Atom("stop")
    formula = Alw(Implies(start, And(Dist(stop, 3), Not(And(start, stop)))))

    t0 = time.perf_counter()
    witness = check(formula, table, 30)
    elapsed = time.perf_counter() - t0

    history = Trace(
        30,
        {"start": tuple(t == 5 for t in range(31)), "stop": tuple(t == 8 for t in range(31))},
        {},
    )
    ok = witness is not None and elapsed < 1.0 and evaluate(formula, history, 0) is True
    _report(1, ok, f"witness at k=30 in {elapsed:.3f}s; start@5/stop@8 history accepted")


def test_criterion_2_encoder_completeness_oracle():
    table = family_symbols()
    family = formula_family()
    t0 = time.perf_counter()
    disagreements = 0
    combos = 0
    for formula in family:
        for k in range(6):
            expected = brute_force_check(formula, k)
            got = check(formula, table, k) is not None
            combos += 1
            if expected != got:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 300.0
    _report(
        2,
        ok,
        f"{combos} (formula, bound) combos over {len(family)} formulas, "
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_3_sat_oracle():
    rng = random.Random(20240810)
    mismatches = 0
    round_trip_failures = 0
    for _ in range(500):
        formula = random_cnf(rng, max_vars=20, max_clauses=90)
        if solve(formula).satisfiable != brute_force_solve(formula).satisfiable:
            mismatches += 1
        if read_dimacs(write_dimacs(formula)) != formula:
            round_trip_failures += 1
    php_unsat = not solve(pigeonhole(4, 3)).satisfiable
    ok = mismatches == 0 and round_trip_failures == 0 and php_unsat
    _report(
        3,
        ok,
        f"500 random CNFs: {mismatches} solver/oracle mismatches, "
        f"{round_trip_failures} DIMACS round-trip failures; PHP(4,3) unsat={php_unsat}",
    )


def test_criterion_4_verification_loop(handover, handover_mini):
    t0 = time.perf_counter()
    result = verify(handover)
    model = compile_scenario(handover)
    trace_ok = (
        not result.safe
        and evaluate(conjoin(a.formula for a in model.axioms), result.trace, 0) is True
        and evaluate(model.violation, result.trace, 0) is True
    )
    mitigated = replace(handover, mitigations=handover.mitigations + (Mitigation("stop", "h1"),))
    safe_after = verify(mitigated).safe
    elapsed = time.perf_counter() - t0

    # independent confirmation on the shrunken 4-cell variant at bound 6
    stop = Mitigation("stop", "h1")
    mini_stopped = replace(handover_mini, mitigations=handover_mini.mitigations + (stop,))
    mini_unsafe = not exhaustive_verify(handover_mini)
    mini_safe = exhaustive_verify(mini_stopped)
    solver_mini_unsafe = not verify(handover_mini).safe
    solver_mini_safe = verify(mini_stopped).safe

    ok = (
        trace_ok
        and safe_after
        and elapsed < 60.0
        and mini_unsafe == solver_mini_unsafe
        and mini_safe == solver_mini_safe
        and mini_safe
    )
    _report(
        4,
        ok,
        f"counterexample validated by the evaluator; stop mitigation => SAFE "
        f"in {elapsed:.1f}s; exhaustive enumeration agrees on the 4-cell variant",
    )


def test_criterion_5_false_positive_mechanization(handover, handover_point):
    result = verify(handover)
    rows = classify(result.trace, handover, samples=50_000, seed=1)
    cube_ok = (
        len(rows) >= 1
        and any(row.verdict == POSSIBLE for row in rows)
        and all(row.verdict != CONFIRMED for row in rows)
        and all(row.d_min == 0.0 for row in rows)
        and all(abs(row.d_max - math.sqrt(3)) <= 1e-9 for row in rows)
    )
    point_result = verify(handover_point)
    point_rows = classify(point_result.trace, handover_point, samples=50_000, seed=1)
    point_ok = len(point_rows) >= 1 and all(row.verdict == CONFIRMED for row in point_rows)
    ok = cube_ok and point_ok
    _report(
        5,
        ok,
        f"1 m cells: {len(rows)} hazard instant(s), all non-CONFIRMED with "
        f"d_min=0, d_max=sqrt(3); point cells: all CONFIRMED",
    )


def test_criterion_6_geometry_oracles():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    lower_slack_ok = True
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        exact_max = corner_pairs_max(a, b)
        got_max = aabb_max_distance(a, b)
        if exact_max > 0:
            worst_rel = max(worst_rel, abs(got_max - exact_max) / exact_max)
        else:
            worst_rel = max(worst_rel, abs(got_max - exact_max))
        d_min = aabb_min_distance(a, b)
        pa, pb = grid_points(a), grid_points(b)
        sampled = math.sqrt(float(np.min(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))))
        lower = sampled - cover_radius(a) - cover_radius(b)
        if lower > d_min + 1e-6:
            lower_slack_ok = False
    ok = worst_rel <= 1e-9 and lower_slack_ok
    _report(
        6,
        ok,
        f"1000 box pairs: max-distance relative error {worst_rel:.2e} (<= 1e-9); "
        f"sampled lower bound never exceeded d_min + 1e-6",
    )


def test_criterion_7_monte_carlo_reference():
    unit = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    n = 1_000_000
    p1 = sample_contact_probability(unit, unit, 0.1, n, seed=20240801)
    p2 = sample_contact_probability(unit, unit, 0.1, n, seed=20240801)
    se = math.sqrt(SAME_CUBE_CONTACT_P * (1 - SAME_CUBE_CONTACT_P) / n)
    deviation = abs(p1 - SAME_CUBE_CONTACT_P)
    ok = deviation <= 3 * se and p1 == p2
    _report(
        7,
        ok,
        f"estimate {p1:.3e} vs frozen 1e8-sample reference {SAME_CUBE_CONTACT_P:.3e} "
        f"({deviation / se:.2f} std errs, limit 3); bit-identical re-run={p1 == p2}",
    )


def test_criterion_8_trace_replay_agreement(handover, handover_point, handover_mini):
    duration3_seen = 0
    scenarios = (handover, handover_point, handover_mini)
    for scenario in scenarios:
        result = verify(scenario)
        assert not result.safe
        trace = result.trace
        for poi in scenario.pois:
            positions = trace.variables[poi.id]
            runs = segments(trace, scenario, poi.id)

            # the segments cover [0, bound] in order, each starting where the last ended
            assert runs[0].start == 0 and runs[-1].end == trace.bound
            assert all(a.end == b.start and a.dest == b.source for a, b in zip(runs, runs[1:]))

            for run in runs:
                # a hold sits in its cell; a move holds its source for the edge's travel time
                assert set(positions[run.start:run.end]) == {run.source}
                assert positions[run.end] == run.dest
                if run.source != run.dest:
                    duration = run.end - run.start
                    assert duration == scenario.travel_time(run.source, run.dest)
                    duration3_seen += duration == 3

    # the long aisle forces at least one three-instant crossing per layout run
    ok = duration3_seen >= 2  # handover and handover_point both cross L3-L4
    _report(
        8,
        ok,
        f"{duration3_seen} duration-3 moves across {len(scenarios)} counterexamples; "
        "each move lasts its travel time in its source cell; holds and moves cover "
        "the window without gaps",
    )
