"""Scenario loading, compilation templates, risk scheme, and verification."""

import random
from dataclasses import replace
from itertools import product

import pytest

from coverify.encode import check
from coverify.exhaustive import exhaustive_verify
from coverify.geometry import Box
from coverify.logic import (
    Alw,
    Atom,
    Dist,
    Eq,
    Implies,
    Som,
    SymbolTable,
    Trace,
    conjoin,
    evaluate,
)
from coverify.world import (
    Agent,
    Hazard,
    Layout,
    Location,
    Mitigation,
    PointOfInterest,
    Scenario,
    ScenarioError,
    TaskStep,
    bundled_scenario_path,
    compile_scenario,
    load_scenario,
    loads_scenario,
    over_speeds,
    risk_value,
    verify,
)

import frozen_movement
import test_encode  # modules, not classes: an imported Test class would run here again
import test_exhaustive

MINIMAL = """
[layout]
loc L1 box 0 0 0 1 1 1

[agents]
agent solo human
poi solo hand radius 0.1
"""

TWO_CELLS = """
[layout]
loc A box 0 0 0 1 1 1
loc B box 1 0 0 2 1 1
adj A B

[agents]
agent human_op human
agent bot robot
poi human_op h radius 0.05
poi bot g radius 0.05

[hazards]
hazard hz h g sev 2 exp 2 avoid 1

[params]
bound 3
threshold 3
"""


class TestLoad:
    def test_bundled_handover(self, handover):
        assert len(handover.layout.locations) >= 6
        robots = [a for a in handover.agents if a.kind == "robot"]
        humans = [a for a in handover.agents if a.kind == "human"]
        assert len(robots) == 1 and len(robots[0].pois) == 1
        assert len(humans) == 1 and len(humans[0].pois) == 1
        assert handover.travel_time("L3", "L4") == 3
        assert handover.travel_time("L4", "L3") == 3
        assert handover.travel_time("L1", "L2") == 1
        assert handover.threshold == 3

    def test_minimal_scenario(self):
        s = loads_scenario(MINIMAL)
        assert s.hazards == ()
        assert s.bound == 30  # default
        assert s.dt == 1.0

    def test_undeclared_adjacency_is_rejected(self):
        text = MINIMAL.replace("loc L1 box 0 0 0 1 1 1", "loc L1 box 0 0 0 1 1 1\nadj L1 L9")
        with pytest.raises(ScenarioError, match="undeclared location 'L9'"):
            loads_scenario(text)

    def test_overlapping_cells_rejected(self):
        text = TWO_CELLS.replace("loc B box 1 0 0 2 1 1", "loc B box 0.5 0 0 2 1 1")
        with pytest.raises(ScenarioError, match="overlap"):
            loads_scenario(text)

    def test_touching_cells_allowed(self):
        loads_scenario(TWO_CELLS)  # faces shared at x=1

    def test_level_out_of_range(self):
        with pytest.raises(ScenarioError, match="out of range"):
            loads_scenario(TWO_CELLS.replace("sev 2", "sev 3"))

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf", "-inf"])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ScenarioError, match="dt must be"):
            loads_scenario(TWO_CELLS + f"dt {dt}\n")

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("bound", "bound <k>"),
            ("bound 5 junk", "bound <k>"),
            ("threshold", "threshold <n>"),
            ("threshold 3 4", "threshold <n>"),
            ("dt", "dt <seconds>"),
            ("dt 0.5 0.5", "dt <seconds>"),
        ],
    )
    def test_param_takes_exactly_one_value(self, line, expected):
        lineno = len(TWO_CELLS.splitlines()) + 1
        with pytest.raises(ScenarioError) as error:
            loads_scenario(TWO_CELLS + line + "\n")
        assert str(error.value) == f"line {lineno}: expected: {expected}"

    @pytest.mark.parametrize("radius", ["0", "-0.05", "nan", "inf", "-inf"])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ScenarioError, match="needs a finite radius > 0"):
            loads_scenario(TWO_CELLS.replace("poi bot g radius 0.05", f"poi bot g radius {radius}"))

    @pytest.mark.parametrize("corner", ["nan", "inf", "-inf"])
    def test_box_corners_must_be_finite(self, corner):
        with pytest.raises(ScenarioError, match="must be finite"):
            loads_scenario(TWO_CELLS.replace("loc B box 1 0 0 2 1 1", f"loc B box 1 0 0 2 {corner} 1"))

    def test_unknown_poi_in_hazard(self):
        with pytest.raises(ScenarioError, match="unknown POI"):
            loads_scenario(TWO_CELLS.replace("hazard hz h g", "hazard hz h ghost"))

    def test_hazard_poi_kinds_enforced(self):
        with pytest.raises(ScenarioError, match="not a human POI"):
            loads_scenario(TWO_CELLS.replace("hazard hz h g", "hazard hz g h"))

    def test_radius_must_fit_cells(self):
        with pytest.raises(ScenarioError, match="smaller than the smallest cell edge"):
            loads_scenario(TWO_CELLS.replace("poi bot g radius 0.05", "poi bot g radius 1.0"))

    def test_point_cells_skip_the_radius_cap(self, handover_point):
        assert all(e == 0 for loc in handover_point.layout.locations for e in loc.box.edges)

    def test_travel_requires_adjacency(self):
        text = TWO_CELLS + "travel A B 2\n"
        loads_scenario(text)
        with pytest.raises(ScenarioError, match="non-adjacent"):
            loads_scenario(TWO_CELLS.replace("adj A B", "") + "travel A B 2\n")

    @pytest.mark.parametrize("second", ["travel A B 5", "travel B A 5", "travel A B 2"])
    def test_second_travel_time_of_an_edge_rejected(self, second):
        text = TWO_CELLS + "travel A B 2\n" + second + "\n"
        with pytest.raises(ScenarioError, match="edge .* has more than one travel time"):
            loads_scenario(text)

    def test_comments_and_blank_lines(self):
        assert loads_scenario("# header\n\n" + MINIMAL).name == "scenario"

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            loads_scenario("[nonsense]\n")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ScenarioError, match="line 3"):
            loads_scenario("\n[layout]\nloc L1 box 0 0 0\n")

    def test_asymmetric_adjacency_rejected_when_built_programmatically(self):
        a = Location("A", Box((0, 0, 0), (1, 1, 1)), frozenset({"B"}))
        b = Location("B", Box((1, 0, 0), (2, 1, 1)), frozenset())
        with pytest.raises(ScenarioError, match="asymmetric"):
            Layout((a, b))

    def test_overlap_check_names_the_pair_an_all_pairs_scan_meets_first(self):
        """The sweep against the nested loop it replaced, on layouts with small
        integer corners: touching faces, equal x-spans and flat boxes are common."""

        def all_pairs(locations):
            for i, a in enumerate(locations):
                for b in locations[i + 1 :]:
                    if a.box.interior_overlaps(b.box):
                        return f"cells {a.id!r} and {b.id!r} overlap"
            return None

        def corners(rng):
            spans = [sorted(rng.randint(0, 3) for _ in range(2)) for _ in range(3)]
            return tuple(lo for lo, _ in spans), tuple(hi for _, hi in spans)

        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(400):
            locations = tuple(
                Location(f"C{n}", Box(*corners(rng)), frozenset()) for n in range(rng.randint(2, 7))
            )
            expected = all_pairs(locations)
            try:
                Layout(locations)
                message = None
            except ScenarioError as exc:
                message = str(exc)
            assert message == expected, locations
            outcomes.add(message is None)
        assert outcomes == {True, False}  # both accepted and rejected layouts were drawn

    def test_duplicate_mitigation_rejected(self):
        text = TWO_CELLS + "\n[mitigations]\nmitigate stop hz\nmitigate stop hz\n"
        with pytest.raises(ScenarioError, match="duplicate mitigation"):
            loads_scenario(text)

    def test_duplicate_mitigation_names_its_kind_and_hazard(self):
        text = TWO_CELLS + "\n[mitigations]\nmitigate slowdown hz\nmitigate slowdown hz\n"
        with pytest.raises(ScenarioError) as exc:
            loads_scenario(text)
        assert str(exc.value) == "duplicate mitigation: 'slowdown' for 'hz' already present"

    def test_retract_mitigation_rejected_on_its_line(self):
        # Only the robot's next speed prices a hazard instant, so every mitigation is a speed
        # reaction; a position-only retract would lower no risk.
        text = TWO_CELLS + "\n[mitigations]\nmitigate retract hz\n"
        line = text.splitlines().index("mitigate retract hz") + 1
        with pytest.raises(ScenarioError) as exc:
            loads_scenario(text)
        assert str(exc.value) == f"line {line}: expected: mitigate slowdown|stop <hazard>"

    @pytest.mark.parametrize("first, second", [("stop", "slowdown"), ("slowdown", "stop")])
    def test_second_mitigation_kind_rejected_on_its_line(self, first, second):
        # Two kinds on one hazard demand two next speeds at once, so its flag could never hold.
        text = TWO_CELLS + f"\n[mitigations]\nmitigate {first} hz\nmitigate {second} hz\n"
        line = len(text.splitlines())
        with pytest.raises(ScenarioError) as exc:
            loads_scenario(text)
        assert str(exc.value) == (f"line {line}: hazard 'hz' is already mitigated by {first!r} "
                                  f"on line {line - 1}: one mitigation per hazard")

    @pytest.mark.parametrize("name", ["handover", "handover_stop", "handover_point", "handover_mini"])
    def test_bound_argument_takes_the_place_of_the_params_bound(self, name):
        path = bundled_scenario_path(name)
        assert load_scenario(path, bound=9) == replace(load_scenario(path), bound=9)

    def test_bound_argument_is_validated_like_the_params_bound(self):
        assert loads_scenario(TWO_CELLS + "\n[params]\nbound 4\n", bound=0).bound == 0
        with pytest.raises(ScenarioError, match="bound must be >= 0"):
            loads_scenario(TWO_CELLS, bound=-1)

    def test_second_start_of_a_poi_rejected(self):
        text = TWO_CELLS.replace("[hazards]", "start g A\nstart g B\n\n[hazards]")
        with pytest.raises(ScenarioError, match="'g' has more than one start"):
            loads_scenario(text)


class TestRiskValue:
    def test_normal_speed_sums_levels(self):
        assert risk_value(2, 2, 2, "normal") == 6

    def test_slow_reduces_severity_one_level(self):
        assert risk_value(2, 2, 2, "slow") == 5
        assert risk_value(0, 2, 2, "slow") == 4  # floor at zero

    def test_stopped_clamps_to_zero(self):
        assert risk_value(2, 2, 2, "stopped") == 0

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            risk_value(3, 0, 0, "normal")

    def test_unknown_speed(self):
        with pytest.raises(ValueError, match="speed"):
            risk_value(1, 1, 1, "warp")

    def test_monotone_in_each_level(self):
        for speed in ("normal", "slow", "stopped"):
            for s in range(3):
                for e in range(3):
                    for a in range(3):
                        base = risk_value(s, e, a, speed)
                        if s < 2:
                            assert risk_value(s + 1, e, a, speed) >= base
                        if e < 2:
                            assert risk_value(s, e + 1, a, speed) >= base
                        if a < 2:
                            assert risk_value(s, e, a + 1, speed) >= base


class TestOverSpeeds:
    @pytest.mark.parametrize("threshold", range(8))
    def test_matches_risk_value_at_every_grade(self, threshold):
        for sev in range(3):
            for exp in range(3):
                for avoid in range(3):
                    over = over_speeds(Hazard("h", "a", "b", sev, exp, avoid), threshold)
                    expected = {
                        v for v in ("normal", "slow", "stopped")
                        if risk_value(sev, exp, avoid, v) > threshold
                    }
                    assert over == expected
                    if "normal" not in over:
                        assert over == set()


class TestCompile:
    def test_two_cell_movement_template(self):
        s = loads_scenario(TWO_CELLS)
        model = compile_scenario(s)
        expected = Alw(Implies(Dist(Eq("g", "A"), -1), _or(Eq("g", "A"), Eq("g", "B"))))
        assert ("adjacency", "g", expected) in model.axioms

    def test_no_hazards_compiles_without_violation(self):
        s = loads_scenario(MINIMAL)
        model = compile_scenario(s)
        assert model.violation is None
        assert verify(s).safe

    def test_slowdown_template_present(self):
        s = loads_scenario(TWO_CELLS + "\n[mitigations]\nmitigate slowdown hz\n")
        model = compile_scenario(s)
        expected = Alw(Implies(Atom("haz_hz"), Dist(Eq("speed_bot", "slow"), 1)))
        assert ("slowdown", "hz", expected) in model.axioms

    def test_hazard_axioms_define_colocation(self):
        # At one instant, for every cell of each POI and every flag value.
        model = compile_scenario(loads_scenario(TWO_CELLS))
        axioms = conjoin(a.formula for a in model.axioms if a.rule == "flag")
        for h, g, flag in product("AB", "AB", (False, True)):
            trace = Trace(0, {"haz_hz": (flag,)}, {"h": (h,), "g": (g,)})
            assert evaluate(axioms, trace, 0) is (flag == (h == g)), (h, g, flag)

    def test_violation_shape(self):
        s = loads_scenario(TWO_CELLS)
        model = compile_scenario(s)
        assert isinstance(model.violation, Som)
        assert model.violation in model.formulas

    def test_symbols_cover_generated_names(self):
        s = loads_scenario(TWO_CELLS)
        model = compile_scenario(s)
        for name in ("h", "g", "speed_bot", "haz_hz", "risk_hz"):
            assert name in model.symbols
        names = [sym.name for sym in (*model.symbols.propositions, *model.symbols.variables)]
        assert not [name for name in names if name.startswith("transit_")]

    def test_only_a_real_clash_is_called_one(self):
        # The loader rejects a bad id on its line; a scenario built through the API
        # meets the same check when its symbols are declared.
        s = loads_scenario(MINIMAL)
        bad = replace(s, agents=(Agent("solo", "human", (PointOfInterest("ha-nd", "solo", 0.1),)),))
        with pytest.raises(ScenarioError) as error:
            compile_scenario(bad)
        assert str(error.value) == "cannot declare the model's symbols: invalid identifier: 'ha-nd'"
        robot = Agent("bot", "robot", (PointOfInterest("speed_bot", "bot", 0.05),))
        clash = replace(s, agents=(*s.agents, robot))
        with pytest.raises(ScenarioError, match="symbol 'speed_bot' already declared"):
            compile_scenario(clash)

    @pytest.mark.parametrize(
        "text, message",
        [
            (TWO_CELLS.replace(" g ", " speed_bot "),
             "line 11: symbol 'speed_bot' already declared on line 9"),
            (TWO_CELLS.replace(" g ", " haz_hz "),
             "line 14: symbol 'haz_hz' already declared on line 11"),
            (TWO_CELLS.replace(" g ", " risk_hz "),
             "line 14: symbol 'risk_hz' already declared on line 11"),
            (TWO_CELLS.replace(" h ", " g "), "line 11: symbol 'g' already declared on line 10"),
            (TWO_CELLS.replace(" h ", " done_1 ") + "[task]\nstep g reach B\n",
             "line 20: symbol 'done_1' already declared on line 10"),
        ],
        ids=["speed", "flag", "risk", "poi", "done"],
    )
    def test_a_repeated_symbol_fails_on_the_later_line(self, text, message):
        with pytest.raises(ScenarioError) as error:
            loads_scenario(text)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("loc A box", "loc A.1 box", "line 3: invalid domain value: 'A.1'"),
            ("poi bot g", "poi bot 9g", "line 11: invalid identifier: '9g'"),
            ("agent bot robot", "agent b/t robot", "line 9: invalid identifier: 'speed_b/t'"),
            ("hazard hz", "hazard h-z", "line 14: invalid identifier: 'haz_h-z'"),
            # Names are ASCII: a Unicode letter or digit is no more a name than '-'.
            ("loc A box", "loc A\u00e9 box", "line 3: invalid domain value: 'A\u00e9'"),
            ("poi bot g", "poi bot g_\u00b2", "line 11: invalid identifier: 'g_\u00b2'"),
            ("hazard hz", "hazard h\u0661", "line 14: invalid identifier: 'haz_h\u0661'"),
        ],
        ids=["loc", "poi", "robot", "hazard", "loc-letter", "poi-super", "haz-arabic"],
    )
    def test_an_id_that_cannot_name_its_symbol_fails_on_its_line(self, old, new, message):
        with pytest.raises(ScenarioError) as error:
            loads_scenario(TWO_CELLS.replace(old, new))
        assert str(error.value) == message

    def test_ids_that_name_no_symbol_stay_free(self):
        s = loads_scenario(TWO_CELLS.replace("human_op", "human-op"))
        assert s.agent("human-op").kind == "human"
        assert "risk_hz" in compile_scenario(s).symbols


class TestDwellRule:
    """The dwell rule against the frozen model with transit flags, on grids with long edges."""

    DRAWS = 30  # the first 3x3 grids of the seed with a travel line

    @staticmethod
    def _frozen(s):
        """The frozen model's formulas and symbols: transit flags and their three rules."""
        model = compile_scenario(s)
        symbols = SymbolTable()
        for prop in model.symbols.propositions:
            symbols.add_proposition(prop.name)
        for var in model.symbols.variables:
            symbols.add_variable(var.name, var.domain)
        for poi in s.pois:
            symbols.add_proposition(frozen_movement.transit_name(poi.id))
        rest = (a.formula for a in model.axioms if a.rule not in ("adjacency", "dwell"))
        axioms = (*frozen_movement.movement_axioms(s), *rest)
        return axioms, model.violation, symbols

    def test_verdicts_and_witnesses_match_the_transit_model(self):
        rng = random.Random(777)
        drawn, pairs, verdicts = 0, 0, set()
        while drawn < self.DRAWS:
            text = test_encode._random_grid_text(rng, 3)
            scenario = loads_scenario(text, name="grid3")
            if not scenario.travel_times:
                continue
            drawn += 1
            axioms, violation, symbols = self._frozen(scenario)
            for k in range(3 * 3 + 4):
                s = replace(scenario, bound=k)
                result = verify(s)
                frozen_safe = violation is None or check(
                    conjoin(axioms + (violation,)), symbols, k
                ) is None
                assert result.safe == frozen_safe, (text, k)
                verdicts.add(result.safe)
                pairs += 1
                if result.trace is not None:
                    tr = result.trace
                    flags = {frozen_movement.transit_name(p.id): (True,) * (k + 1) for p in s.pois}
                    raised = Trace(k, {**tr.propositions, **flags}, tr.variables)
                    assert evaluate(conjoin(axioms), raised, 0), (text, k)
        assert pairs == self.DRAWS * 13 and verdicts == {True, False}

    def test_handover_needs_the_dwell_to_finish_at_bound_5(self, handover):
        # p_g must reach L2, then meet p_a at L5 across the 3-instant L3-L4
        # aisle; without the dwell it could finish at bound 3.
        model = compile_scenario(handover)
        axioms = conjoin(a.formula for a in model.axioms)
        assert check(axioms, model.symbols, 4) is None
        assert check(axioms, model.symbols, 5) is not None


    @pytest.mark.parametrize("travel", [2, 3, 5, 10**9])
    def test_an_edge_is_crossed_no_sooner_than_its_travel_time(self, travel):
        # The lookback stops past the bound; each bound still rules out every early arrival.
        text = TWO_CELLS + f"travel A B {travel}\n"
        text = text.replace("poi bot g radius 0.05", "poi bot g radius 0.05\nstart g A")
        for k in range(8):
            s = replace(loads_scenario(text), bound=k)
            model = compile_scenario(s)
            arrives = conjoin([a.formula for a in model.axioms] + [Som(Eq("g", "B"))])
            assert (check(arrives, model.symbols, k) is not None) == (k >= travel), k


def _or(a, b):
    from coverify.logic import Or

    return Or(a, b)


class TestApplyMitigation:
    """A mitigation added with ``dataclasses.replace``, as ``apply_mitigation`` once did:
    ``Scenario`` validates it."""

    def test_appends_and_preserves_original(self, handover):
        s2 = replace(handover, mitigations=handover.mitigations + (Mitigation("slowdown", "h1"),))
        assert len(s2.mitigations) == len(handover.mitigations) + 1
        assert handover.mitigations == ()

    def test_duplicate_rejected(self, handover):
        s2 = replace(handover, mitigations=handover.mitigations + (Mitigation("stop", "h1"),))
        with pytest.raises(ScenarioError, match="already present"):
            replace(s2, mitigations=s2.mitigations + (Mitigation("stop", "h1"),))

    def test_second_kind_rejected(self, handover):
        s2 = replace(handover, mitigations=handover.mitigations + (Mitigation("stop", "h1"),))
        slowdown = Mitigation("slowdown", "h1")
        with pytest.raises(ScenarioError) as exc:
            replace(s2, mitigations=s2.mitigations + (slowdown,))
        assert str(exc.value) == "hazard 'h1' is already mitigated by 'stop': one mitigation per hazard"

    def test_unknown_hazard_rejected(self, handover):
        with pytest.raises(ScenarioError, match="unknown hazard"):
            replace(handover, mitigations=handover.mitigations + (Mitigation("stop", "ghost"),))

    def test_retract_rejected(self, handover):
        with pytest.raises(ScenarioError, match="unknown mitigation kind 'retract'"):
            replace(handover, mitigations=handover.mitigations + (Mitigation("retract", "h1"),))


class TestVerify:
    def test_unmitigated_single_instant_contact_possible(self):
        s = loads_scenario(TWO_CELLS)
        result = verify(s)
        assert not result.safe
        assert all(v.risk > s.threshold for v in result.violations)

    def test_counterexample_satisfies_the_compiled_model(self, handover_mini):
        result = verify(handover_mini)
        assert not result.safe
        model = compile_scenario(handover_mini)
        assert evaluate(conjoin(model.formulas), result.trace, 0) is True
        # and the trace is a genuine safety violation, not just satisfiable:
        assert evaluate(model.violation, result.trace, 0) is True

    def test_movement_soundness_of_counterexample(self, handover_mini):
        result = verify(handover_mini)
        trace = result.trace
        for poi in handover_mini.pois:
            positions = trace.variables[poi.id]
            for t in range(1, trace.bound + 1):
                here, prev = positions[t], positions[t - 1]
                assert here == prev or here in handover_mini.layout.location(prev).adjacent

    def test_hazard_flag_iff_co_location(self, handover_mini):
        result = verify(handover_mini)
        trace = result.trace
        for t in range(trace.bound + 1):
            flag = trace.propositions["haz_h1"][t]
            together = trace.var_value("p_a", t) == trace.var_value("p_g", t)
            assert flag == together

    def test_stop_mitigation_makes_it_safe(self, handover_mini):
        stop = Mitigation("stop", "h1")
        mitigated = replace(handover_mini, mitigations=handover_mini.mitigations + (stop,))
        assert verify(mitigated).safe

    def test_mitigation_entailment_on_surviving_counterexamples(self, handover_mini):
        slowdown = Mitigation("slowdown", "h1")
        slowed = replace(handover_mini, mitigations=handover_mini.mitigations + (slowdown,))
        result = verify(slowed)
        assert not result.safe  # slow is not slow enough at severity 2
        reaction = Alw(Implies(Atom("haz_h1"), Dist(Eq("speed_kuka", "slow"), 1)))
        assert evaluate(reaction, result.trace, 0) is True

    def test_refinement_loop_converges_in_two_iterations(self, handover_mini):
        scenario = handover_mini
        for iteration in range(2):
            result = verify(scenario)
            if result.safe:
                break
            stop = Mitigation("stop", "h1")
            scenario = replace(scenario, mitigations=scenario.mitigations + (stop,))
        else:
            result = verify(scenario)
        assert result.safe

    def test_disconnected_components_with_pinned_starts_are_safe(self):
        text = """
[layout]
loc A1 box 0 0 0 1 1 1
loc A2 box 1 0 0 2 1 1
loc B1 box 5 0 0 6 1 1
loc B2 box 6 0 0 7 1 1
adj A1 A2
adj B1 B2

[agents]
agent human_op human
agent bot robot
poi human_op h radius 0.05
poi bot g radius 0.05
start h A1
start g B1

[hazards]
hazard hz h g sev 2 exp 2 avoid 2

[params]
bound 4
"""
        assert verify(loads_scenario(text)).safe

    def test_verify_agrees_with_exhaustive_enumeration(self, handover_mini):
        mitigations = [(Mitigation(kind, "h1"),) for kind in ("stop", "slowdown")]
        variants = [
            handover_mini,
            *(replace(handover_mini, mitigations=handover_mini.mitigations + m) for m in mitigations),
        ]
        for scenario in variants:
            assert verify(scenario).safe == exhaustive_verify(scenario)


def _assert_risk_priced(s, trace) -> None:
    """Each risk column: 0 without the flag, else priced at the next speed (base at k)."""
    for h in s.hazards:
        robot = s.poi(h.robot_poi).owner
        for t in range(trace.bound + 1):
            expected = 0
            if trace.propositions[f"haz_{h.id}"][t]:
                speed = "normal" if t == trace.bound else trace.var_value(f"speed_{robot}", t + 1)
                expected = risk_value(h.severity, h.exposure, h.avoidability, speed)
            assert int(trace.var_value(f"risk_{h.id}", t)) == expected, (h.id, t)


class TestPricedRisk:
    """The risk columns ``verify`` fills after solving, on the differential tests' draws."""

    def test_random_scenario_draws(self):
        rng = random.Random(4242)
        unsafe = 0
        for _ in range(test_encode.TestRandomScenarios.SCENARIOS):
            scenario = loads_scenario(test_encode._random_scenario_text(rng))
            result = verify(scenario)
            if not result.safe:
                _assert_risk_priced(scenario, result.trace)
                unsafe += 1
        assert unsafe > 0

    def test_multi_hazard_draws(self):
        rng = random.Random(2718)
        unsafe = 0
        for _ in range(test_exhaustive.TestMultiHazardScenarios.SCENARIOS):
            _, text = test_exhaustive._multi_hazard_text(rng)
            scenario = loads_scenario(text)
            result = verify(scenario)
            if not result.safe:
                _assert_risk_priced(scenario, result.trace)
                unsafe += 1
        assert unsafe > 0


class TestScenarioStructures:
    def test_programmatic_construction_validates(self):
        loc = Location("L1", Box((0, 0, 0), (1, 1, 1)), frozenset())
        with pytest.raises(ScenarioError, match="no POI"):
            Scenario(
                name="x",
                layout=Layout((loc,)),
                agents=(Agent("a", "human", ()),),
                task=(),
                hazards=(),
                mitigations=(),
            )

    def test_handover_step_validation(self):
        text = TWO_CELLS + "\n[task]\nstep handover h g A\n"
        with pytest.raises(ScenarioError, match="must belong to a robot"):
            loads_scenario(text)

    def test_task_goal_must_exist(self):
        text = TWO_CELLS + "\n[task]\nstep g reach Z9\n"
        with pytest.raises(ScenarioError, match="not a layout location"):
            loads_scenario(text)
