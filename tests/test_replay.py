"""Replay: the segment motion model and classification verdicts."""

import math
import random
from dataclasses import astuple, replace

import pytest

import frozen_motion
import test_encode
from coverify.logic import Trace
from coverify.replay import (
    CONFIRMED,
    POSSIBLE,
    SPURIOUS,
    ClassifiedHazard,
    Segment,
    classify,
    segments,
)
from coverify.world import Mitigation, ScenarioError, loads_scenario, verify

CORRIDOR = """
[layout]
loc L1 box 0 0 0 1 1 1
loc L2 box 1 0 0 2 1 1
loc L3 box 2 0 0 3 1 1
adj L1 L2
adj L2 L3

[agents]
agent op human
agent bot robot
poi op p_a radius 0.05
poi bot p_g radius 0.05

[hazards]
hazard h1 p_a p_g sev 2 exp 2 avoid 1

[params]
bound 6
threshold 3
"""


@pytest.fixture
def corridor():
    return loads_scenario(CORRIDOR)


@pytest.fixture
def timed_corridor():
    """The corridor with a 3-instant L1-L2 edge."""
    return loads_scenario(CORRIDOR + "travel L1 L2 3\n")


def make_trace(corridor_s, p_g, p_a=None, haz=None, risk=None):
    k = len(p_g) - 1
    p_a = p_a or ["L3"] * (k + 1)
    haz = haz if haz is not None else [a == b for a, b in zip(p_a, p_g)]
    risk = risk or ["5" if h else "0" for h in haz]
    return Trace(
        k,
        {"haz_h1": tuple(haz)},
        {
            "p_a": tuple(p_a),
            "p_g": tuple(p_g),
            "speed_bot": ("normal",) * (k + 1),
            "risk_h1": tuple(risk),
        },
    )


def moves(tr, s, poi_id):
    return [seg for seg in segments(tr, s, poi_id) if seg.source != seg.dest]


def point(seg, s, time):
    """The segment's point at a time in seconds: linear between the two centres."""
    c0 = s.layout.location(seg.source).box.center
    c1 = s.layout.location(seg.dest).box.center
    frac = (time / s.dt - seg.start) / (seg.end - seg.start) if seg.end > seg.start else 0.0
    return tuple(a + frac * (b - a) for a, b in zip(c0, c1))


def assert_exact_cover(tr, s, poi_id, runs):
    """The runs cover [0, bound] in order; holds and moves agree with the trace column."""
    positions = tr.variables[poi_id]
    assert runs[0].start == 0 and runs[-1].end == tr.bound
    assert all(a.end == b.start and a.dest == b.source for a, b in zip(runs, runs[1:]))
    for run in runs:
        assert run.poi == poi_id
        assert run.start < run.end or tr.bound == 0
        assert set(positions[run.start:run.end]) <= {run.source}
        assert positions[run.end] == run.dest
        if run.source != run.dest:
            assert run.end - run.start == s.travel_time(run.source, run.dest)


class TestExtractMotions:
    """The holds and moves ``segments`` extracts from one POI's trace column."""

    def test_unit_move(self, corridor):
        tr = make_trace(corridor, ["L1", "L1", "L2", "L2", "L2", "L2", "L2"])
        assert segments(tr, corridor, "p_g") == (
            Segment("p_g", "L1", "L1", 0, 1),
            Segment("p_g", "L1", "L2", 1, 2),
            Segment("p_g", "L2", "L2", 2, 6),
        )

    def test_three_instant_move(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L2"])
        assert segments(tr, timed_corridor, "p_g") == (
            Segment("p_g", "L1", "L1", 0, 1),
            Segment("p_g", "L1", "L2", 1, 4),
            Segment("p_g", "L2", "L2", 4, 6),
        )

    def test_no_change_no_commands(self, corridor):
        tr = make_trace(corridor, ["L1"] * 7)
        assert segments(tr, corridor, "p_g") == (Segment("p_g", "L1", "L1", 0, 6),)

    def test_bound_zero_is_one_instant_hold(self, corridor):
        tr = Trace(0, {}, {"p_g": ("L2",)})
        assert segments(tr, corridor, "p_g") == (Segment("p_g", "L2", "L2", 0, 0),)

    def test_instantaneous_change_gets_duration_one(self, corridor):
        tr = make_trace(corridor, ["L1", "L2", "L2", "L2", "L2", "L2", "L2"])
        assert moves(tr, corridor, "p_g") == [Segment("p_g", "L1", "L2", 0, 1)]

    def test_back_to_back_moves_split(self, corridor):
        tr = make_trace(corridor, ["L1", "L2", "L3", "L3", "L3", "L3", "L3"])
        assert segments(tr, corridor, "p_g") == (
            Segment("p_g", "L1", "L2", 0, 1),
            Segment("p_g", "L2", "L3", 1, 2),
            Segment("p_g", "L3", "L3", 2, 6),
        )

    def test_non_adjacent_jump_is_corrupted(self, corridor):
        tr = make_trace(corridor, ["L1", "L3", "L3", "L3", "L3", "L3", "L3"])
        with pytest.raises(ValueError, match="non-adjacent"):
            segments(tr, corridor, "p_g")

    def test_arrival_before_the_travel_time_is_corrupted(self, timed_corridor):
        # L1 -> L2 at instant 2 would have started at instant -1.
        tr = make_trace(timed_corridor, ["L1", "L1", "L2", "L2", "L2", "L2", "L2"])
        with pytest.raises(ValueError, match="corrupted trace: 'p_g' reaches 'L2' at instant 2"):
            segments(tr, timed_corridor, "p_g")

    def test_source_not_held_for_the_travel_time_is_corrupted(self, timed_corridor):
        # L2 -> L1 at instant 4 needs L2 over instants 1..3; p_g is still at L3 at 1.
        tr = make_trace(timed_corridor, ["L3", "L3", "L2", "L2", "L1", "L1", "L1"])
        with pytest.raises(ValueError, match="without holding 'L2' for the edge's travel time 3"):
            segments(tr, timed_corridor, "p_g")

    def test_dwell_is_checked_per_edge(self, timed_corridor):
        # The unit L2-L3 edge needs no dwell right after the 3-instant arrival.
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L2", "L3", "L3", "L3"])
        assert moves(tr, timed_corridor, "p_g") == [
            Segment("p_g", "L1", "L2", 0, 3),
            Segment("p_g", "L2", "L3", 3, 4),
        ]

    def test_missing_poi_column_rejected(self, corridor):
        tr = Trace(0, {}, {"p_a": ("L1",)})
        with pytest.raises(ValueError, match="trace lacks symbol 'p_g'"):
            segments(tr, corridor, "p_g")

    def test_unknown_poi_rejected(self, corridor):
        tr = make_trace(corridor, ["L1"] * 7)
        with pytest.raises(ScenarioError, match="unknown POI"):
            segments(tr, corridor, "speed_bot")


class TestPoiPath:
    """A POI's path is its segments: holds on cell centres, constant-speed moves between them."""

    CENTERS = {"L1": (0.5, 0.5, 0.5), "L2": (1.5, 0.5, 0.5), "L3": (2.5, 0.5, 0.5)}

    def test_stationary_poi_holds_center(self, corridor):
        tr = make_trace(corridor, ["L1"] * 7)
        (hold,) = segments(tr, corridor, "p_g")
        assert {point(hold, corridor, t / 2) for t in range(13)} == {self.CENTERS["L1"]}

    def test_non_transit_instants_sit_exactly_on_centers(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L3"])
        runs = segments(tr, timed_corridor, "p_g")
        moving = {t for r in runs if r.source != r.dest for t in range(r.start + 1, r.end)}
        assert moving == {2, 3}  # strictly inside the 3-instant L1 -> L2 move
        for t in sorted(set(range(7)) - moving):
            # every segment that reaches t, one or two of them, puts the POI on the centre
            at = {point(r, timed_corridor, float(t)) for r in runs if r.start <= t <= r.end}
            assert at == {self.CENTERS[tr.var_value("p_g", t)]}

    def test_speed_bounded_between_samples(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L3"])
        for r in segments(tr, timed_corridor, "p_g"):
            times = [r.start + 0.3 * i for i in range(int((r.end - r.start) / 0.3) + 1)] + [r.end]
            path = [(t, point(r, timed_corridor, t)) for t in times]
            # fastest move: one meter per instant
            for (t0, a), (t1, b) in zip(path, path[1:]):
                assert math.dist(a, b) <= 1.0 * (t1 - t0) + 1e-9

    def test_speed_is_in_metres_per_dt_seconds(self):
        # Centres 3 m apart, a 3-instant edge, half a second per instant: 2 m/s.
        wide = loads_scenario(
            """
[layout]
loc A box 0 0 0 3 1 1
loc B box 3 0 0 6 1 1
adj A B

[agents]
agent bot robot
poi bot g radius 0.5

[params]
dt 0.5
travel A B 3
"""
        )
        tr = Trace(5, {}, {"g": ("A", "A", "A", "A", "B", "B")})
        hold, move, rest = segments(tr, wide, "g")
        assert [point(hold, wide, t) for t in (0.0, 0.5)] == [(1.5, 0.5, 0.5)] * 2
        samples = [(t, point(move, wide, t)) for t in (0.5, 0.75, 1.25, 2.0)]
        assert samples[0][1] == (1.5, 0.5, 0.5) and samples[-1][1] == (4.5, 0.5, 0.5)
        for (t0, a), (t1, b) in zip(samples, samples[1:]):
            assert math.dist(a, b) / (t1 - t0) == pytest.approx(2.0, abs=1e-9)
        assert [point(rest, wide, t) for t in (2.0, 2.5)] == [(4.5, 0.5, 0.5)] * 2


class TestSegmentsAgainstFrozenCommands:
    """The moves of ``segments`` against the frozen ``extract_motions``, on seeded grid witnesses."""

    DRAWS = 12  # 3x3 grids of the seed that carry a travel line
    BOUNDS = (6, 9, 12)

    @staticmethod
    def _witnesses():
        rng = random.Random(2323)
        drawn = 0
        while drawn < TestSegmentsAgainstFrozenCommands.DRAWS:
            scenario = loads_scenario(test_encode._random_grid_text(rng, 3), name="grid3")
            if not scenario.travel_times:
                continue
            drawn += 1
            for k in TestSegmentsAgainstFrozenCommands.BOUNDS:
                s = replace(scenario, bound=k)
                trace = verify(s).trace
                if trace is not None:
                    yield s, trace

    @staticmethod
    def _all_segments(tr, s):
        return [seg for poi in s.pois for seg in segments(tr, s, poi.id)]

    def _same_rejection(self, tr, s):
        with pytest.raises(ValueError) as frozen:
            frozen_motion.extract_motions(tr, s)
        with pytest.raises(ValueError) as current:
            self._all_segments(tr, s)
        assert str(current.value) == str(frozen.value)
        return str(current.value)

    @staticmethod
    def _with_column(tr, poi_id, positions):
        return Trace(tr.bound, tr.propositions, {**tr.variables, poi_id: tuple(positions)})

    def test_moves_match_and_cover_the_window(self):
        witnesses = long_moves = 0
        for s, tr in self._witnesses():
            witnesses += 1
            runs = self._all_segments(tr, s)
            commands = frozen_motion.extract_motions(tr, s)
            assert [(m.poi, m.source, m.dest, m.start, m.arrival) for m in commands] == [
                astuple(seg) for seg in runs if seg.source != seg.dest
            ]
            for poi in s.pois:
                assert_exact_cover(tr, s, poi.id, [r for r in runs if r.poi == poi.id])
            long_moves += sum(m.duration > 1 for m in commands)
        assert witnesses >= 20 and long_moves > 0

    def test_corrupted_witnesses_are_rejected_alike(self):
        jumps = early = 0
        for s, tr in self._witnesses():
            # A jump to a non-adjacent cell at the first instant that has one.
            poi = s.pois[-1].id
            positions = list(tr.variables[poi])
            for t in range(1, tr.bound + 1):
                near = s.layout.location(positions[t - 1]).adjacent | {positions[t - 1]}
                far = [cell for cell in s.layout.ids if cell not in near]
                if far:
                    bad = positions[:t] + far[:1] + positions[t + 1:]
                    assert "non-adjacent" in self._same_rejection(self._with_column(tr, poi, bad), s)
                    jumps += 1
                    break
            # A move over a long edge that arrives one instant after its source was reached.
            long_moves = [
                run for p in s.pois for run in segments(tr, s, p.id)
                if run.end - run.start > 1 and run.source != run.dest
            ]
            if long_moves:
                run = long_moves[0]
                positions = list(tr.variables[run.poi])
                held = run.start
                while held > 0 and positions[held - 1] == run.source:
                    held -= 1
                bad = positions[:held + 1] + [run.dest] * (run.end - held - 1) + positions[run.end:]
                message = self._same_rejection(self._with_column(tr, run.poi, bad), s)
                assert f"reaches {run.dest!r} at instant {held + 1} without holding" in message
                early += 1
            # A trace without the POI's column.
            lacking = Trace(tr.bound, tr.propositions, {v: c for v, c in tr.variables.items() if v != poi})
            assert self._same_rejection(lacking, s) == f"trace lacks symbol {poi!r}"
        assert jumps >= 20 and early >= 15


class TestClassify:
    def test_same_unit_cell_is_possible(self, corridor):
        tr = make_trace(corridor, ["L3"] * 7)  # p_a also parked at L3
        rows = classify(tr, corridor, samples=20_000, seed=5)
        assert rows and all(row.verdict == POSSIBLE for row in rows)
        row = rows[0]
        assert row.d_min == 0.0
        assert row.d_max == pytest.approx(math.sqrt(3), abs=1e-9)
        assert 0.0 < row.contact_probability < 1.0
        assert row.contact_threshold == pytest.approx(0.1)

    def test_far_cells_are_spurious(self, corridor):
        # hand-built trace marking a hazard while the POIs sit 2 cells apart
        tr = make_trace(
            corridor,
            ["L1"] * 7,
            p_a=["L3"] * 7,
            haz=[True] + [False] * 6,
            risk=["5"] + ["0"] * 6,
        )
        rows = classify(tr, corridor, samples=1000, seed=5)
        assert [row.verdict for row in rows] == [SPURIOUS]
        assert rows[0].d_min == 1.0
        assert rows[0].contact_probability == 0.0

    def test_point_cells_are_confirmed(self):
        text = CORRIDOR.replace("loc L1 box 0 0 0 1 1 1", "loc L1 box 0.5 0.5 0.5 0.5 0.5 0.5")
        text = text.replace("loc L2 box 1 0 0 2 1 1", "loc L2 box 1.5 0.5 0.5 1.5 0.5 0.5")
        text = text.replace("loc L3 box 2 0 0 3 1 1", "loc L3 box 2.5 0.5 0.5 2.5 0.5 0.5")
        s = loads_scenario(text)
        tr = make_trace(s, ["L3"] * 7)
        rows = classify(tr, s, samples=1000, seed=5)
        assert rows and all(row.verdict == CONFIRMED for row in rows)
        assert all(row.contact_probability == 1.0 for row in rows)
        assert all(row.d_max == 0.0 for row in rows)

    def test_verdict_probability_consistency(self, corridor, handover_mini):
        result = verify(handover_mini)
        rows = classify(result.trace, handover_mini, samples=10_000, seed=3)
        for row in rows:
            if row.verdict == CONFIRMED:
                assert row.contact_probability == 1.0
            elif row.verdict == SPURIOUS:
                assert row.contact_probability == 0.0
            else:
                assert row.d_min <= row.contact_threshold < row.d_max

    def test_rows_follow_trace_violations(self, handover_mini):
        result = verify(handover_mini)
        rows = classify(result.trace, handover_mini, samples=1000, seed=1)
        assert {(r.hazard, r.instant) for r in rows} == {
            (v.hazard, v.instant) for v in result.violations
        }

    def test_missing_symbols_rejected(self, corridor):
        bare = Trace(0, {"haz_h1": (True,)}, {"risk_h1": ("5",)})
        with pytest.raises(ValueError, match="missing|lacks"):
            classify(bare, corridor, samples=10, seed=1)

    @pytest.mark.parametrize("column", ["p_a", "risk_h1"])
    def test_a_witness_without_a_hazard_column_is_a_value_error(self, handover_mini, column):
        witness = verify(handover_mini).trace
        variables = {name: values for name, values in witness.variables.items() if name != column}
        with pytest.raises(ValueError, match=f"^trace lacks symbol '{column}' for hazard 'h1'$"):
            classify(replace(witness, variables=variables), handover_mini, samples=10, seed=1)


class TestStructures:
    def test_classified_hazard_bounds(self):
        with pytest.raises(ValueError, match="d_min"):
            ClassifiedHazard("h", 0, POSSIBLE, 2.0, 1.0, 0.5, 0.1)
