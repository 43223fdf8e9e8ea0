"""Replay: motion extraction, interpolation, classification verdicts."""

import math

import pytest

from coverify.logic import Trace
from coverify.replay import (
    CONFIRMED,
    POSSIBLE,
    SPURIOUS,
    ClassifiedHazard,
    MotionCommand,
    classify,
    extract_motions,
    interpolate,
    poi_path,
)
from coverify.world import Mitigation, apply_mitigation, loads_scenario, verify

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


class TestExtractMotions:
    def test_unit_move(self, corridor):
        tr = make_trace(corridor, ["L1", "L1", "L2", "L2", "L2", "L2", "L2"])
        commands = [c for c in extract_motions(tr, corridor) if c.poi == "p_g"]
        assert commands == [MotionCommand("p_g", "L1", "L2", start=1, arrival=2, duration=1)]

    def test_three_instant_move(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L2"])
        commands = [c for c in extract_motions(tr, timed_corridor) if c.poi == "p_g"]
        assert commands == [MotionCommand("p_g", "L1", "L2", start=1, arrival=4, duration=3)]

    def test_no_change_no_commands(self, corridor):
        tr = make_trace(corridor, ["L1"] * 7)
        assert [c for c in extract_motions(tr, corridor) if c.poi == "p_g"] == []

    def test_instantaneous_change_gets_duration_one(self, corridor):
        tr = make_trace(corridor, ["L1", "L2", "L2", "L2", "L2", "L2", "L2"])
        commands = [c for c in extract_motions(tr, corridor) if c.poi == "p_g"]
        assert commands == [MotionCommand("p_g", "L1", "L2", start=0, arrival=1, duration=1)]

    def test_back_to_back_moves_split(self, corridor):
        tr = make_trace(corridor, ["L1", "L2", "L3", "L3", "L3", "L3", "L3"])
        commands = [c for c in extract_motions(tr, corridor) if c.poi == "p_g"]
        assert commands == [
            MotionCommand("p_g", "L1", "L2", start=0, arrival=1, duration=1),
            MotionCommand("p_g", "L2", "L3", start=1, arrival=2, duration=1),
        ]

    def test_non_adjacent_jump_is_corrupted(self, corridor):
        tr = make_trace(corridor, ["L1", "L3", "L3", "L3", "L3", "L3", "L3"])
        with pytest.raises(ValueError, match="non-adjacent"):
            extract_motions(tr, corridor)

    def test_arrival_before_the_travel_time_is_corrupted(self, timed_corridor):
        # L1 -> L2 at instant 2 would have started at instant -1.
        tr = make_trace(timed_corridor, ["L1", "L1", "L2", "L2", "L2", "L2", "L2"])
        with pytest.raises(ValueError, match="corrupted trace: 'p_g' reaches 'L2' at instant 2"):
            extract_motions(tr, timed_corridor)

    def test_source_not_held_for_the_travel_time_is_corrupted(self, timed_corridor):
        # L2 -> L1 at instant 4 needs L2 over instants 1..3; p_g is still at L3 at 1.
        tr = make_trace(timed_corridor, ["L3", "L3", "L2", "L2", "L1", "L1", "L1"])
        with pytest.raises(ValueError, match="without holding 'L2' for the edge's travel time 3"):
            extract_motions(tr, timed_corridor)

    def test_dwell_is_checked_per_edge(self, timed_corridor):
        # The unit L2-L3 edge needs no dwell right after the 3-instant arrival.
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L2", "L3", "L3", "L3"])
        commands = [c for c in extract_motions(tr, timed_corridor) if c.poi == "p_g"]
        assert commands == [
            MotionCommand("p_g", "L1", "L2", start=0, arrival=3, duration=3),
            MotionCommand("p_g", "L2", "L3", start=3, arrival=4, duration=1),
        ]


class TestInterpolate:
    def test_linear_midpoint(self, corridor):
        m = MotionCommand("p_g", "L1", "L2", start=0, arrival=1, duration=1)
        path = interpolate(m, corridor, sample_interval=0.5)
        assert path.samples == (
            (0.0, (0.5, 0.5, 0.5)),
            (0.5, (1.0, 0.5, 0.5)),
            (1.0, (1.5, 0.5, 0.5)),
        )

    def test_endpoints_are_exact_centers(self, corridor):
        m = MotionCommand("p_g", "L2", "L3", start=2, arrival=5, duration=3)
        path = interpolate(m, corridor, sample_interval=0.7)
        assert path.samples[0] == (2.0, (1.5, 0.5, 0.5))
        assert path.samples[-1] == (5.0, (2.5, 0.5, 0.5))

    def test_constant_speed(self, corridor):
        m = MotionCommand("p_g", "L1", "L2", start=0, arrival=3, duration=3)
        path = interpolate(m, corridor, sample_interval=0.25)
        speeds = []
        for (t0, a), (t1, b) in zip(path.samples, path.samples[1:]):
            speeds.append(math.dist(a, b) / (t1 - t0))
        expected = 1.0 / 3.0  # one meter over three seconds
        assert all(abs(v - expected) < 1e-9 for v in speeds)

    def test_one_meter_per_second_over_wide_cells(self):
        wide = loads_scenario(
            """
[layout]
loc A box 0 0 0 3 1 1
loc B box 3 0 0 6 1 1
adj A B

[agents]
agent bot robot
poi bot g radius 0.5
"""
        )
        m = MotionCommand("g", "A", "B", start=0, arrival=3, duration=3)
        path = interpolate(m, wide, sample_interval=0.5)  # centers 3 m apart
        for (t0, a), (t1, b) in zip(path.samples, path.samples[1:]):
            assert math.dist(a, b) / (t1 - t0) == pytest.approx(1.0, abs=1e-9)

    def test_interval_validation(self, corridor):
        m = MotionCommand("p_g", "L1", "L2", start=0, arrival=1, duration=1)
        with pytest.raises(ValueError, match="interval"):
            interpolate(m, corridor, sample_interval=0.0)
        with pytest.raises(ValueError, match="interval"):
            interpolate(m, corridor, sample_interval=1.5)


class TestPoiPath:
    def test_stationary_poi_holds_center(self, corridor):
        tr = make_trace(corridor, ["L1"] * 7)
        path = poi_path(tr, corridor, "p_g", sample_interval=1.0)
        assert all(point == (0.5, 0.5, 0.5) for _, point in path.samples)
        assert len(path.samples) == 7

    def test_non_transit_instants_sit_exactly_on_centers(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L3"])
        path = poi_path(tr, timed_corridor, "p_g", sample_interval=1.0)
        by_time = dict(path.samples)
        centers = {"L1": (0.5, 0.5, 0.5), "L2": (1.5, 0.5, 0.5), "L3": (2.5, 0.5, 0.5)}
        moving = {
            t for m in extract_motions(tr, timed_corridor) for t in range(m.start + 1, m.arrival)
        }
        assert moving == {2, 3}  # strictly inside the 3-instant L1 -> L2 move
        for t in sorted(set(range(7)) - moving):
            assert by_time[float(t)] == centers[tr.var_value("p_g", t)]

    def test_speed_bounded_between_samples(self, timed_corridor):
        tr = make_trace(timed_corridor, ["L1", "L1", "L1", "L1", "L2", "L2", "L3"])
        path = poi_path(tr, timed_corridor, "p_g", sample_interval=0.3)
        # fastest commanded move: one meter per instant
        for (t0, a), (t1, b) in zip(path.samples, path.samples[1:]):
            assert math.dist(a, b) <= 1.0 * (t1 - t0) + 1e-9


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


class TestStructures:
    def test_motion_command_consistency(self):
        with pytest.raises(ValueError, match="arrival"):
            MotionCommand("p", "A", "B", start=0, arrival=2, duration=1)
        with pytest.raises(ValueError, match="change cells"):
            MotionCommand("p", "A", "A", start=0, arrival=1, duration=1)

    def test_classified_hazard_bounds(self):
        with pytest.raises(ValueError, match="d_min"):
            ClassifiedHazard("h", 0, POSSIBLE, 2.0, 1.0, 0.5, 0.1)

    def test_path_times_strictly_increasing(self):
        from coverify.replay import ContinuousPath

        with pytest.raises(ValueError, match="strictly increasing"):
            ContinuousPath("p", ((0.0, (0, 0, 0)), (0.0, (1, 1, 1))))
