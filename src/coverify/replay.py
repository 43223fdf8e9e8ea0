"""Counterexample replay: discrete traces to exact motion and geometric verdicts.

A trace fixes, per instant, which cell each point of interest occupies.
``segments`` reads one POI's column as exact piecewise-linear motion through
cell centres: holds, and constant-speed moves that last the edge's travel
time.  ``classify`` re-examines every reported hazard instant geometrically:
the two POIs are somewhere inside their cells, so their distance lies in
[d_min, d_max] of the cell pair.  With contact threshold th (sum of the POI
radii) the verdict is

* CONFIRMED  when d_max <= th: contact is certain wherever they sit,
* SPURIOUS   when d_min > th: contact is impossible, a discretization
  artifact of the checker,
* POSSIBLE   otherwise, with a contact probability: exact for two POIs in
  the same cell within its shortest edge of each other, else a seeded Monte
  Carlo estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import aabb_max_distance, aabb_min_distance, contact_probability
from .logic import Trace
from .world import Scenario, extract_violations

__all__ = [
    "CONFIRMED",
    "POSSIBLE",
    "SPURIOUS",
    "Segment",
    "ClassifiedHazard",
    "segments",
    "classify",
]

CONFIRMED = "CONFIRMED"
POSSIBLE = "POSSIBLE"
SPURIOUS = "SPURIOUS"


@dataclass(frozen=True)
class Segment:
    """One POI over instants [start, end]: at source's centre at start, dest's at end.

    A hold when source == dest; otherwise a constant-speed move between the
    two centres that arrives at end.
    """

    poi: str
    source: str
    dest: str
    start: int
    end: int


@dataclass(frozen=True)
class ClassifiedHazard:
    hazard: str
    instant: int
    verdict: str
    d_min: float
    d_max: float
    contact_probability: float
    contact_threshold: float

    def __post_init__(self) -> None:
        if self.d_min > self.d_max:
            raise ValueError("d_min exceeds d_max")
        if self.verdict not in (CONFIRMED, POSSIBLE, SPURIOUS):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def segments(tr: Trace, s: Scenario, poi_id: str) -> tuple[Segment, ...]:
    """The POI's holds and moves, covering [0, bound] in time order without gaps.

    A move arriving at instant t over an edge of travel time T starts at
    t - T; the trace must hold the source cell over [t - T, t), as the
    model's dwell rule does, or it is rejected as corrupted.
    """
    s.poi(poi_id)
    try:
        positions = tr.variables[poi_id]
    except KeyError:
        raise ValueError(f"trace lacks symbol {poi_id!r}") from None
    runs: list[Segment] = []
    held = 0  # the source of a move out has been occupied since this instant
    for t in range(1, tr.bound + 1):
        source, dest = positions[t - 1], positions[t]
        if source == dest:
            continue
        if dest not in s.layout.location(source).adjacent:
            raise ValueError(
                f"corrupted trace: {poi_id!r} jumps {source!r} -> {dest!r} "
                f"between non-adjacent cells at instant {t}"
            )
        duration = s.travel_time(source, dest)
        start = t - duration
        if start < held:
            raise ValueError(
                f"corrupted trace: {poi_id!r} reaches {dest!r} at instant {t} without "
                f"holding {source!r} for the edge's travel time {duration}"
            )
        if start > held:
            runs.append(Segment(poi_id, source, source, held, start))
        runs.append(Segment(poi_id, source, dest, start, t))
        held = t
    if held < tr.bound or not runs:
        runs.append(Segment(poi_id, positions[held], positions[held], held, tr.bound))
    return tuple(runs)


def classify(tr: Trace, s: Scenario, *, samples: int, seed: int) -> list[ClassifiedHazard]:
    """Geometric verdict for every hazard instant whose risk exceeds the threshold.

    CONFIRMED and SPURIOUS verdicts follow from the exact distance bounds of
    the occupied cells and carry probability 1 and 0.  POSSIBLE verdicts get
    ``geometry.contact_probability``: the closed form when both POIs share a
    cell whose shortest edge is at least the threshold, else a Monte Carlo
    estimate from ``samples`` placements seeded with ``seed``, which are used
    for those rows only.

    The trace is taken as given, not checked against the model: a hand-built
    trace that flags two POIs cells apart gets a SPURIOUS row.  The CLI
    refuses such a trace before it gets here, with ``world.check_trace``.
    A trace without the risk column or a POI column of some hazard is a
    ``ValueError``.
    """
    for hazard in s.hazards:
        for name in (s.risk_name(hazard.id), hazard.human_poi, hazard.robot_poi):
            if name not in tr.variables:
                raise ValueError(f"trace lacks symbol {name!r} for hazard {hazard.id!r}")
    rows: list[ClassifiedHazard] = []
    for violation in extract_violations(tr, s):
        hazard = s.hazard(violation.hazard)
        human_cell = tr.var_value(hazard.human_poi, violation.instant)
        robot_cell = tr.var_value(hazard.robot_poi, violation.instant)
        box_h = s.layout.location(human_cell).box
        box_r = s.layout.location(robot_cell).box
        threshold = s.poi(hazard.human_poi).radius + s.poi(hazard.robot_poi).radius
        d_min = aabb_min_distance(box_h, box_r)
        d_max = aabb_max_distance(box_h, box_r)
        if d_max <= threshold:
            verdict, probability = CONFIRMED, 1.0
        elif d_min > threshold:
            verdict, probability = SPURIOUS, 0.0
        else:
            verdict = POSSIBLE
            probability = contact_probability(box_h, box_r, threshold, samples, seed)
        rows.append(
            ClassifiedHazard(
                hazard.id, violation.instant, verdict, d_min, d_max, probability, threshold
            )
        )
    return rows
