"""Counterexample replay: discrete traces to continuous motion and verdicts.

A trace fixes, per instant, which cell each point of interest occupies.
Replay turns each change of cell into a motion command that lasts the edge's
travel time, renders them as piecewise-linear constant-speed paths through
cell centers, and re-examines every reported hazard instant geometrically: the
two POIs are somewhere inside their cells, so their distance lies in
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

from .geometry import Box, aabb_max_distance, aabb_min_distance, contact_probability
from .logic import Trace
from .world import Scenario, extract_violations

__all__ = [
    "CONFIRMED",
    "POSSIBLE",
    "SPURIOUS",
    "MotionCommand",
    "ContinuousPath",
    "ClassifiedHazard",
    "extract_motions",
    "interpolate",
    "poi_path",
    "classify",
]

CONFIRMED = "CONFIRMED"
POSSIBLE = "POSSIBLE"
SPURIOUS = "SPURIOUS"


@dataclass(frozen=True)
class MotionCommand:
    """One cell-to-cell move: leaves source at start, reaches dest at arrival."""

    poi: str
    source: str
    dest: str
    start: int
    arrival: int
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("motion duration must be >= 1")
        if self.arrival != self.start + self.duration:
            raise ValueError("arrival must equal start + duration")
        if self.source == self.dest:
            raise ValueError("motion must change cells")


@dataclass(frozen=True)
class ContinuousPath:
    """Time-ordered (seconds, 3D point) samples of one POI's motion."""

    poi: str
    samples: tuple[tuple[float, tuple[float, float, float]], ...]

    def __post_init__(self) -> None:
        times = [t for t, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")


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


def extract_motions(tr: Trace, s: Scenario) -> list[MotionCommand]:
    """One command per completed move, in POI declaration order.

    A move arriving at instant t over an edge of travel time T starts at
    t - T; the trace must hold the source cell over [t - T, t), as the
    model's dwell rule does, or it is rejected as corrupted.
    """
    commands: list[MotionCommand] = []
    for poi in s.pois:
        try:
            positions = tr.variables[poi.id]
        except KeyError:
            raise ValueError(f"trace lacks symbol {poi.id!r}") from None
        for t in range(1, tr.bound + 1):
            if positions[t] == positions[t - 1]:
                continue
            source, dest = positions[t - 1], positions[t]
            if dest not in s.layout.location(source).adjacent:
                raise ValueError(
                    f"corrupted trace: {poi.id!r} jumps {source!r} -> {dest!r} "
                    f"between non-adjacent cells at instant {t}"
                )
            duration = s.travel_time(source, dest)
            start = t - duration
            if start < 0 or any(cell != source for cell in positions[start:t]):
                raise ValueError(
                    f"corrupted trace: {poi.id!r} reaches {dest!r} at instant {t} without "
                    f"holding {source!r} for the edge's travel time {duration}"
                )
            commands.append(
                MotionCommand(poi.id, source, dest, start=start, arrival=t, duration=duration)
            )
    return commands


def _along(c0: tuple[float, float, float], c1: tuple[float, float, float],
           frac: float) -> tuple[float, float, float]:
    """The point a fraction frac of the way from center c0 to center c1."""
    return tuple(a + frac * (b - a) for a, b in zip(c0, c1))


def interpolate(m: MotionCommand, s: Scenario, sample_interval: float) -> ContinuousPath:
    """Linear constant-speed path between the two cell centers.

    Sampled every sample_interval seconds from the start time; both endpoints
    are exact cell centers.
    """
    total = m.duration * s.dt
    if not 0 < sample_interval <= total:
        raise ValueError("sample interval must be in (0, duration * dt]")
    c0 = s.layout.location(m.source).box.center
    c1 = s.layout.location(m.dest).box.center
    t0 = m.start * s.dt
    t1 = m.arrival * s.dt

    samples: list[tuple[float, tuple[float, float, float]]] = []
    step = 0
    while True:
        time = t0 + step * sample_interval
        if time >= t1 - 1e-12:
            break
        samples.append((time, _along(c0, c1, (time - t0) / total)))
        step += 1
    samples.append((t1, c1))
    return ContinuousPath(m.poi, tuple(samples))


def poi_path(tr: Trace, s: Scenario, poi_id: str, sample_interval: float) -> ContinuousPath:
    """Full-window trajectory of one POI: held cell centers joined by its moves.

    At any whole instant outside a move the sampled point is exactly the
    center of the occupied cell.
    """
    if sample_interval <= 0:
        raise ValueError("sample interval must be > 0")
    s.poi(poi_id)
    positions = tr.variables[poi_id]
    moves = [m for m in extract_motions(tr, s) if m.poi == poi_id]
    horizon = tr.bound * s.dt

    times: list[float] = []
    step = 0
    while True:
        time = step * sample_interval
        if time > horizon + 1e-12:
            break
        times.append(time)
        step += 1
    extra = [horizon]
    for m in moves:
        extra.extend((m.start * s.dt, m.arrival * s.dt))
    for edge in extra:
        if all(abs(edge - t) > 1e-12 for t in times):
            times.append(edge)
    times.sort()

    def locate(time: float) -> tuple[float, float, float]:
        for m in moves:
            t0, t1 = m.start * s.dt, m.arrival * s.dt
            if t0 <= time <= t1:
                c0 = s.layout.location(m.source).box.center
                c1 = s.layout.location(m.dest).box.center
                if time <= t0:
                    return c0
                if time >= t1:
                    return c1
                return _along(c0, c1, (time - t0) / (t1 - t0))
        instant = min(int(time / s.dt + 0.5), tr.bound)
        return s.layout.location(positions[instant]).box.center

    return ContinuousPath(poi_id, tuple((time, locate(time)) for time in times))


def classify(
    tr: Trace,
    s: Scenario,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> list[ClassifiedHazard]:
    """Geometric verdict for every hazard instant whose risk exceeds the threshold.

    CONFIRMED and SPURIOUS verdicts follow from the exact distance bounds of
    the occupied cells and carry probability 1 and 0.  POSSIBLE verdicts get
    ``geometry.contact_probability``: the closed form when both POIs share a
    cell whose shortest edge is at least the threshold, else a Monte Carlo
    estimate from ``samples`` placements seeded with ``seed``, which are used
    for those rows only.
    """
    rows: list[ClassifiedHazard] = []
    for violation in extract_violations(tr, s):
        hazard = s.hazard(violation.hazard)
        try:
            human_cell = tr.var_value(hazard.human_poi, violation.instant)
            robot_cell = tr.var_value(hazard.robot_poi, violation.instant)
        except KeyError as missing:
            raise ValueError(
                f"trace lacks symbol {missing.args[0]!r} for hazard {hazard.id!r}"
            ) from None
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
