"""The motion commands that ``coverify.replay.segments`` replaced, kept verbatim.

``extract_motions`` gave one command per completed move of every POI.  The
segment model gives each POI's moves and the holds between them;
``test_replay.py`` checks that the moves equal these commands on seeded
witnesses and that both reject each corrupted trace with the same message.
Only this docstring, ``__all__`` and the imports differ from the original code.
"""

from __future__ import annotations

from dataclasses import dataclass

from coverify.logic import Trace
from coverify.world import Scenario

__all__ = ["MotionCommand", "extract_motions"]


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
