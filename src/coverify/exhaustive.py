"""Exhaustive cross-check of ``world.verify`` by explicit state enumeration.

Walks every behavior of a scenario layer by layer instead of going through
the SAT encoding, so the two verdicts come from entirely different machinery.
Tractable only for small scenarios; limited to unit travel times and to
slowdown/stop mitigations (retract reactions couple three instants, which
this per-instant walker does not track).

A node is the cell of every POI, every POI's transit flag and the task's done
flags. It maps to one bool: whether some path to it passed a hazard instant
whose risk exceeds the threshold. No robot speed is held: no move, done flag
or final check reads one. A hazard instant is priced against its robot's
speed one instant later, so each step takes the worst speed that the active
hazards' mitigations still allow; no other speed can raise the flag, and
nothing after a step reads the flag but the final check, so one bool per
node loses no verdict. The speeds that price an instant over the threshold
are ``world.over_speeds``, the set the SAT model's violation reads too.

At the final instant no reaction window remains: a node counts only if the
task is done, a hazard with a mitigation cannot hold there, and any other
hazard is priced at its base (``normal`` speed) value.

``exhaustive_verify`` returns True when the scenario is safe: no admissible
trace that completes the task carries a hazard instant whose risk exceeds
the threshold.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .world import SPEED_STATES, Scenario, over_speeds

__all__ = ["exhaustive_verify"]

_STATE_LIMIT = 2_000_000
_REQUIRED_SPEED = {"slowdown": {"slow"}, "stop": {"stopped"}}


class _Hazard(NamedTuple):
    human: int  # index of the human POI in a node's cells
    arm: int  # index of the robot POI
    robot: str
    allowed: frozenset[str]  # speeds its mitigations allow one instant after detection
    over: frozenset[str]  # speeds at which its risk exceeds the threshold
    mitigated: bool


def exhaustive_verify(s: Scenario) -> bool:
    for a, b, t in s.travel_times:
        if t != 1:
            raise ValueError("exhaustive check supports unit travel times only")
    for mit in s.mitigations:
        if mit.kind == "retract":
            raise ValueError("exhaustive check does not support retract mitigations")

    pois = [poi.id for poi in s.pois]
    locs = list(s.layout.ids)
    start_of = dict(s.starts)

    if (len(locs) ** len(pois)) * (2 ** len(pois)) > _STATE_LIMIT:
        raise ValueError("scenario too large for exhaustive enumeration")

    hazards = []
    for h in s.hazards:
        kinds = [mit.kind for mit in s.mitigations if mit.hazard == h.id]
        allowed = frozenset(SPEED_STATES).intersection(*(_REQUIRED_SPEED[k] for k in kinds))
        human, arm = pois.index(h.human_poi), pois.index(h.robot_poi)
        robot = s.poi(h.robot_poi).owner
        hazards.append(_Hazard(human, arm, robot, allowed, over_speeds(h, s.threshold), bool(kinds)))

    # Per task step: its goal and the POIs that must stand on it (a handover's two).
    steps = [(step.goal, [pois.index(p) for p in (step.poi, step.partner) if p]) for step in s.task]

    def done_row(prev_done: tuple[bool, ...], cells: tuple[str, ...]) -> tuple[bool, ...]:
        row: list[bool] = []
        for i, (goal, at_goal) in enumerate(steps):
            ready = row[i - 1] if i > 0 else True
            row.append(prev_done[i] or (ready and all(cells[j] == goal for j in at_goal)))
        return tuple(row)

    # A POI at rest stays, raising transit or not. In transit it stays in
    # transit or lands on a neighbor, flag either way: staying put while
    # dropping the flag would strand the move.
    moves: dict[tuple[str, bool], list[tuple[str, bool]]] = {}
    for loc in s.layout.locations:
        neighbors = sorted(loc.adjacent)
        moves[loc.id, False] = [(loc.id, False), (loc.id, True)]
        moves[loc.id, True] = [(loc.id, True)] + [(n, t) for t in (False, True) for n in neighbors]

    frontier: dict[tuple, bool] = {}
    for cells in product(*([start_of[p]] if p in start_of else locs for p in pois)):
        done = done_row((False,) * len(s.task), cells)
        for transit in product((False, True), repeat=len(pois)):
            frontier[cells, transit, done] = False

    for _ in range(s.bound):
        next_frontier: dict[tuple, bool] = {}
        for (cells, transit, done), flag in frontier.items():
            active = [h for h in hazards if cells[h.human] == cells[h.arm]]
            speeds: dict[str, frozenset[str]] = {}
            for h in active:
                speeds[h.robot] = speeds.get(h.robot, h.allowed) & h.allowed
            if not all(speeds.values()):
                continue  # the mitigations ask one robot for two speeds
            # The worst speed the mitigations still allow prices this instant.
            flag = flag or any(speeds[h.robot] & h.over for h in active)
            for moved in product(*(moves[here] for here in zip(cells, transit))):
                new_cells = tuple(cell for cell, _ in moved)
                node = (new_cells, tuple(moving for _, moving in moved), done_row(done, new_cells))
                next_frontier[node] = flag or next_frontier.get(node, False)
        frontier = next_frontier

    for (cells, _transit, done), flag in frontier.items():
        if s.task and not done[-1]:
            continue
        active = [h for h in hazards if cells[h.human] == cells[h.arm]]
        if any(h.mitigated for h in active):
            continue
        if flag or any("normal" in h.over for h in active):
            return False
    return True
