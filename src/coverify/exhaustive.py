"""Exhaustive cross-check of ``world.verify`` by explicit state enumeration.

Walks every behavior of a scenario layer by layer instead of going through
the SAT encoding, so the two verdicts come from entirely different machinery.
Tractable only for small scenarios; limited to unit travel times and to
slowdown/stop mitigations (retract reactions couple three instants, which
this per-instant walker does not track).

A node is the cell of every POI, every POI's transit flag and the task's done
flags; it gets an int id the first time it is seen.  A layer is two sets of
ids: ``hot`` holds the nodes that some path reaches through a hazard instant
whose risk exceeds the threshold, ``cold`` those that only unflagged paths
reach.  No robot speed is held: no move, done flag or final check reads one.
A hazard instant is priced against its robot's speed one instant later, so
each step takes the worst speed that the active hazards' mitigations still
allow; no other speed can raise the flag, and nothing after a step reads the
flag but the final check, so one flag per node loses no verdict.  The speeds
that price an instant over the threshold are ``world.over_speeds``, the set
the SAT model's violation reads too.

Each node is expanded once: its successors are kept as a tuple of ids, and
the pricing of an instant is kept per tuple of cells, the only thing it
reads.  A step is then set unions of those tuples, and a node that both sets
reach stays hot only.  Memory therefore grows with the reachable state graph
(its nodes times their successors), not with one layer.

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

    node_ids: dict[tuple, int] = {}
    nodes: list[tuple] = []

    def intern(node: tuple) -> int:
        i = node_ids.get(node)
        if i is None:
            i = node_ids[node] = len(nodes)
            nodes.append(node)
        return i

    pricing: dict[tuple[str, ...], bool | None] = {}

    def price(cells: tuple[str, ...]) -> bool | None:
        """Whether an instant at these cells raises the flag; None if no speed is admissible."""
        if cells in pricing:
            return pricing[cells]
        active = [h for h in hazards if cells[h.human] == cells[h.arm]]
        speeds: dict[str, frozenset[str]] = {}
        for h in active:
            speeds[h.robot] = speeds.get(h.robot, h.allowed) & h.allowed
        raises = None  # the mitigations ask one robot for two speeds
        if all(speeds.values()):  # the worst speed the mitigations still allow prices this instant
            raises = any(speeds[h.robot] & h.over for h in active)
        pricing[cells] = raises
        return raises

    successors: dict[int, tuple[int, ...]] = {}

    def expand(i: int) -> tuple[int, ...]:
        row = successors.get(i)
        if row is None:
            cells, transit, done = nodes[i]
            ids = []
            for moved in product(*(moves[here] for here in zip(cells, transit))):
                new_cells = tuple(cell for cell, _ in moved)
                new_transit = tuple(moving for _, moving in moved)
                ids.append(intern((new_cells, new_transit, done_row(done, new_cells))))
            row = successors[i] = tuple(ids)
        return row

    # hot and cold, as in the module docstring; they never share a node.
    hot: set[int] = set()
    cold: set[int] = set()
    for cells in product(*([start_of[p]] if p in start_of else locs for p in pois)):
        done = done_row((False,) * len(s.task), cells)
        for transit in product((False, True), repeat=len(pois)):
            cold.add(intern((cells, transit, done)))

    for _ in range(s.bound):
        next_hot: set[int] = set()
        next_cold: set[int] = set()
        for flagged, layer in ((True, hot), (False, cold)):
            for i in layer:
                raises = price(nodes[i][0])
                if raises is not None:
                    (next_hot if flagged or raises else next_cold).update(expand(i))
        next_cold -= next_hot
        hot, cold = next_hot, next_cold

    for flagged, layer in ((True, hot), (False, cold)):
        for i in layer:
            cells, _transit, done = nodes[i]
            if s.task and not done[-1]:
                continue
            active = [h for h in hazards if cells[h.human] == cells[h.arm]]
            if any(h.mitigated for h in active):
                continue
            if flagged or any("normal" in h.over for h in active):
                return False
    return True
